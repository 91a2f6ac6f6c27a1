#include "net/serializer.hpp"

namespace jwins::net {

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  write_u32(static_cast<std::uint32_t>(bytes.size()));
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::write_f32_array(std::span<const float> values) {
  write_u32(static_cast<std::uint32_t>(values.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  buffer_.insert(buffer_.end(), p, p + values.size() * sizeof(float));
}

void ByteWriter::write_u32_array(std::span<const std::uint32_t> values) {
  write_u32(static_cast<std::uint32_t>(values.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  buffer_.insert(buffer_.end(), p, p + values.size() * sizeof(std::uint32_t));
}

std::span<const std::uint8_t> ByteReader::view_bytes() {
  const std::uint32_t n = read_u32();
  if (remaining() < n) throw std::out_of_range("ByteReader: truncated blob");
  const std::span<const std::uint8_t> view = bytes_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void ByteReader::read_f32_array_into(std::vector<float>& out) {
  const std::uint32_t n = read_u32();
  if (remaining() < n * sizeof(float)) {
    throw std::out_of_range("ByteReader: truncated float array");
  }
  out.resize(n);
  // An empty vector's data() may be null, which memcpy must not receive.
  if (n != 0) {
    std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(float));
  }
  pos_ += n * sizeof(float);
}

void ByteReader::read_u32_array_into(std::vector<std::uint32_t>& out) {
  const std::uint32_t n = read_u32();
  if (remaining() < n * sizeof(std::uint32_t)) {
    throw std::out_of_range("ByteReader: truncated u32 array");
  }
  out.resize(n);
  // An empty vector's data() may be null, which memcpy must not receive.
  if (n != 0) {
    std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(std::uint32_t));
  }
  pos_ += n * sizeof(std::uint32_t);
}

}  // namespace jwins::net
