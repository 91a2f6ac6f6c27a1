// Guards the checked-in perf trajectory documents (BENCH_*.json).
//
// The bench documents are how the repo's perf story is audited: each one
// must be a complete (unfiltered) jwins.bench_micro/1 run with a summary
// block, and no later snapshot may silently drop kernels relative to
// BENCH_baseline.json, except the explicitly retired ones below. Kernel
// names are compared with any dispatch-tier suffix (/scalar, /fast)
// stripped, so a snapshot taken under either tier covers the same families
// as the baseline.
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<fs::path> bench_documents() {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(JWINS_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.ends_with(".json")) {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string strip_tier(std::string name) {
  for (const std::string suffix : {"/fast", "/scalar"}) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return name.substr(0, name.size() - suffix.size());
    }
  }
  return name;
}

// The /fresh rows that timed the allocating twins of the hot-path kernels.
// Those twins were deleted (one API per kernel), so bench_micro no longer
// emits the rows; their /scratch counterparts keep the trajectory.
const std::set<std::string> kRetiredKernels = {
    "dwt_forward/16384/fresh",    "dwt_inverse/16384/fresh",
    "topk/65536/fresh",           "elias_encode/6554/fresh",
    "elias_decode/6554/fresh",    "xor_compress/16384/fresh",
    "xor_decompress/16384/fresh", "payload_encode/16384/fresh",
    "payload_decode/16384/fresh", "partial_average/16384/fresh",
    "message_fanout4/16384/fresh", "qsgd_quantize/16384/fresh",
};

std::set<std::string> kernel_names(const std::string& doc) {
  std::set<std::string> names;
  static const std::regex kName("\"name\":\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), kName);
       it != std::sregex_iterator(); ++it) {
    names.insert(strip_tier((*it)[1].str()));
  }
  return names;
}

TEST(BenchSchema, DocumentsArePresent) {
  const auto docs = bench_documents();
  ASSERT_FALSE(docs.empty()) << "no BENCH_*.json at repo root";
  bool has_baseline = false;
  for (const auto& p : docs) {
    has_baseline |= p.filename() == "BENCH_baseline.json";
  }
  EXPECT_TRUE(has_baseline);
}

TEST(BenchSchema, EveryDocumentIsACompleteRun) {
  for (const auto& path : bench_documents()) {
    SCOPED_TRACE(path.filename().string());
    const std::string doc = slurp(path);
    // Schema id pins the layout; a filtered run is a partial document and
    // must never be checked in as a trajectory point.
    EXPECT_NE(doc.find("\"schema\": \"jwins.bench_micro/1\""),
              std::string::npos)
        << "missing or wrong schema id";
    EXPECT_NE(doc.find("\"filter\": \"\""), std::string::npos)
        << "checked-in bench documents must be unfiltered";
    EXPECT_NE(doc.find("\"summary\""), std::string::npos)
        << "missing summary block";
    EXPECT_NE(doc.find("\"fig5_scratch_allocs_per_op\""), std::string::npos)
        << "summary missing fig5_scratch_allocs_per_op";
    EXPECT_FALSE(kernel_names(doc).empty()) << "no kernels";
  }
}

TEST(BenchSchema, KernelSetNeverShrinksVsBaseline) {
  const fs::path baseline_path =
      fs::path(JWINS_SOURCE_DIR) / "BENCH_baseline.json";
  const std::set<std::string> baseline = kernel_names(slurp(baseline_path));
  ASSERT_FALSE(baseline.empty());
  // The retire list may only name rows the baseline had, so it cannot grow
  // into a way of dropping arbitrary kernels.
  for (const std::string& retired : kRetiredKernels) {
    EXPECT_TRUE(baseline.count(retired))
        << "retired kernel '" << retired << "' not in BENCH_baseline.json";
  }
  for (const auto& path : bench_documents()) {
    if (path.filename() == "BENCH_baseline.json") continue;
    SCOPED_TRACE(path.filename().string());
    const std::set<std::string> names = kernel_names(slurp(path));
    for (const std::string& required : baseline) {
      if (kRetiredKernels.count(required)) continue;
      EXPECT_TRUE(names.count(required))
          << "kernel '" << required
          << "' present in BENCH_baseline.json but missing here";
    }
  }
}

}  // namespace
