// JWINS parameter ranking (paper §III-A): model changes are transformed to
// the wavelet-frequency domain and accumulated into an importance score
// vector V. TopK on |V| picks the coefficients to share.
//
// The ablation variants map onto two switches:
//  * use_wavelet = false  -> identity transform (scores live in the raw
//    parameter domain; this is "JWINS without wavelet" ~= TopK).
//  * use_accumulation = false -> V is cleared every round, so only the
//    current round's change ranks parameters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/arena.hpp"
#include "dwt/dwt.hpp"

namespace jwins::core {

class WaveletRanker {
 public:
  struct Options {
    std::string wavelet = "sym2";
    std::size_t levels = 4;  ///< the paper's four-level decomposition
    bool use_wavelet = true;
    bool use_accumulation = true;
  };

  WaveletRanker(std::size_t model_size, Options options);

  /// Length of the transform-domain vector (== model_size for identity).
  std::size_t coeff_length() const noexcept;

  /// Transforms a model vector into the ranking domain: writes into
  /// `coeffs` (size coeff_length()), all temporaries in `ws`.
  void transform_into(std::span<const float> model, std::span<float> coeffs,
                      dwt::DwtWorkspace& ws) const;

  /// Inverse transform back to the parameter domain: writes into `model`
  /// (size model_size), all temporaries in `ws`.
  void inverse_into(std::span<const float> coeffs, std::span<float> model,
                    dwt::DwtWorkspace& ws) const;

  /// Eq. (3): V' = V + T(x_after - x_before). The delta and coefficient
  /// temporaries come from `arena`/`ws`. Returns a view of the updated
  /// scores (valid until the next call).
  std::span<const float> accumulate_round_change(std::span<const float> before,
                                                 std::span<const float> after,
                                                 Arena& arena,
                                                 dwt::DwtWorkspace& ws);

  /// Post-averaging bookkeeping, eq. (4): folds the model change caused by
  /// averaging into V, then resets the entries that were sent this round.
  /// Temporaries as accumulate_round_change.
  void finish_round(std::span<const float> pre_average,
                    std::span<const float> post_average,
                    std::span<const std::uint32_t> sent_indices, Arena& arena,
                    dwt::DwtWorkspace& ws);

  std::span<const float> scores() const noexcept { return scores_; }

  /// Number of wavelet bands: levels()+1 (a_L, d_L..d_1), or 1 for the
  /// identity transform.
  std::size_t band_count() const noexcept;

  /// Band owning transform-domain index `i` (0 = coarsest approximation).
  std::size_t band_of(std::size_t coeff_index) const;

  const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  std::size_t model_size_;
  std::optional<dwt::DwtPlan> plan_;  // nullopt when use_wavelet == false
  std::vector<float> scores_;         // the accumulation vector V
};

}  // namespace jwins::core
