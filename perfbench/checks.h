// Answer checks made apart from the program, and the oracles behind them.
//
// Every check returns an empty string when the answer is right and a
// description of the first mismatch otherwise.  self_test() feeds each
// check a right answer and a perturbed one and reports any check that
// accepts the perturbed answer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "query/service.h"

namespace perfbench {

namespace query = pdc::query;

// ---- oracles (element-wise scans of the arrays the benchmark holds) ----
/// Positions p with lo < column[p] < hi, ascending.
std::vector<std::uint64_t> scan_window(std::span<const float> column,
                                       double lo, double hi);
/// One compound condition: energy > energy_min and each coordinate inside
/// its open window.
struct CompoundWindow {
  double energy_min = 0.0;
  double x_lo = 0.0, x_hi = 0.0;
  double y_lo = 0.0, y_hi = 0.0;
  double z_lo = 0.0, z_hi = 0.0;
};
std::vector<std::uint64_t> scan_compound(std::span<const float> energy,
                                         std::span<const float> x,
                                         std::span<const float> y,
                                         std::span<const float> z,
                                         const CompoundWindow& w);
/// Number of values v < threshold.
std::uint64_t count_below(std::span<const float> values, double threshold);
/// All (i, j) with |a[i] - b[j]| <= eps, found by sorting both columns
/// and sweeping; sorted by (left_pos, right_pos).
std::vector<query::JoinPair> sweep_join(std::span<const double> a,
                                        std::span<const double> b,
                                        double eps);

// ---- checks ----
std::string check_positions(std::span<const std::uint64_t> expected,
                            std::span<const std::uint64_t> got);
/// values[i] must equal column[positions[i]] bit for bit.
std::string check_values(std::span<const float> column,
                         std::span<const std::uint64_t> positions,
                         std::span<const float> values);
std::string check_count(std::uint64_t expected, std::uint64_t got);
/// `got` must be ascending and equal `expected` (ascending).
std::string check_ids(std::span<const pdc::ObjectId> expected,
                      std::span<const pdc::ObjectId> got);
/// `got` must hold exactly the pairs of `expected` (any order), and every
/// pair must satisfy |a - b| <= eps.
std::string check_join(std::span<const double> a, std::span<const double> b,
                       double eps,
                       std::span<const query::JoinPair> expected,
                       std::span<const query::JoinPair> got);
/// An acknowledged write raises the data epoch by exactly one.
std::string check_epoch_step(std::uint64_t before, std::uint64_t after);
/// The global histogram counts every element exactly once.
std::string check_histogram_total(std::uint64_t elements,
                                  std::uint64_t total);

/// Run every check on a right and a perturbed answer; returns the
/// failures (empty = every check accepts the right answer and rejects the
/// perturbed one).
std::vector<std::string> self_test();

}  // namespace perfbench
