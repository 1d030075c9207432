#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace perfbench {
namespace {

std::string mismatch(const char* what, std::uint64_t expected,
                     std::uint64_t got) {
  return std::string(what) + ": expected " + std::to_string(expected) +
         ", got " + std::to_string(got);
}

bool pair_less(const query::JoinPair& l, const query::JoinPair& r) {
  return l.left_pos != r.left_pos ? l.left_pos < r.left_pos
                                  : l.right_pos < r.right_pos;
}

}  // namespace

std::vector<std::uint64_t> scan_window(std::span<const float> column,
                                       double lo, double hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < column.size(); ++i) {
    const double v = column[i];
    if (v > lo && v < hi) out.push_back(i);
  }
  return out;
}

std::vector<std::uint64_t> scan_compound(std::span<const float> energy,
                                         std::span<const float> x,
                                         std::span<const float> y,
                                         std::span<const float> z,
                                         const CompoundWindow& w) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < energy.size(); ++i) {
    const double e = energy[i], px = x[i], py = y[i], pz = z[i];
    if (e > w.energy_min && px > w.x_lo && px < w.x_hi && py > w.y_lo &&
        py < w.y_hi && pz > w.z_lo && pz < w.z_hi) {
      out.push_back(i);
    }
  }
  return out;
}

std::uint64_t count_below(std::span<const float> values, double threshold) {
  std::uint64_t n = 0;
  for (const float v : values) n += static_cast<double>(v) < threshold;
  return n;
}

std::vector<query::JoinPair> sweep_join(std::span<const double> a,
                                        std::span<const double> b,
                                        double eps) {
  const auto sorted_order = [](std::span<const double> v) {
    std::vector<std::uint64_t> order(v.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::uint64_t l, std::uint64_t r) {
      return v[l] != v[r] ? v[l] < v[r] : l < r;
    });
    return order;
  };
  const std::vector<std::uint64_t> oa = sorted_order(a);
  const std::vector<std::uint64_t> ob = sorted_order(b);
  std::vector<query::JoinPair> out;
  std::size_t first = 0;  // first b (in value order) not below the band
  for (const std::uint64_t i : oa) {
    // The band edges are widened by an ulp so rounding in a - eps cannot
    // skip a partner; the exact test below decides membership.
    const double lo = std::nextafter(a[i] - eps, -INFINITY);
    const double hi = std::nextafter(a[i] + eps, INFINITY);
    while (first < ob.size() && b[ob[first]] < lo) ++first;
    for (std::size_t k = first; k < ob.size() && b[ob[k]] <= hi; ++k) {
      if (std::fabs(a[i] - b[ob[k]]) <= eps) out.push_back({i, ob[k]});
    }
  }
  std::sort(out.begin(), out.end(), pair_less);
  return out;
}

std::string check_positions(std::span<const std::uint64_t> expected,
                            std::span<const std::uint64_t> got) {
  if (expected.size() != got.size()) {
    return mismatch("hit count", expected.size(), got.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (expected[i] != got[i]) {
      return mismatch(("position #" + std::to_string(i)).c_str(), expected[i],
                      got[i]);
    }
  }
  return {};
}

std::string check_values(std::span<const float> column,
                         std::span<const std::uint64_t> positions,
                         std::span<const float> values) {
  if (positions.size() != values.size()) {
    return mismatch("value count", positions.size(), values.size());
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (positions[i] >= column.size() ||
        std::memcmp(&column[positions[i]], &values[i], sizeof(float)) != 0) {
      return "value #" + std::to_string(i) + " at position " +
             std::to_string(positions[i]) + " differs from the column";
    }
  }
  return {};
}

std::string check_count(std::uint64_t expected, std::uint64_t got) {
  return expected == got ? std::string() : mismatch("count", expected, got);
}

std::string check_ids(std::span<const pdc::ObjectId> expected,
                      std::span<const pdc::ObjectId> got) {
  if (!std::is_sorted(got.begin(), got.end()) ||
      std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return "ids not strictly ascending";
  }
  if (expected.size() != got.size()) {
    return mismatch("id count", expected.size(), got.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (expected[i] != got[i]) {
      return mismatch(("id #" + std::to_string(i)).c_str(), expected[i],
                      got[i]);
    }
  }
  return {};
}

std::string check_join(std::span<const double> a, std::span<const double> b,
                       double eps,
                       std::span<const query::JoinPair> expected,
                       std::span<const query::JoinPair> got) {
  for (const query::JoinPair& p : got) {
    if (p.left_pos >= a.size() || p.right_pos >= b.size()) {
      return "pair position out of range";
    }
    if (!(std::fabs(a[p.left_pos] - b[p.right_pos]) <= eps)) {
      return "pair (" + std::to_string(p.left_pos) + ", " +
             std::to_string(p.right_pos) + ") is farther apart than epsilon";
    }
  }
  std::vector<query::JoinPair> sorted(got.begin(), got.end());
  std::sort(sorted.begin(), sorted.end(), pair_less);
  if (sorted.size() != expected.size()) {
    return mismatch("pair count", expected.size(), sorted.size());
  }
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].left_pos != expected[i].left_pos ||
        sorted[i].right_pos != expected[i].right_pos) {
      return "pair #" + std::to_string(i) + " differs from the sweep";
    }
  }
  return {};
}

std::string check_epoch_step(std::uint64_t before, std::uint64_t after) {
  return after == before + 1 ? std::string()
                             : mismatch("data epoch after a write",
                                        before + 1, after);
}

std::string check_histogram_total(std::uint64_t elements,
                                  std::uint64_t total) {
  return elements == total ? std::string()
                           : mismatch("histogram total", elements, total);
}

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  const auto expect = [&](const char* name, const std::string& right,
                          const std::string& perturbed) {
    if (!right.empty()) {
      failures.push_back(std::string(name) + " rejects a right answer: " +
                         right);
    }
    if (perturbed.empty()) {
      failures.push_back(std::string(name) + " accepts a perturbed answer");
    }
  };

  const std::vector<float> column = {2.15f, 1.0f, 2.5f, 2.19f, 3.0f, 2.2f};
  const std::vector<std::uint64_t> window = scan_window(column, 2.1, 2.2);
  std::vector<std::uint64_t> shifted = window;
  shifted.back() += 1;
  std::vector<std::uint64_t> dropped = window;
  dropped.pop_back();
  expect("check_positions (shifted)", check_positions(window, window),
         check_positions(window, shifted));
  expect("check_positions (dropped)", check_positions(window, window),
         check_positions(window, dropped));

  std::vector<float> values;
  for (const std::uint64_t p : window) values.push_back(column[p]);
  std::vector<float> nudged = values;
  nudged.front() = std::nextafter(nudged.front(), 10.0f);
  expect("check_values", check_values(column, window, values),
         check_values(column, window, nudged));

  const std::vector<float> x = {150, 150, 150, 150, 150, 150};
  const std::vector<float> yz = {-5, -5, -5, -5, -5, -5};
  const std::vector<float> z = {5, 5, 5, 5, 5, 5};
  const CompoundWindow w{2.0, 100, 200, -90, 0, 0, 66};
  const std::vector<std::uint64_t> compound =
      scan_compound(column, x, yz, z, w);
  expect("check_count (compound)", check_count(compound.size(), 5),
         check_count(compound.size(), 4));

  const std::vector<float> flux = {1, 5, 9, 13};
  expect("check_count (flux)", check_count(count_below(flux, 9.0), 2),
         check_count(count_below(flux, 9.0), 3));

  const std::vector<pdc::ObjectId> ids = {3, 4, 7, 9};
  const std::vector<pdc::ObjectId> wrong_id = {3, 4, 8, 9};
  const std::vector<pdc::ObjectId> unsorted = {4, 3, 7, 9};
  expect("check_ids (wrong id)", check_ids(ids, ids),
         check_ids(ids, wrong_id));
  expect("check_ids (unsorted)", check_ids(ids, ids),
         check_ids(ids, unsorted));

  const std::vector<double> a = {1.0, 2.0, 2.5, 4.0};
  const std::vector<double> b = {2.05, 1.0, 3.95, 9.0};
  const double eps = 0.1;
  const std::vector<query::JoinPair> pairs = sweep_join(a, b, eps);
  std::vector<query::JoinPair> reversed(pairs.rbegin(), pairs.rend());
  std::vector<query::JoinPair> far = pairs;
  far.push_back({2, 0});  // |2.5 - 2.05| > eps
  std::vector<query::JoinPair> missing = pairs;
  missing.pop_back();
  if (pairs.size() != 3) {
    failures.push_back("sweep_join found " + std::to_string(pairs.size()) +
                       " pairs, expected 3");
  }
  expect("check_join (far pair)", check_join(a, b, eps, pairs, reversed),
         check_join(a, b, eps, pairs, far));
  expect("check_join (missing pair)", check_join(a, b, eps, pairs, pairs),
         check_join(a, b, eps, pairs, missing));

  expect("check_epoch_step", check_epoch_step(7, 8), check_epoch_step(7, 9));
  expect("check_histogram_total", check_histogram_total(1024, 1024),
         check_histogram_total(1024, 1023));
  return failures;
}

}  // namespace perfbench
