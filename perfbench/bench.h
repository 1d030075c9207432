// Wall-clock benchmark of PDC-Query: shared harness.
//
// Every workload is a closed loop: one client thread, one outstanding
// operation.  A workload builds its deployment once (the timed set-up),
// runs untimed warm-up passes whose answers are checked against the
// benchmark's own oracles, and then runs whole passes until the requested
// run length is used up.  Each pass is a fixed list of operations; the
// time of a pass is the sum of its operations' stopwatch intervals, so the
// answer checks between operations never count.
//
// With tracing on, the second half of the run traces every operation and
// folds each span tree into per-layer sums (see layers.cc).  Each traced
// root span must lie inside the stopwatch interval of its call, and per
// operation class the root spans must cover at least half of the
// stopwatch time.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/service.h"
#include "server/wire.h"

namespace perfbench {

namespace query = pdc::query;
using pdc::ObjectId;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
};

/// Query servers of every deployment: min(4, nproc).
[[nodiscard]] std::uint32_t server_count();

/// Per-pass sums: op counts ("n.<class>") and stopwatch seconds
/// ("t.<class>") by operation class, stage times ("stage.<name>_s"),
/// OpStats counters, and with tracing the per-layer span sums.
using Sums = std::map<std::string, double>;

struct PassRecord {
  double seconds = 0.0;  ///< sum of the pass's operation intervals
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Sums sums;
  /// Per-op latency samples by operation class, seconds.
  std::map<std::string, std::vector<double>> latency;
  std::vector<double> root_cover;  ///< traced root span / stopwatch
};

/// Result of a whole run of one workload.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few check failures
  double setup_s = 0.0;
  Sums build;                       ///< build.* seconds
  std::vector<PassRecord> plain;    ///< untraced passes
  std::vector<PassRecord> traced;   ///< traced passes (trace runs only)
  /// Deployment counters (scrape_counters) gained over the traced
  /// passes.
  Sums counters;

  void fail_check(const std::string& what);
};

/// One pass in flight: times operations and folds their stats.
class Pass {
 public:
  Pass(query::QueryService& service, Report& report, bool traced)
      : service_(service), report_(report), traced_(traced) {}

  [[nodiscard]] pdc::query::QueryOptions options() const {
    return {.trace = traced_};
  }

  /// Run `fn` (one service call) under the stopwatch, as an operation of
  /// class `cls`.  Counts it; a non-OK outcome counts as failed.  Returns
  /// whatever `fn` returned.
  template <typename F>
  auto op(const std::string& cls, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    auto result = fn(options());
    const Clock::time_point t1 = Clock::now();
    finish(cls, t0, t1, result_ok(result));
    return result;
  }

  /// Add `seconds` of the current pass to stage `name`.
  void stage(const std::string& name, double seconds) {
    record_.sums["stage." + name + "_s"] += seconds;
  }
  void add(const std::string& key, double value) { record_.sums[key] += value; }

  /// Stopwatch interval of the last operation, seconds.
  [[nodiscard]] double last_seconds() const { return last_seconds_; }
  /// Hand the finished pass to the report: its operations always count as
  /// attempted (and failed); a measured pass also keeps its timings.
  void commit(bool measured);

 private:
  static bool result_ok(const pdc::Status& s) { return s.ok(); }
  template <typename T>
  static bool result_ok(const pdc::Result<T>& r) {
    return r.ok();
  }
  void finish(const std::string& cls, Clock::time_point t0,
              Clock::time_point t1, bool ok);

  query::QueryService& service_;
  Report& report_;
  bool traced_ = false;
  double last_seconds_ = 0.0;
  PassRecord record_;
};

/// Run `pass_fn` in whole passes for args.seconds: untraced for the whole
/// run, or with args.trace untraced for the first half and traced for the
/// second.
void measure(const Args& args, query::QueryService& service, Report& report,
             const std::function<void(Pass&)>& pass_fn);

// ------------------------------------------------------------ layers.cc
/// Fold one traced operation's span tree into `sums`; returns the root
/// span's share of the stopwatch interval [t0, t1], or a negative value
/// when the root does not lie inside it.
double fold_trace(const pdc::obs::Trace& trace, Clock::time_point t0,
                  Clock::time_point t1, Sums& sums);
/// Fold one operation's OpStats into `sums`.
void fold_stats(const query::OpStats& stats, Sums& sums);
/// Cumulative deployment counters (pfs, write path) scraped over
/// the service's kMetrics RPC.
Sums scrape_counters(query::QueryService& service);

// ------------------------------------------------------------ metrics
struct MetricDef {
  const char* name;
  const char* unit;
};
/// End-to-end metrics (every workload reports each of them).
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics (every workload reports each; 0 = layer unused).
const std::vector<MetricDef>& per_layer_metrics();
/// Compute the metric values of a finished run.
std::map<std::string, double> end_to_end_values(const Report& report);
std::map<std::string, double> per_layer_values(const Report& report);

// ------------------------------------------------------------ statistics
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

// ------------------------------------------------------------ workloads
Report run_vpic_ladder(const Args& args);
Report run_vpic_overwrite(const Args& args);
Report run_boss_catalog(const Args& args);

/// Set-up time so far: wall time since process start, less the intervals
/// handed to exclude_from_setup (input generation, self-test).
[[nodiscard]] double setup_seconds();
void exclude_from_setup(double seconds);

/// Private PFS root for one run; removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const Args& args, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The benchmark's own deterministic random stream (splitmix64), so inputs
/// depend on --seed alone.
class SeededStream {
 public:
  explicit SeededStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Abort the run with a message (set-up failures: no result is printed).
[[noreturn]] void die(const std::string& what, const pdc::Status& status);

template <typename T>
T unwrap(pdc::Result<T> r, const char* what) {
  if (!r.ok()) die(what, r.status());
  return std::move(r).value();
}
inline void check_ok(const pdc::Status& s, const char* what) {
  if (!s.ok()) die(what, s);
}

}  // namespace perfbench
