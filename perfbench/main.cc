// perfbench: wall-clock benchmark of PDC-Query.
//
//   perfbench --workload <vpic_ladder|vpic_overwrite|boss_catalog>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--results <dir>]
//
// Prints a human-readable summary, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
// same metrics go to <results>/<workload>-seed<n>-trace<t>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "checks.h"

namespace perfbench {
namespace {

const Clock::time_point g_process_start = Clock::now();
constexpr double kWarmupSeconds = 2.0;
double g_excluded_s = 0.0;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<vpic_ladder|vpic_overwrite|boss_catalog> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--results <dir>]\n",
               why.c_str());
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    out += (i ? ", " : "") + json_string(defs[i].name) + ": {\"value\": " +
           json_number(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::uint32_t server_count() {
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

double setup_seconds() {
  return seconds_since(g_process_start) - g_excluded_s;
}

void exclude_from_setup(double seconds) { g_excluded_s += seconds; }

void Report::fail_check(const std::string& what) {
  correct = false;
  if (errors.size() < 10) errors.push_back(what);
}

void Pass::finish(const std::string& cls, Clock::time_point t0,
                  Clock::time_point t1, bool ok) {
  last_seconds_ = std::chrono::duration<double>(t1 - t0).count();
  record_.seconds += last_seconds_;
  ++record_.attempted;
  record_.sums["n." + cls] += 1.0;
  record_.sums["t." + cls] += last_seconds_;
  if (!ok) {
    ++record_.failed;
    return;
  }
  fold_stats(service_.last_stats(), record_.sums);
  if (!traced_) {
    record_.latency[cls].push_back(last_seconds_);
    return;
  }
  const auto trace = service_.last_trace();
  const double cover =
      trace ? fold_trace(*trace, t0, t1, record_.sums) : -1.0;
  if (cover < 0.0) {
    report_.fail_check(cls + ": traced root span lies outside the stopwatch");
    return;
  }
  record_.root_cover.push_back(cover);
  record_.sums["cover.root_s." + cls] += cover * last_seconds_;
  record_.sums["cover.watch_s." + cls] += last_seconds_;
}

void Pass::commit(bool measured) {
  report_.attempted += record_.attempted;
  report_.failed += record_.failed;
  if (!measured) return;
  (traced_ ? report_.traced : report_.plain).push_back(std::move(record_));
  record_ = {};
}

void measure(const Args& args, query::QueryService& service, Report& report,
             const std::function<void(Pass&)>& pass_fn) {
  // Untimed warm-up: whole passes for kWarmupSeconds (at least one), so
  // caches fill before timing.  On the 4-vCPU reference host, passes in
  // the first 1-2 s after set-up also ran up to 1.5x slower whatever the
  // workload; a sleep of that length instead of the warm-up removed the
  // slow phase as well, so it is the host's, not the program's.
  const Clock::time_point warm_start = Clock::now();
  do {
    Pass warm(service, report, false);
    pass_fn(warm);
    warm.commit(false);
  } while (seconds_since(warm_start) < kWarmupSeconds);
  const auto run_phase = [&](bool traced, double budget) {
    const Clock::time_point t0 = Clock::now();
    do {
      Pass pass(service, report, traced);
      pass_fn(pass);
      pass.commit(true);
    } while (seconds_since(t0) < budget);
  };
  if (!args.trace) {
    run_phase(false, args.seconds);
    return;
  }
  run_phase(false, args.seconds / 2.0);
  const Sums before = scrape_counters(service);
  run_phase(true, args.seconds / 2.0);
  // The root spans of each operation class must cover most of the time
  // the stopwatch saw for it.  This is checked per class, not per
  // operation: a ~40 us operation preempted outside its root span for a
  // few hundred us reads low on its own, about once in 20,000 operations
  // on the 4-vCPU reference host.
  Sums root_s, watch_s;
  for (const PassRecord& p : report.traced) {
    for (const auto& [key, value] : p.sums) {
      if (key.starts_with("cover.root_s.")) root_s[key.substr(13)] += value;
      if (key.starts_with("cover.watch_s.")) watch_s[key.substr(14)] += value;
    }
  }
  for (const auto& [cls, watched] : watch_s) {
    const double cover = watched > 0.0 ? root_s[cls] / watched : 1.0;
    if (cover < 0.5) {
      report.fail_check(cls + ": traced root spans cover only " +
                        std::to_string(cover * 100.0) +
                        "% of the stopwatch");
    }
  }
  report.counters = scrape_counters(service);
  for (auto& [key, value] : report.counters) {
    const auto it = before.find(key);
    if (it != before.end()) value -= it->second;
  }
}

ScratchDir::ScratchDir(const Args& args, const std::string& name) {
  path_ = std::filesystem::absolute(args.scratch).string() + "/" + name +
          "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", path_.c_str(),
                 ec.message().c_str());
    std::exit(3);
  }
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void die(const std::string& what, const pdc::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string results = ".bench_build/results";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--results") {
      results = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");

  Report (*run)(const Args&) = nullptr;
  if (args.workload == "vpic_ladder") {
    run = run_vpic_ladder;
  } else if (args.workload == "vpic_overwrite") {
    run = run_vpic_overwrite;
  } else if (args.workload == "boss_catalog") {
    run = run_boss_catalog;
  } else {
    usage("unknown workload " + args.workload);
  }

  // The checks' self-test runs first in every run: a check that accepts a
  // perturbed answer makes the run incorrect.
  const Clock::time_point self_test_start = Clock::now();
  const std::vector<std::string> self_test_failures = self_test();
  exclude_from_setup(seconds_since(self_test_start));

  Report report = run(args);
  for (const std::string& f : self_test_failures) {
    report.fail_check("self-test: " + f);
  }

  const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
  const auto values =
      args.trace ? per_layer_values(report) : end_to_end_values(report);

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("self-test: %zu checks failed to behave\n",
              self_test_failures.size());
  std::printf("passes: %zu untraced, %zu traced; ops attempted %llu, "
              "failed %llu\n",
              report.plain.size(), report.traced.size(),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::vector<double> pass_ms;
  for (const PassRecord& p : report.plain) pass_ms.push_back(p.seconds * 1e3);
  std::printf("untraced pass ms: q1 %.3f  median %.3f  q3 %.3f\n",
              quantile(pass_ms, 0.25), median(pass_ms),
              quantile(pass_ms, 0.75));
  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const auto all_layers = per_layer_values(report);
  const auto all_e2e = end_to_end_values(report);
  for (const MetricDef& d : end_to_end_metrics()) {
    std::printf("  %-30s %16.6f %s\n", d.name, all_e2e.at(d.name), d.unit);
  }
  for (const MetricDef& d : per_layer_metrics()) {
    const double v = all_layers.at(d.name);
    if (v != 0.0) std::printf("  %-30s %16.6f %s\n", d.name, v, d.unit);
  }

  std::ostringstream line;
  line << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed
       << ", \"metrics\": " << metrics_json(defs, values) << "}";

  std::error_code ec;
  std::filesystem::create_directories(results, ec);
  const std::string out_path = results + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + "-trace" +
                               (args.trace ? "1" : "0") + ".json";
  {
    std::ofstream out(out_path);
    out << "{\"end_to_end\": " << metrics_json(end_to_end_metrics(), all_e2e)
        << ", \"per_layer\": "
        << metrics_json(per_layer_metrics(), all_layers) << "}\n";
  }
  std::printf("metrics file: %s\n", out_path.c_str());
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
