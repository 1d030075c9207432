// Per-layer attribution: span trees and OpStats folded into per-pass sums,
// and the metric tables every workload reports.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bench.h"

namespace perfbench {
namespace {

using pdc::obs::Span;
using pdc::obs::SpanId;

/// Spans reported by self time: their duration minus the union of their
/// children's intervals.
constexpr const char* kSelfSpans[] = {
    "client.plan",      "client.merge", "client.get_data", "client.meta_merge",
    "client.join",      "server.handle", "server.eval",
};

/// Spans reported by inclusive time (nested spans of the same name are
/// counted once, at the outermost).
bool inclusive_span(const std::string& name) {
  return name == "server.queue" || name == "pfs.read" ||
         name == "server.transfer_write" || name == "server.meta_query" ||
         name == "server.join_eval" || name.starts_with("phase.");
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                    std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::uint64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += static_cast<double>(e - s);
      cursor = e;
    }
  }
  return total;
}

std::uint64_t to_us_floor(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          t.time_since_epoch())
          .count());
}

double duration(const Span& s) {
  return static_cast<double>(s.end_us - s.start_us);
}

}  // namespace

double fold_trace(const pdc::obs::Trace& trace, Clock::time_point t0,
                  Clock::time_point t1, Sums& sums) {
  const std::vector<Span>& spans = trace.spans;
  std::unordered_map<SpanId, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  const Span* root = nullptr;
  std::size_t roots = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (spans[i].parent == 0 || it == index.end()) {
      root = &spans[i];
      ++roots;
    } else {
      children[it->second].push_back(i);
    }
  }
  const auto ancestor_named = [&](std::size_t i, const std::string& name)
      -> const Span* {
    for (SpanId p = spans[i].parent; p != 0;) {
      const auto it = index.find(p);
      if (it == index.end()) return nullptr;
      if (spans[it->second].name == name) return &spans[it->second];
      p = spans[it->second].parent;
    }
    return nullptr;
  };

  // rpc.gather self time: the gather's interval not covered by the
  // server-side spans (queue wait + handling) of its requests, i.e. the
  // client's encode/transport/decode and the wait on the slowest reply.
  std::unordered_map<const Span*, std::vector<std::pair<std::uint64_t,
                                                        std::uint64_t>>>
      gather_cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    for (const char* name : kSelfSpans) {
      if (s.name != name) continue;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const std::size_t c : children[i]) {
        iv.emplace_back(spans[c].start_us, spans[c].end_us);
      }
      sums[s.name + ".self_us"] +=
          duration(s) - union_length(std::move(iv), s.start_us, s.end_us);
    }
    if (inclusive_span(s.name) && ancestor_named(i, s.name) == nullptr) {
      sums[s.name + ".us"] += duration(s);
    }
    if (s.name == "server.queue" || s.name == "server.handle") {
      if (const Span* gather = ancestor_named(i, "rpc.gather")) {
        gather_cover[gather].emplace_back(s.start_us, s.end_us);
      }
    }
  }
  for (const Span& s : spans) {
    if (s.name != "rpc.gather") continue;
    auto it = gather_cover.find(&s);
    const double covered =
        it == gather_cover.end()
            ? 0.0
            : union_length(std::move(it->second), s.start_us, s.end_us);
    sums["rpc.gather.self_us"] += duration(s) - covered;
  }

  if (roots != 1 || root == nullptr) return -1.0;
  // The stopwatch is read independently of the tracer; compare in whole
  // microseconds, rounding the stopwatch interval outwards.
  const std::uint64_t lo = to_us_floor(t0);
  const std::uint64_t hi = to_us_floor(t1) + 1;
  if (root->start_us < lo || root->end_us > hi || root->end_us < root->start_us) {
    return -1.0;
  }
  const double watch_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  return watch_us > 0.0 ? std::min(1.0, duration(*root) / watch_us) : 1.0;
}

void fold_stats(const query::OpStats& st, Sums& sums) {
  const auto add = [&](const char* key, double v) { sums[key] += v; };
  add("stat.sim_s", st.sim_elapsed_seconds);
  add("stat.request_bytes", static_cast<double>(st.request_bytes));
  add("stat.response_bytes", static_cast<double>(st.response_bytes));
  add("stat.regions_scanned", static_cast<double>(st.regions_scanned));
  add("stat.regions_indexed", static_cast<double>(st.regions_indexed));
  add("stat.regions_allhit", static_cast<double>(st.regions_allhit));
  add("stat.regions_stale", static_cast<double>(st.regions_stale));
  add("stat.meta_probes", static_cast<double>(st.meta_probes));
  add("stat.meta_vnodes_queried", static_cast<double>(st.meta_vnodes_queried));
  add("stat.shuffle_bytes", static_cast<double>(st.shuffle_bytes));
  add("stat.shuffle_msgs", static_cast<double>(st.shuffle_msgs));
  add("stat.join_candidates_left",
      static_cast<double>(st.join_candidates_left));
  add("stat.join_candidates_right",
      static_cast<double>(st.join_candidates_right));
}

Sums scrape_counters(query::QueryService& service) {
  Sums out;
  auto snapshot = service.scrape_metrics();
  if (!snapshot.ok()) die("scrape_metrics", snapshot.status());
  for (const pdc::obs::MetricSample& s : snapshot->samples) {
    const std::string_view name = s.name;
    if (name == "pfs.read_ops" || name == "pfs.bytes_read") {
      out[s.name] = s.value;
    } else if (name.ends_with(".replica_rebuilds")) {
      out["write.replica_rebuilds"] += s.value;
    }
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"pass_ms", "ms"},
      {"class_geomean_ms", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // query (client)
      {"client.plan.self_us", "us/pass"},
      {"client.merge.self_us", "us/pass"},
      {"client.get_data.self_us", "us/pass"},
      {"client.meta_merge.self_us", "us/pass"},
      {"client.join.self_us", "us/pass"},
      // rpc
      {"rpc.gather.self_us", "us/pass"},
      {"server.queue.us", "us/pass"},
      {"rpc.request_bytes", "B/op"},
      {"rpc.response_bytes", "B/op"},
      // server region pipeline
      {"server.handle.self_us", "us/pass"},
      {"server.eval.self_us", "us/pass"},
      {"phase.histogram_prune.us", "us/pass"},
      {"phase.bin_decode.us", "us/pass"},
      {"phase.candidate_check.us", "us/pass"},
      {"phase.region_scan.us", "us/pass"},
      {"phase.sorted_boundary.us", "us/pass"},
      {"phase.restrict.us", "us/pass"},
      {"phase.adaptive_plan.us", "us/pass"},
      {"regions_scanned", "count/pass"},
      {"regions_indexed", "count/pass"},
      {"regions_allhit", "count/pass"},
      // pfs
      {"pfs.read.us", "us/pass"},
      {"pfs.read_ops", "count/pass"},
      {"pfs.bytes_read", "B/pass"},
      {"pfs.bytes_per_result_byte", "ratio"},
      // obj write path
      {"server.transfer_write.us", "us/pass"},
      {"write.compactions_per_write", "1/write"},
      {"write.replica_rebuilds", "count/pass"},
      {"write.replica_rebuild_ms", "ms"},
      {"regions_stale", "1/read"},
      // build layers (set-up)
      {"build.import_s", "s"},
      {"build.bitmap_index_s", "s"},
      {"build.sorted_replica_s", "s"},
      {"build.boss_import_s", "s"},
      {"build.meta_catalog_s", "s"},
      {"build.join_import_s", "s"},
      {"build.service_s", "s"},
      // metadata
      {"server.meta_query.us", "us/pass"},
      {"meta_probes", "1/query"},
      {"meta_vnodes_queried", "1/query"},
      // exchange / join
      {"server.join_eval.us", "us/pass"},
      {"shuffle_bytes", "B/join"},
      {"shuffle_msgs", "1/join"},
      {"join_candidates_left", "1/join"},
      {"join_candidates_right", "1/join"},
      // tracing
      {"trace.overhead_pct", "%"},
      {"trace.root_cover_pct", "%"},
      // operation classes, from the untraced passes of a traced run
      {"class.range_pass_ms", "ms"},
      {"class.compound_pass_ms", "ms"},
      {"class.getdata_mb_s", "MB/s"},
      {"class.overwrite_p50_ms", "ms"},
      {"class.mixed_read_p50_ms", "ms"},
      {"class.meta_query_p50_us", "us"},
      {"class.object_query_p50_us", "us"},
      {"class.object_query_p99_us", "us"},
      {"class.xmatch_ms", "ms"},
      {"class.ops_per_s", "op/s"},
      // the cost model's simulated time for the same operations
      {"model.sim_pass_ms", "ms"},
  };
  return defs;
}

namespace {

double total(const std::vector<PassRecord>& passes, const std::string& key) {
  double sum = 0.0;
  for (const PassRecord& p : passes) {
    const auto it = p.sums.find(key);
    if (it != p.sums.end()) sum += it->second;
  }
  return sum;
}

double per_pass_median(const std::vector<PassRecord>& passes,
                       const std::string& key) {
  std::vector<double> v;
  for (const PassRecord& p : passes) {
    const auto it = p.sums.find(key);
    v.push_back(it == p.sums.end() ? 0.0 : it->second);
  }
  return median(v);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> latencies(const std::vector<PassRecord>& passes,
                              const std::string& cls) {
  std::vector<double> v;
  for (const PassRecord& p : passes) {
    const auto it = p.latency.find(cls);
    if (it != p.latency.end()) v.insert(v.end(), it->second.begin(),
                                        it->second.end());
  }
  return v;
}

std::vector<double> pass_seconds(const std::vector<PassRecord>& passes) {
  std::vector<double> v;
  for (const PassRecord& p : passes) v.push_back(p.seconds);
  return v;
}

/// Geometric mean, over the operation classes the passes ran, of each
/// class's median stopwatch time per pass.  Every class weighs the same
/// however short it is: a class that gets k times slower moves the value
/// by k^(1/classes).
double class_geomean(const std::vector<PassRecord>& passes) {
  std::vector<std::string> classes;
  for (const PassRecord& p : passes) {
    for (const auto& [key, value] : p.sums) {
      if (key.starts_with("t.") &&
          std::find(classes.begin(), classes.end(), key) == classes.end()) {
        classes.push_back(key);
      }
    }
  }
  double log_sum = 0.0;
  for (const std::string& key : classes) {
    log_sum += std::log(per_pass_median(passes, key));
  }
  return classes.empty() ? 0.0
                         : std::exp(log_sum / static_cast<double>(
                                                  classes.size()));
}

/// Extra time of each pass whose writes rebuilt the sorted replica over
/// the median pass that rebuilt nothing, in the same set of passes.
std::vector<double> rebuild_extra(const std::vector<PassRecord>& passes) {
  std::vector<double> with, without;
  for (const PassRecord& p : passes) {
    const auto it = p.sums.find("write.rebuilds");
    (it != p.sums.end() && it->second > 0.0 ? with : without)
        .push_back(p.seconds);
  }
  std::vector<double> extra;
  if (without.empty()) return extra;
  const double base = median(without);
  for (const double s : with) extra.push_back(s - base);
  return extra;
}

}  // namespace

std::map<std::string, double> end_to_end_values(const Report& report) {
  return {
      {"setup_s", report.setup_s},
      {"pass_ms", median(pass_seconds(report.plain)) * 1e3},
      {"class_geomean_ms", class_geomean(report.plain) * 1e3},
  };
}

std::map<std::string, double> per_layer_values(const Report& report) {
  const std::vector<PassRecord>& tr =
      report.traced.empty() ? report.plain : report.traced;
  const std::vector<PassRecord>& plain = report.plain;
  const double passes = static_cast<double>(tr.size());
  double ops = 0.0;
  for (const PassRecord& p : tr) ops += static_cast<double>(p.attempted);
  const auto counter = [&](const char* key) {
    const auto it = report.counters.find(key);
    return it == report.counters.end() ? 0.0 : it->second;
  };

  std::map<std::string, double> v;
  for (const MetricDef& d : per_layer_metrics()) v[d.name] = 0.0;
  for (const char* key :
       {"client.plan.self_us", "client.merge.self_us",
        "client.get_data.self_us", "client.meta_merge.self_us",
        "client.join.self_us", "rpc.gather.self_us", "server.queue.us",
        "server.handle.self_us", "server.eval.self_us",
        "phase.histogram_prune.us", "phase.bin_decode.us",
        "phase.candidate_check.us", "phase.region_scan.us",
        "phase.sorted_boundary.us", "phase.restrict.us",
        "phase.adaptive_plan.us", "pfs.read.us", "server.transfer_write.us",
        "server.meta_query.us", "server.join_eval.us"}) {
    v[key] = per_pass_median(tr, key);
  }
  v["rpc.request_bytes"] = ratio(total(tr, "stat.request_bytes"), ops);
  v["rpc.response_bytes"] = ratio(total(tr, "stat.response_bytes"), ops);
  for (const char* key :
       {"regions_scanned", "regions_indexed", "regions_allhit"}) {
    v[key] = per_pass_median(tr, std::string("stat.") + key);
  }
  v["pfs.read_ops"] = ratio(counter("pfs.read_ops"), passes);
  v["pfs.bytes_read"] = ratio(counter("pfs.bytes_read"), passes);
  v["pfs.bytes_per_result_byte"] =
      ratio(counter("pfs.bytes_read"), total(tr, "result_bytes"));
  const double writes = total(tr, "n.write");
  v["write.compactions_per_write"] = ratio(total(tr, "write.compacted"),
                                           writes);
  v["write.replica_rebuilds"] = ratio(counter("write.replica_rebuilds"),
                                      passes);
  std::vector<double> rebuilds = rebuild_extra(plain);
  const std::vector<double> traced_rebuilds = rebuild_extra(report.traced);
  rebuilds.insert(rebuilds.end(), traced_rebuilds.begin(),
                  traced_rebuilds.end());
  v["write.replica_rebuild_ms"] = median(rebuilds) * 1e3;
  v["regions_stale"] = ratio(total(tr, "stat.regions_stale"), ops - writes);
  for (const auto& [key, seconds] : report.build) v[key] = seconds;
  const double metas = total(tr, "n.meta");
  v["meta_probes"] = ratio(total(tr, "stat.meta_probes"), metas);
  v["meta_vnodes_queried"] = ratio(total(tr, "stat.meta_vnodes_queried"),
                                   metas);
  const double joins = total(tr, "n.join");
  for (const char* key : {"shuffle_bytes", "shuffle_msgs",
                          "join_candidates_left", "join_candidates_right"}) {
    v[key] = ratio(total(tr, std::string("stat.") + key), joins);
  }

  if (!report.traced.empty() && !plain.empty()) {
    v["trace.overhead_pct"] =
        (ratio(median(pass_seconds(report.traced)),
               median(pass_seconds(plain))) - 1.0) * 100.0;
  }
  std::vector<double> covers;
  for (const PassRecord& p : report.traced) {
    covers.insert(covers.end(), p.root_cover.begin(), p.root_cover.end());
  }
  v["trace.root_cover_pct"] = median(covers) * 100.0;

  v["class.range_pass_ms"] = per_pass_median(plain, "stage.range_s") * 1e3;
  v["class.compound_pass_ms"] =
      per_pass_median(plain, "stage.compound_s") * 1e3;
  v["class.getdata_mb_s"] = ratio(total(plain, "getdata_bytes"),
                                  total(plain, "stage.getdata_s")) / 1e6;
  v["class.overwrite_p50_ms"] = median(latencies(plain, "write")) * 1e3;
  v["class.mixed_read_p50_ms"] = median(latencies(plain, "read")) * 1e3;
  v["class.meta_query_p50_us"] = median(latencies(plain, "meta")) * 1e6;
  const std::vector<double> objects = latencies(plain, "object");
  v["class.object_query_p50_us"] = median(objects) * 1e6;
  // A tail needs at least ten samples beyond it.
  if (objects.size() >= 1000) {
    v["class.object_query_p99_us"] = quantile(objects, 0.99) * 1e6;
  }
  v["class.xmatch_ms"] = median(latencies(plain, "join")) * 1e3;
  double plain_ops = 0.0, plain_seconds = 0.0;
  for (const PassRecord& p : plain) {
    plain_ops += static_cast<double>(p.attempted);
    plain_seconds += p.seconds;
  }
  v["class.ops_per_s"] = ratio(plain_ops, plain_seconds);
  v["model.sim_pass_ms"] = per_pass_median(plain, "stat.sim_s") * 1e3;
  return v;
}

}  // namespace perfbench
