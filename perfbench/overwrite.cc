// vpic_overwrite: one float column (VPIC energy, 2^20 elements) with its
// bitmap index and sorted replica, served by a writable deployment under
// PDC-SH (sorted replica + histogram).  One pass = 4 rounds of one
// 64-element overwrite followed by 9 random range queries (10 % writes).
// Reads use the replica and merge its delta log; writes keep the
// histograms, the delta-WAH sidecar (compacting at the default threshold)
// and the replica delta log up to date.
//
// The replica rebuild threshold keeps its default (4096 log entries), so
// the write that fills the delta log, one in 64, also rebuilds the replica:
// one pass in 16.  The median pass leaves those passes out; their extra
// time is reported apart, as write.replica_rebuild_ms.
#include <algorithm>

#include "bench.h"
#include "checks.h"
#include "query/query.h"
#include "sortrep/sorted_replica.h"
#include "workloads/vpic.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kElements = 1ull << 20;
constexpr std::uint64_t kRegionElements = 4096;
constexpr std::uint64_t kRegionBytes = kRegionElements * sizeof(float);
constexpr std::uint64_t kWriteElements = 64;
constexpr std::uint64_t kWritesPerPass = 4;
constexpr std::uint64_t kReadsPerWrite = 9;

}  // namespace

Report run_vpic_overwrite(const Args& args) {
  namespace wl = pdc::workloads;
  using pdc::QueryOp;
  Report report;

  const Clock::time_point gen_start = Clock::now();
  wl::VpicConfig config;
  config.num_particles = kElements;
  config.seed = 0x0B5E55EDULL ^ (args.seed * 0x9E3779B97F4A7C15ULL);
  const std::vector<float> original = wl::generate_vpic(config).energy;
  std::vector<float> shadow = original;  // the column as it should be now
  exclude_from_setup(seconds_since(gen_start));

  ScratchDir dir(args, "vpic_overwrite");
  pdc::pfs::PfsConfig pfs_config;
  pfs_config.root_dir = dir.path();
  auto cluster = unwrap(pdc::pfs::PfsCluster::Create(pfs_config), "pfs");
  pdc::obj::ObjectStore store(*cluster);

  Clock::time_point t = Clock::now();
  pdc::obj::ImportOptions import_options;
  import_options.region_size_bytes = kRegionBytes;
  const ObjectId container =
      unwrap(store.create_container("vpic"), "create_container");
  const ObjectId column = unwrap(
      store.import_object<float>(container, "Energy",
                                 std::span<const float>(original),
                                 import_options),
      "import_object");
  report.build["build.import_s"] = seconds_since(t);

  t = Clock::now();
  check_ok(store.build_bitmap_index(column), "build_bitmap_index");
  report.build["build.bitmap_index_s"] = seconds_since(t);

  t = Clock::now();
  (void)unwrap(pdc::sortrep::build_sorted_replica(store, column),
               "build_sorted_replica");
  report.build["build.sorted_replica_s"] = seconds_since(t);

  query::ServiceOptions options;
  options.num_servers = server_count();
  options.strategy = pdc::server::Strategy::kSortedHistogram;
  options.eval_threads = 0;
  t = Clock::now();
  query::QueryService service(store, options);
  report.build["build.service_s"] = seconds_since(t);
  report.setup_s = setup_seconds();

  std::uint64_t epoch = unwrap(store.get(column), "get")->data_epoch;
  double rebuilds = scrape_counters(service)["write.replica_rebuilds"];
  SeededStream stream(args.seed ^ 0x5EEDF00DULL);
  std::vector<float> payload(kWriteElements);
  const auto verdict = [&](const std::string& what, const std::string& err) {
    if (!err.empty()) report.fail_check(what + ": " + err);
  };

  measure(args, service, report, [&](Pass& pass) {
    // Distinct blocks for this pass's writes.
    std::vector<std::uint64_t> blocks;
    while (blocks.size() < kWritesPerPass) {
      const std::uint64_t b = stream.below(kElements / kWriteElements);
      if (std::find(blocks.begin(), blocks.end(), b) == blocks.end()) {
        blocks.push_back(b);
      }
    }
    double result_bytes = 0.0;
    for (const std::uint64_t block : blocks) {
      // Each new value lies strictly between two distinct values of the
      // block's own region, so it falls inside the region's bitmap bins
      // (not on its min or max) and the delta sidecar absorbs the write.
      const pdc::Extent1D extent{block * kWriteElements, kWriteElements};
      const std::uint64_t region_start =
          extent.offset / kRegionElements * kRegionElements;
      for (float& v : payload) {
        do {
          const float a = shadow[region_start + stream.below(kRegionElements)];
          const float b = shadow[region_start + stream.below(kRegionElements)];
          v = static_cast<float>(0.5 * (static_cast<double>(a) + b));
          if (v != a && v != b) break;
        } while (true);
      }
      auto written = pass.op("write", [&](const query::QueryOptions& o) {
        return service.overwrite(
            column, extent,
            {reinterpret_cast<const std::uint8_t*>(payload.data()),
             payload.size() * sizeof(float)},
            o);
      });
      if (written.ok()) {
        std::copy(payload.begin(), payload.end(),
                  shadow.begin() + static_cast<std::ptrdiff_t>(extent.offset));
        verdict("write", check_epoch_step(epoch, written->data_epoch));
        if (written->duplicate) report.fail_check("write acknowledged as a duplicate");
        epoch = written->data_epoch;
        pass.add("write.compacted", written->compacted ? 1.0 : 0.0);
        auto histogram = service.get_histogram(column);
        if (!histogram.ok()) {
          report.fail_check("get_histogram: " + histogram.status().ToString());
        } else {
          verdict("histogram",
                  check_histogram_total(kElements, histogram->total_count()));
        }
      }
      for (std::uint64_t r = 0; r < kReadsPerWrite; ++r) {
        const double lo = original[stream.below(kElements)];
        const double hi = lo + stream.uniform(0.002, 0.02);
        const auto q = query::q_and(query::create(column, QueryOp::kGT, lo),
                                    query::create(column, QueryOp::kLT, hi));
        auto selection = pass.op("read", [&](const query::QueryOptions& o) {
          return service.get_selection(q, o);
        });
        if (!selection.ok()) continue;
        verdict("read", check_positions(scan_window(shadow, lo, hi),
                                        selection->positions));
        result_bytes += static_cast<double>(selection->positions.size() *
                                            sizeof(std::uint64_t));
      }
    }
    pass.add("result_bytes", result_bytes);
    const double now = scrape_counters(service)["write.replica_rebuilds"];
    pass.add("write.rebuilds", now - rebuilds);
    rebuilds = now;
  });
  return report;
}

}  // namespace perfbench
