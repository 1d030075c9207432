// vpic_ladder: read-only VPIC columns under PDC-A (adaptive per-region
// scan / index / all-hit).  One pass = the paper's 15 energy windows, each
// get_selection + get_data, then its 6 compound Energy+x/y/z queries.
#include <utility>

#include "bench.h"
#include "checks.h"
#include "query/query.h"
#include "workloads/vpic.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kParticles = 1ull << 22;
constexpr std::uint64_t kRegionBytes = 256 * 1024;

}  // namespace

Report run_vpic_ladder(const Args& args) {
  namespace wl = pdc::workloads;
  using pdc::QueryOp;
  Report report;

  // Inputs: the benchmark's own work, not part of set-up.
  const Clock::time_point gen_start = Clock::now();
  wl::VpicConfig config;
  config.num_particles = kParticles;
  config.seed = 0x7591C0DEULL ^ (args.seed * 0x9E3779B97F4A7C15ULL);
  const wl::VpicData data = wl::generate_vpic(config);
  exclude_from_setup(seconds_since(gen_start));

  // Set-up: empty store -> ready service.
  ScratchDir dir(args, "vpic_ladder");
  pdc::pfs::PfsConfig pfs_config;
  pfs_config.root_dir = dir.path();
  auto cluster = unwrap(pdc::pfs::PfsCluster::Create(pfs_config), "pfs");
  pdc::obj::ObjectStore store(*cluster);

  Clock::time_point t = Clock::now();
  pdc::obj::ImportOptions import_options;
  import_options.region_size_bytes = kRegionBytes;
  const ObjectId container =
      unwrap(store.create_container("vpic"), "create_container");
  const auto import = [&](const char* name, const std::vector<float>& v) {
    return unwrap(store.import_object<float>(container, name,
                                             std::span<const float>(v),
                                             import_options),
                  "import_object");
  };
  const ObjectId energy = import("Energy", data.energy);
  const ObjectId x = import("x", data.x);
  const ObjectId y = import("y", data.y);
  const ObjectId z = import("z", data.z);
  report.build["build.import_s"] = seconds_since(t);

  t = Clock::now();
  for (const ObjectId id : {energy, x, y, z}) {
    check_ok(store.build_bitmap_index(id), "build_bitmap_index");
  }
  report.build["build.bitmap_index_s"] = seconds_since(t);

  query::ServiceOptions options;
  options.num_servers = server_count();
  options.strategy = pdc::server::Strategy::kAdaptive;
  options.eval_threads = 0;
  t = Clock::now();
  query::QueryService service(std::as_const(store), options);
  report.build["build.service_s"] = seconds_since(t);
  report.setup_s = setup_seconds();

  // Expected answers, by element-wise scans of the generated arrays.
  const auto windows = wl::vpic_single_queries();
  const auto compounds = wl::vpic_multi_queries();
  std::vector<std::vector<std::uint64_t>> window_hits;
  for (const auto& w : windows) {
    window_hits.push_back(scan_window(data.energy, w.lo, w.hi));
  }
  std::vector<std::vector<std::uint64_t>> compound_hits;
  std::vector<query::QueryPtr> compound_queries;
  for (const auto& m : compounds) {
    compound_hits.push_back(scan_compound(
        data.energy, data.x, data.y, data.z,
        {m.energy_min, m.x_lo, m.x_hi, m.y_lo, m.y_hi, m.z_lo, m.z_hi}));
    const auto window = [](ObjectId id, double lo, double hi) {
      return query::q_and(query::create(id, QueryOp::kGT, lo),
                          query::create(id, QueryOp::kLT, hi));
    };
    compound_queries.push_back(query::q_and(
        query::q_and(query::create(energy, QueryOp::kGT, m.energy_min),
                     window(x, m.x_lo, m.x_hi)),
        query::q_and(window(y, m.y_lo, m.y_hi), window(z, m.z_lo, m.z_hi))));
  }
  std::vector<query::QueryPtr> window_queries;
  for (const auto& w : windows) {
    window_queries.push_back(
        query::q_and(query::create(energy, QueryOp::kGT, w.lo),
                     query::create(energy, QueryOp::kLT, w.hi)));
  }

  const auto verdict = [&](const std::string& what, const std::string& err) {
    if (!err.empty()) report.fail_check(what + ": " + err);
  };
  std::vector<float> values;
  measure(args, service, report, [&](Pass& pass) {
    double range_s = 0.0, getdata_s = 0.0, compound_s = 0.0;
    double result_bytes = 0.0, getdata_bytes = 0.0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      auto selection = pass.op("range", [&](const query::QueryOptions& o) {
        return service.get_selection(window_queries[i], o);
      });
      range_s += pass.last_seconds();
      if (!selection.ok()) continue;
      const std::string what = "window " + std::to_string(i);
      verdict(what, check_positions(window_hits[i], selection->positions));
      values.assign(selection->num_hits, 0.0f);
      const pdc::Status fetched =
          pass.op("get_data", [&](const query::QueryOptions& o) {
            return service.get_data<float>(energy, *selection,
                                           std::span<float>(values),
                                           query::GetDataMode::kAuto, o);
          });
      range_s += pass.last_seconds();
      getdata_s += pass.last_seconds();
      if (!fetched.ok()) continue;
      verdict(what + " values",
              check_values(data.energy, selection->positions, values));
      getdata_bytes += static_cast<double>(values.size() * sizeof(float));
      result_bytes += static_cast<double>(
          selection->positions.size() * sizeof(std::uint64_t) +
          values.size() * sizeof(float));
    }
    for (std::size_t i = 0; i < compounds.size(); ++i) {
      auto selection = pass.op("compound", [&](const query::QueryOptions& o) {
        return service.get_selection(compound_queries[i], o);
      });
      compound_s += pass.last_seconds();
      if (!selection.ok()) continue;
      verdict("compound " + std::to_string(i),
              check_positions(compound_hits[i], selection->positions));
      result_bytes += static_cast<double>(selection->positions.size() *
                                          sizeof(std::uint64_t));
    }
    pass.stage("range", range_s);
    pass.stage("getdata", getdata_s);
    pass.stage("compound", compound_s);
    pass.add("getdata_bytes", getdata_bytes);
    pass.add("result_bytes", result_bytes);
  });
  return report;
}

}  // namespace perfbench
