// boss_catalog: BOSS flux objects (one region each) plus a metadata-only
// catalog, served with server-side metadata shards.  One pass = an exact,
// a range and an affix meta_query, one get_num_hits per flux object of the
// exact query's sky cell, and one epsilon cross-match of two RADEG columns.
//
// The flux spectra and the two RADEG columns are synthesized before set-up,
// the way workloads::import_boss and import_boss_join_pair draw them
// (Exp(1/8) flux, a sky cell per objects_per_cell objects; RADEG with 1/8
// exact zone edges and 1/8 duplicates), and set-up imports them with
// import_object.  So setup_s holds the imports, not the synthesis.
//
// The flux survey and the metadata-only survey
// (generate_boss_metadata) number cells, plates and fibers the same way,
// so the metadata-only survey is moved clear of the flux survey before it
// is loaded: ids from kCatalogBase, PLATE and FIBER + 10000, RADEG and
// DECDEG + 0.005 (off the flux survey's 0.01-degree grid).  No flux-side
// query can then return an id that has no data object.
#include <cmath>
#include <utility>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "metadata/meta_store.h"
#include "query/query.h"
#include "workloads/boss.h"

namespace perfbench {
namespace {

namespace meta = pdc::meta;

constexpr std::uint32_t kFluxObjects = 8192;
constexpr std::uint32_t kFluxPerCell = 256;
constexpr std::uint32_t kFluxSamples = 2048;
constexpr std::uint32_t kCatalogObjects = 100000;
constexpr std::uint32_t kCatalogPerCell = 1000;
constexpr ObjectId kCatalogBase = 10'000'000;
constexpr std::int64_t kCatalogShift = 10000;
constexpr double kCatalogSkyShift = 0.005;
constexpr std::uint32_t kJoinSources = 8192;
constexpr double kJoinEpsilon = 0.001;
constexpr double kZoneHeight = 0.5;
constexpr double kFluxRate = 1.0 / 8.0;  // boss_flux_quantile's Exp(1/8)
/// Flux selectivities of the per-object queries (paper Fig. 5: 11-65 %).
constexpr double kFluxSelectivity[] = {0.11, 0.35, 0.65};

std::vector<float> read_floats(const pdc::obj::ObjectStore& store,
                               ObjectId id) {
  const auto* desc = unwrap(store.get(id), "get");
  std::vector<float> out(desc->num_elements);
  check_ok(store.read_elements(
               *desc, {0, desc->num_elements},
               {reinterpret_cast<std::uint8_t*>(out.data()),
                out.size() * sizeof(float)},
               {}),
           "read_elements");
  return out;
}

std::vector<double> read_doubles(const pdc::obj::ObjectStore& store,
                                 ObjectId id) {
  const auto* desc = unwrap(store.get(id), "get");
  std::vector<double> out(desc->num_elements);
  check_ok(store.read_elements(
               *desc, {0, desc->num_elements},
               {reinterpret_cast<std::uint8_t*>(out.data()),
                out.size() * sizeof(double)},
               {}),
           "read_elements");
  return out;
}

/// One RADEG column of a cross-match catalog pair: uniform over
/// [10, 350), with ~1/8 of the values on an exact zone edge and ~1/8
/// duplicating an earlier value.
std::vector<double> draw_radeg(pdc::Rng& rng, std::uint32_t n) {
  std::vector<double> ra;
  ra.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.bounded(8);
    double v = rng.uniform(10.0, 350.0);
    if (pick == 0) {
      v = std::floor(v / kZoneHeight) * kZoneHeight;
    } else if (pick == 1 && !ra.empty()) {
      v = ra[rng.bounded(ra.size())];
    }
    ra.push_back(v);
  }
  return ra;
}

std::vector<ObjectId> id_range(ObjectId first, std::uint64_t count) {
  std::vector<ObjectId> ids(count);
  for (std::uint64_t i = 0; i < count; ++i) ids[i] = first + i;
  return ids;
}

}  // namespace

Report run_boss_catalog(const Args& args) {
  namespace wl = pdc::workloads;
  using pdc::QueryOp;
  Report report;

  // Inputs: the flux spectra, the cross-match columns, and the
  // metadata-only survey generated into a staging store.
  const Clock::time_point gen_start = Clock::now();
  pdc::Rng rng(0xB055ULL ^ (args.seed * 0x9E3779B97F4A7C15ULL));
  std::vector<float> spectra(std::size_t{kFluxObjects} * kFluxSamples);
  for (float& f : spectra) f = static_cast<float>(rng.exponential(kFluxRate));
  const std::vector<double> ra_a = draw_radeg(rng, kJoinSources);
  const std::vector<double> ra_b = draw_radeg(rng, kJoinSources);
  meta::MetaStore staging;
  wl::BossMetaConfig catalog_config;
  catalog_config.num_objects = kCatalogObjects;
  catalog_config.objects_per_cell = kCatalogPerCell;
  catalog_config.first_object = 1;
  const auto summary = unwrap(wl::generate_boss_metadata(staging,
                                                         catalog_config),
                              "generate_boss_metadata");
  exclude_from_setup(seconds_since(gen_start));

  ScratchDir dir(args, "boss_catalog");
  pdc::pfs::PfsConfig pfs_config;
  pfs_config.root_dir = dir.path();
  auto cluster = unwrap(pdc::pfs::PfsCluster::Create(pfs_config), "pfs");
  pdc::obj::ObjectStore store(*cluster);
  meta::MetaStore catalog;

  // The flux survey, laid out as workloads::import_boss lays it out: one
  // single-region object per spectrum, one (RADEG, DECDEG) pair and PLATE
  // per sky cell of kFluxPerCell objects, FIBER = position in the cell.
  Clock::time_point t = Clock::now();
  const ObjectId boss = unwrap(store.create_container("boss"),
                               "create_container");
  pdc::obj::ImportOptions flux_options;
  flux_options.region_size_bytes = kFluxSamples * sizeof(float);
  flux_options.histogram.target_bins = 32;
  constexpr std::uint32_t flux_cells = kFluxObjects / kFluxPerCell;
  std::vector<ObjectId> flux_objects;
  for (std::uint32_t i = 0; i < kFluxObjects; ++i) {
    const std::uint32_t cell = i / kFluxPerCell;
    const double radeg =
        std::round((10.0 + 340.0 * cell / flux_cells) * 100.0) / 100.0;
    const double decdeg =
        std::round((-5.0 + 60.0 * cell / flux_cells) * 100.0) / 100.0;
    const ObjectId id = unwrap(
        store.import_object<float>(
            boss, "boss_flux_" + std::to_string(i),
            std::span<const float>(spectra).subspan(
                std::size_t{i} * kFluxSamples, kFluxSamples),
            flux_options),
        "import_object");
    flux_objects.push_back(id);
    catalog.set_attribute(id, "RADEG", radeg);
    catalog.set_attribute(id, "DECDEG", decdeg);
    catalog.set_attribute(id, "PLATE", static_cast<std::int64_t>(3500 + cell));
    catalog.set_attribute(id, "FIBER",
                          static_cast<std::int64_t>(i % kFluxPerCell));
  }
  report.build["build.boss_import_s"] = seconds_since(t);

  t = Clock::now();
  staging.for_each([&](ObjectId id,
                       const std::map<std::string, meta::MetaValue>& attrs) {
    for (const auto& [name, value] : attrs) {
      meta::MetaValue moved = value;
      if (const auto* d = std::get_if<double>(&value)) {
        moved = *d + kCatalogSkyShift;
      } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
        moved = *i + kCatalogShift;
      }
      catalog.set_attribute(kCatalogBase + (id - 1), name, std::move(moved));
    }
  });
  report.build["build.meta_catalog_s"] = seconds_since(t);

  t = Clock::now();
  const ObjectId join_container =
      unwrap(store.create_container("boss_join"), "create_container");
  pdc::obj::ImportOptions join_options;
  join_options.region_size_bytes = 4096;
  join_options.histogram.target_bins = 32;
  const auto import_radeg = [&](const char* name,
                                const std::vector<double>& ra) {
    return unwrap(store.import_object<double>(join_container, name,
                                              std::span<const double>(ra),
                                              join_options),
                  "import_object");
  };
  const ObjectId ra_a_id = import_radeg("boss_ra_a", ra_a);
  const ObjectId ra_b_id = import_radeg("boss_ra_b", ra_b);
  report.build["build.join_import_s"] = seconds_since(t);

  query::ServiceOptions options;
  options.num_servers = server_count();
  options.strategy = pdc::server::Strategy::kHistogram;
  options.eval_threads = 0;
  options.metadata = &catalog;
  t = Clock::now();
  query::QueryService service(std::as_const(store), options);
  report.build["build.service_s"] = seconds_since(t);
  report.setup_s = setup_seconds();

  // Expected answers: flux hit counts from the stored values, join pairs
  // from a sort-and-sweep over the two RADEG columns as stored.
  std::vector<double> thresholds;
  for (const double s : kFluxSelectivity) {
    thresholds.push_back(wl::boss_flux_quantile(s));
  }
  std::vector<std::vector<std::uint64_t>> flux_hits(thresholds.size());
  spectra = {};
  for (const ObjectId id : flux_objects) {
    const std::vector<float> values = read_floats(store, id);
    for (std::size_t k = 0; k < thresholds.size(); ++k) {
      flux_hits[k].push_back(count_below(values, thresholds[k]));
    }
  }
  const std::vector<double> stored_a = read_doubles(store, ra_a_id);
  const std::vector<double> stored_b = read_doubles(store, ra_b_id);
  const std::vector<query::JoinPair> join_pairs =
      sweep_join(stored_a, stored_b, kJoinEpsilon);
  query::JoinSpec join_spec;
  join_spec.left = ra_a_id;
  join_spec.right = ra_b_id;
  join_spec.epsilon = kJoinEpsilon;
  join_spec.zone_height = kZoneHeight;

  const auto verdict = [&](const std::string& what, const std::string& err) {
    if (!err.empty()) report.fail_check(what + ": " + err);
  };
  SeededStream stream(args.seed ^ 0xCA7A1060ULL);

  measure(args, service, report, [&](Pass& pass) {
    const std::uint32_t cell = static_cast<std::uint32_t>(
        stream.below(flux_cells));
    const std::uint32_t j = static_cast<std::uint32_t>(
        stream.below(summary.num_cells - 1));
    const std::size_t k = stream.below(thresholds.size());
    double result_bytes = 0.0;
    const auto run_meta = [&](const char* what,
                              const std::vector<meta::MetaCondition>& conds,
                              const std::vector<ObjectId>& expected) {
      auto ids = pass.op("meta", [&](const query::QueryOptions& o) {
        return service.meta_query(conds, o);
      });
      if (!ids.ok()) return;
      verdict(what, check_ids(expected, *ids));
      result_bytes += static_cast<double>(ids->size() * sizeof(ObjectId));
    };

    // Exact: the flux survey's sky cell.
    const std::uint64_t first = static_cast<std::uint64_t>(cell) *
                                kFluxPerCell;
    const std::vector<ObjectId> cell_ids(
        flux_objects.begin() + static_cast<std::ptrdiff_t>(first),
        flux_objects.begin() +
            static_cast<std::ptrdiff_t>(first + kFluxPerCell));
    const ObjectId probe = cell_ids.front();
    const auto ra = catalog.get_attribute(probe, "RADEG");
    const auto dec = catalog.get_attribute(probe, "DECDEG");
    if (!ra || !dec) die("flux cell coordinates", pdc::Status::NotFound(""));
    run_meta("exact",
             {{"RADEG", QueryOp::kEQ, *ra, meta::MetaMatchKind::kValue},
              {"DECDEG", QueryOp::kEQ, *dec, meta::MetaMatchKind::kValue}},
             cell_ids);
    // Range: two adjacent plates of the metadata-only survey.
    const std::int64_t plate = 3500 + kCatalogShift + j;
    run_meta("range",
             {{"PLATE", QueryOp::kGTE, plate, meta::MetaMatchKind::kValue},
              {"PLATE", QueryOp::kLTE, plate + 1,
               meta::MetaMatchKind::kValue}},
             id_range(kCatalogBase + static_cast<ObjectId>(j) * kCatalogPerCell,
                      2 * kCatalogPerCell));
    // Affix: one cell's RUN strings ("r<j>_*").
    std::string run_prefix = "r";
    run_prefix += std::to_string(j);
    run_prefix += '_';
    run_meta("affix",
             {{"RUN", QueryOp::kEQ, std::move(run_prefix),
               meta::MetaMatchKind::kPrefix}},
             id_range(kCatalogBase + static_cast<ObjectId>(j) * kCatalogPerCell,
                      kCatalogPerCell));

    // One flux query per object of the exact query's cell.
    for (std::uint32_t i = 0; i < kFluxPerCell; ++i) {
      const auto q = query::create(cell_ids[i], QueryOp::kLT, thresholds[k]);
      auto hits = pass.op("object", [&](const query::QueryOptions& o) {
        return service.get_num_hits(q, o);
      });
      if (!hits.ok()) continue;
      verdict("flux object " + std::to_string(cell_ids[i]),
              check_count(flux_hits[k][first + i], *hits));
      result_bytes += sizeof(std::uint64_t);
    }

    auto joined = pass.op("join", [&](const query::QueryOptions& o) {
      return service.join(join_spec, o);
    });
    if (joined.ok()) {
      verdict("join", check_join(stored_a, stored_b, kJoinEpsilon,
                                 join_pairs, joined->pairs));
      result_bytes +=
          static_cast<double>(joined->pairs.size() * sizeof(query::JoinPair));
    }
    pass.add("result_bytes", result_bytes);
  });
  return report;
}

}  // namespace perfbench
