// Mmap-serving benchmark: startup cost of the copying loaders
// (`PrototypeStore::LoadBinary` + `Laesa::Load`) versus the zero-copy
// mapped loaders (`PrototypeStore::Map` + `Laesa::Map`) on a fig3-style
// dictionary snapshot, plus the first-query latency each freshly started
// "process" then pays.
//
// Contracts checked:
//   * the mapped index answers every probe query with bit-identical
//     neighbours, distances and QueryStats to the built and the
//     copy-loaded index;
//   * Map() startup is at least 10x faster than the copying Load() — the
//     table and arena sections are used in place, so the map path does
//     O(prototypes) validation instead of O(pivots x prototypes) copying;
//   * snapshot_shrink_ok — the f16 index snapshot is at least 2x smaller
//     than the f64 one (the quantized-table storage win,
//     search/table_quant.h), and the quantized mapped index answers probes
//     bit-identically to the index built at the same precision.
//
// The probe index (the one loaded and mapped above) is built at
// `DefaultTablePrecision()`, so `CNED_TABLE_PRECISION=u8` runs the identity
// check over the quantized sections. The size comparison and the section
// breakdown always use an f64 reference build. The 10x startup contract is
// defined for the f64 table, whose O(pivots x N) copy dominates Load; at a
// quantized probe precision the copy shrinks with the table, so
// map_speedup_ok is still reported but does not set the exit status.
//
// The JSON also breaks the f64 snapshot into its sections (pivot table vs
// string arena vs bookkeeping, computed from the format layout) and lists
// the index file size at every table precision.
//
// Human-readable progress goes to stderr; a single JSON object goes to
// stdout (CI greps the contract booleans).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/table_quant.h"

namespace cned {
namespace {

std::size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::size_t>(in.tellg()) : 0;
}

bool ProbesIdentical(const Laesa& a, const Laesa& b,
                     const std::vector<std::string>& queries) {
  for (const auto& q : queries) {
    QueryStats sa, sb;
    const NeighborResult ra = a.Nearest(q, &sa);
    const NeighborResult rb = b.Nearest(q, &sb);
    if (ra.index != rb.index || ra.distance != rb.distance || !(sa == sb)) {
      return false;
    }
  }
  return true;
}

int Run() {
  std::ostream& log = std::cerr;
  const auto pool =
      static_cast<std::size_t>(Config::ScaledInt("MML_POOL", 6000));
  const auto pivots =
      static_cast<std::size_t>(Config::ScaledInt("MML_PIVOTS", 64));
  const auto num_queries =
      static_cast<std::size_t>(Config::ScaledInt("MML_QUERIES", 40));
  const int reps = static_cast<int>(Config::Int("MML_REPS", 9));

  log << "micro_mmap_load: copy Load() vs zero-copy Map() startup "
         "(scale=" << Config::Scale() << ")\n";

  Dataset dict = bench::MakeDictionary(pool, Config::Seed());
  Rng rng(Config::Seed() + 83);
  const auto queries =
      MakeQueries(dict.strings, num_queries, 2, Alphabet::Latin(), rng);

  auto dist = MakeDistance("dE");
  PrototypeStore store(dict.strings);
  Laesa built(store, dist, pivots);
  const std::string store_path = "micro_mmap_store.bin";
  const std::string index_path = "micro_mmap_index.bin";
  store.SaveBinary(store_path);
  built.Save(index_path);
  const std::size_t store_bytes = FileBytes(store_path);
  const std::size_t index_bytes = FileBytes(index_path);
  const TablePrecision probe_precision = built.table_precision();
  log << "  " << store.size() << " prototypes, " << pivots
      << " pivots, " << TablePrecisionName(probe_precision)
      << " table; snapshot " << store_bytes << " + " << index_bytes
      << " bytes\n";

  const double inf = std::numeric_limits<double>::infinity();
  double copy_load = inf, map_load = inf;
  double copy_first_query = inf, map_first_query = inf;
  bool identical = true;

  // Best-of-N so both paths are measured against a warm page cache — the
  // honest comparison, since the copy path reads through the same cache.
  for (int rep = 0; rep < reps; ++rep) {
    {
      Stopwatch w;
      PrototypeStore served_store = PrototypeStore::LoadBinary(store_path);
      Laesa served = Laesa::Load(index_path, served_store, dist);
      const double t = w.Seconds();
      if (t < copy_load) copy_load = t;
      Stopwatch wq;
      (void)served.Nearest(queries.front());
      const double tq = wq.Seconds();
      if (tq < copy_first_query) copy_first_query = tq;
      identical = identical && ProbesIdentical(built, served, queries);
    }
    {
      Stopwatch w;
      PrototypeStore served_store = PrototypeStore::Map(store_path);
      Laesa served = Laesa::Map(index_path, served_store, dist);
      const double t = w.Seconds();
      if (t < map_load) map_load = t;
      Stopwatch wq;
      (void)served.Nearest(queries.front());
      const double tq = wq.Seconds();
      if (tq < map_first_query) map_first_query = tq;
      identical = identical && ProbesIdentical(built, served, queries);
    }
  }

  // Quantized snapshots: size at every precision, plus a probe-identity
  // check that the mapped quantized index serves exactly what the
  // same-precision build computes.
  constexpr TablePrecision kPrecisions[] = {
      TablePrecision::kF64, TablePrecision::kF32, TablePrecision::kF16,
      TablePrecision::kU8};
  std::vector<std::pair<std::string, std::size_t>> precision_bytes;
  std::size_t f64_bytes = 0, f16_bytes = 0;
  bool quantized_identical = true;
  for (TablePrecision prec : kPrecisions) {
    std::size_t bytes = index_bytes;
    if (prec != probe_precision) {
      Laesa quantized(store, dist, pivots, prec);
      const std::string qpath =
          "micro_mmap_index_" + std::string(TablePrecisionName(prec)) + ".bin";
      quantized.Save(qpath);
      bytes = FileBytes(qpath);
      Laesa mapped = Laesa::Map(qpath, store, dist);
      quantized_identical =
          quantized_identical && ProbesIdentical(quantized, mapped, queries);
      std::remove(qpath.c_str());
    }
    if (prec == TablePrecision::kF64) f64_bytes = bytes;
    if (prec == TablePrecision::kF16) f16_bytes = bytes;
    precision_bytes.emplace_back(TablePrecisionName(prec), bytes);
    log << "  index at " << TablePrecisionName(prec) << ": " << bytes
        << " bytes\n";
  }
  const bool snapshot_shrink_ok =
      f16_bytes > 0 && f64_bytes >= 2 * f16_bytes && quantized_identical;
  log << "  f64 -> f16 snapshot shrink: "
      << (f16_bytes > 0 ? static_cast<double>(f64_bytes) /
                              static_cast<double>(f16_bytes)
                        : 0.0)
      << "x (" << (snapshot_shrink_ok ? "ok" : "BELOW 2x or probes diverged")
      << ")\n";

  // Per-section byte accounting of the f64 snapshot, from the format
  // layout: the pivot table dominates the index file, the character arena
  // the store file; the rest (headers, pivot ids, lengths/offsets,
  // alignment, CRC footers) is bookkeeping.
  const std::size_t n = store.size();
  const std::size_t table_bytes = pivots * n * sizeof(double);
  const std::size_t index_bookkeeping_bytes = f64_bytes - table_bytes;
  std::size_t arena_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) arena_bytes += store.view(i).size();
  const std::size_t store_bookkeeping_bytes = store_bytes - arena_bytes;
  log << "  f64 sections: table " << table_bytes << " B, arena "
      << arena_bytes << " B, bookkeeping "
      << (index_bookkeeping_bytes + store_bookkeeping_bytes) << " B\n";

  const double speedup = map_load > 0.0 ? copy_load / map_load : inf;
  const bool speedup_ok = speedup >= 10.0;
  log << "  copy load " << copy_load * 1e3 << " ms, map load "
      << map_load * 1e3 << " ms, startup speedup " << speedup << "x ("
      << (speedup_ok ? "ok" : "BELOW 10x") << ")\n"
      << "  first query: copy " << copy_first_query * 1e6 << " us, map "
      << map_first_query * 1e6 << " us\n"
      << "  identical results: " << (identical ? "yes" : "NO") << "\n";

  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_mmap_load\",\n"
            << "  \"prototypes\": " << store.size() << ",\n"
            << "  \"pivots\": " << pivots << ",\n"
            << "  \"table_precision\": \""
            << TablePrecisionName(probe_precision) << "\",\n"
            << "  \"store_bytes\": " << store_bytes << ",\n"
            << "  \"index_bytes\": " << index_bytes << ",\n"
            << "  \"sections\": {\"table_bytes\": " << table_bytes
            << ", \"arena_bytes\": " << arena_bytes
            << ", \"index_bookkeeping_bytes\": " << index_bookkeeping_bytes
            << ", \"store_bookkeeping_bytes\": " << store_bookkeeping_bytes
            << "},\n"
            << "  \"index_bytes_by_precision\": {";
  for (std::size_t i = 0; i < precision_bytes.size(); ++i) {
    std::cout << "\"" << precision_bytes[i].first
              << "\": " << precision_bytes[i].second
              << (i + 1 < precision_bytes.size() ? ", " : "");
  }
  std::cout << "},\n"
            << "  \"snapshot_shrink_ok\": "
            << (snapshot_shrink_ok ? "true" : "false") << ",\n";
  std::cout
            << "  \"copy_load_seconds\": " << copy_load << ",\n"
            << "  \"map_load_seconds\": " << map_load << ",\n"
            << "  \"load_speedup\": " << speedup << ",\n"
            << "  \"copy_first_query_seconds\": " << copy_first_query << ",\n"
            << "  \"map_first_query_seconds\": " << map_first_query << ",\n"
            << "  \"identical_results\": " << (identical ? "true" : "false")
            << ",\n"
            << "  \"map_speedup_ok\": " << (speedup_ok ? "true" : "false")
            << "\n}\n";

  std::remove(store_path.c_str());
  std::remove(index_path.c_str());
  const bool speedup_gated = probe_precision == TablePrecision::kF64;
  return identical && (speedup_ok || !speedup_gated) && snapshot_shrink_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace cned

int main() { return cned::Run(); }
