// Live-mutability benchmark: per-query cost of the mutable tier
// (search/mutable_laesa.h) in its three lives — the frozen base alone, the
// working state with a live delta segment + tombstones in front of the
// base, and the post-merge state where the background compaction has
// folded everything back into one segment.
//
// Contracts checked:
//   * mutable_exact — after inserting ~MMU_INSERT_PCT% new prototypes and
//     removing ~MMU_REMOVE_PCT% of the live set, every probe query answers
//     with the exact brute-force distance profile over the live set, only
//     live ids, and no removed id ever surfaces; the same holds again
//     after the merge (CI greps this boolean).
//
// The JSON reports p50 Nearest latency for each state plus the insert and
// merge costs, so the delta/tombstone overhead and its reclamation are
// visible side by side.
//
// Human-readable progress goes to stderr; a single JSON object goes to
// stdout.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datasets/perturb.h"
#include "distances/registry.h"
#include "search/mutable_laesa.h"
#include "search/nn_searcher.h"

namespace cned {
namespace {

double MedianSeconds(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

/// p50 of per-query Nearest latency over the probe set.
double MeasureP50(const MutableLaesa& index,
                  const std::vector<std::string>& queries) {
  std::vector<double> samples;
  samples.reserve(queries.size());
  for (const auto& q : queries) {
    Stopwatch w;
    (void)index.Nearest(q);
    samples.push_back(w.Seconds());
  }
  return MedianSeconds(samples);
}

/// Exactness vs brute force over the live map: distance profile rank for
/// rank (well-defined under ties), live ids only, true distances.
bool ProbesExact(const MutableLaesa& index,
                 const std::map<std::uint64_t, std::string>& live,
                 const StringDistance& dist,
                 const std::vector<std::string>& queries, std::size_t k) {
  for (const auto& q : queries) {
    std::vector<NeighborResult> want;
    want.reserve(live.size());
    for (const auto& [id, s] : live) {
      want.push_back({static_cast<std::size_t>(id), dist.Distance(q, s)});
    }
    std::sort(want.begin(), want.end(), NeighborLess);
    if (want.size() > k) want.resize(k);
    const auto got = index.KNearest(q, k);
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].distance != want[i].distance) return false;
      const auto it = live.find(got[i].index);
      if (it == live.end()) return false;  // dead or unknown id surfaced
      if (got[i].distance != dist.Distance(q, it->second)) return false;
    }
  }
  return true;
}

int Run() {
  std::ostream& log = std::cerr;
  const auto pool =
      static_cast<std::size_t>(Config::ScaledInt("MMU_POOL", 4000));
  const auto pivots =
      static_cast<std::size_t>(Config::ScaledInt("MMU_PIVOTS", 32));
  const auto num_queries =
      static_cast<std::size_t>(Config::ScaledInt("MMU_QUERIES", 60));
  const auto insert_pct =
      static_cast<std::size_t>(Config::Int("MMU_INSERT_PCT", 5));
  const auto remove_pct =
      static_cast<std::size_t>(Config::Int("MMU_REMOVE_PCT", 2));

  log << "micro_mutable: delta/tombstone overhead vs frozen base "
         "(scale=" << Config::Scale() << ")\n";

  Dataset dict = bench::MakeDictionary(pool, Config::Seed());
  Rng rng(Config::Seed() + 97);
  const auto queries =
      MakeQueries(dict.strings, num_queries, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dE");

  MutableLaesa::Options opt;
  opt.num_pivots = pivots;
  MutableLaesa index(dict.strings, dist, opt);
  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < dict.strings.size(); ++i) {
    live[i] = dict.strings[i];
  }

  // Warm, then measure the frozen base (no delta, no tombstones).
  (void)index.Nearest(queries.front());
  const double p50_frozen = MeasureP50(index, queries);
  log << "  frozen base: " << index.size() << " prototypes, p50 "
      << p50_frozen * 1e6 << " us\n";

  // Mutate: ~insert_pct% fresh perturbed entries, ~remove_pct% removals
  // spread over base and delta.
  const std::size_t inserts = dict.strings.size() * insert_pct / 100;
  const std::size_t removes = dict.strings.size() * remove_pct / 100;
  Stopwatch insert_watch;
  for (std::size_t i = 0; i < inserts; ++i) {
    const std::string s =
        dict.strings[rng.Index(dict.strings.size())] + std::to_string(i);
    live[index.Insert(s)] = s;
  }
  const double insert_seconds = insert_watch.Seconds();
  for (std::size_t i = 0; i < removes && live.size() > 1; ++i) {
    auto it = live.begin();
    std::advance(it, rng.Index(live.size()));
    if (index.Remove(it->first)) live.erase(it);
  }
  log << "  mutated: +" << inserts << " in " << insert_seconds * 1e3
      << " ms / -" << removes << ", delta " << index.delta_size()
      << ", tombstones " << index.tombstone_count() << "\n";

  const double p50_live = MeasureP50(index, queries);
  bool exact = ProbesExact(index, live, *dist, queries, 3);
  log << "  live delta: p50 " << p50_live * 1e6 << " us, exact "
      << (exact ? "yes" : "NO") << "\n";

  // Fold the delta + tombstones back into one segment and re-measure.
  Stopwatch merge_watch;
  const bool merged = index.MergeNow();
  const double merge_seconds = merge_watch.Seconds();
  const double p50_merged = MeasureP50(index, queries);
  exact = exact && merged && index.delta_size() == 0 &&
          index.tombstone_count() == 0 &&
          ProbesExact(index, live, *dist, queries, 3);
  log << "  merged: " << merge_seconds * 1e3 << " ms, p50 "
      << p50_merged * 1e6 << " us, exact " << (exact ? "yes" : "NO") << "\n";

  const double overhead =
      p50_frozen > 0.0 ? p50_live / p50_frozen : 0.0;

  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_mutable\",\n"
            << "  \"prototypes\": " << dict.strings.size() << ",\n"
            << "  \"pivots\": " << pivots << ",\n"
            << "  \"inserted\": " << inserts << ",\n"
            << "  \"insert_seconds\": " << insert_seconds << ",\n"
            << "  \"removed\": " << removes << ",\n"
            << "  \"live\": " << live.size() << ",\n"
            << "  \"p50_frozen_seconds\": " << p50_frozen << ",\n"
            << "  \"p50_live_seconds\": " << p50_live << ",\n"
            << "  \"p50_merged_seconds\": " << p50_merged << ",\n"
            << "  \"live_over_frozen\": " << overhead << ",\n"
            << "  \"merge_seconds\": " << merge_seconds << ",\n"
            << "  \"mutable_exact\": " << (exact ? "true" : "false")
            << "\n}\n";
  return exact ? 0 : 1;
}

}  // namespace
}  // namespace cned

int main() { return cned::Run(); }
