// Bounded-kernel engine benchmark, for both contextual kernels — exact dC
// and the heuristic dC,h: (1) raw kernel throughput with and without a
// caller bound (DP cells counted for dC), plus the share of bounded dC
// calls on dictionary-word pairs that the d_E gate rejects before any
// DP cell is written, and the same gate in front of dC,h on digit-contour
// pairs: its rejected share and its time per call; (2) end-to-end LAESA
// nearest-neighbour queries with the bound-passing engine versus an adapter
// that ignores bounds (the pre-engine baseline) — same pivots, same
// elimination trajectory, so any delta is pure kernel work. dC runs on the
// dictionary workload, dC,h on digit contours (the paper's Fig. 4 setting).
// Results must be identical; wall time and DP cells must not be. (3) Max-min
// pivot selection with bounded evaluations versus the same adapter; the
// selected pivot sequences must be identical.
//
// Human-readable progress goes to stderr; a single JSON object for the perf
// trajectory goes to stdout. The exit code is non-zero unless both LAESA
// comparisons report identical results, the pivot sequences match, the
// dC,h gate's rejections match an independent d_E, and the prepared d_E
// gate (`ContextualGate`) decides every call as the unprepared gate does.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/contextual.h"
#include "core/contextual_heuristic.h"
#include "datasets/perturb.h"
#include "distances/levenshtein.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/pivot_selection.h"
#include "search/sweep_kernel.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

/// Baseline adapter: forwards `Distance` but *ignores* the bound, restoring
/// the pre-engine behaviour where every evaluation runs to completion.
class UnboundedAdapter final : public StringDistance {
 public:
  explicit UnboundedAdapter(StringDistancePtr inner)
      : inner_(std::move(inner)) {}
  double Distance(std::string_view x, std::string_view y) const override {
    return inner_->Distance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double) const override {
    return inner_->Distance(x, y);
  }
  std::string name() const override { return inner_->name() + "(unbounded)"; }
  bool is_metric() const override { return inner_->is_metric(); }

 private:
  StringDistancePtr inner_;
};

struct KernelRun {
  double seconds = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t abandons = 0;
};

// Times `kernel(x, y, bound)` over `pairs`: unbounded when `bound_factor` is
// 0, otherwise at `bound_factor` times the true value (an index incumbent).
template <typename Kernel>
KernelRun RunPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    double bound_factor, Kernel kernel) {
  const double inf = std::numeric_limits<double>::infinity();
  KernelRun run;
  ResetContextualCellsEvaluated();
  Stopwatch w;
  for (const auto& [x, y] : pairs) {
    if (bound_factor <= 0.0) {
      (void)kernel(x, y, inf);
    } else {
      const double exact = kernel(x, y, inf);
      const double d = kernel(x, y, exact * bound_factor);
      if (d >= exact * bound_factor) ++run.abandons;
    }
  }
  run.seconds = w.Seconds();
  run.cells = ContextualCellsEvaluated();
  return run;
}

double DetailedDC(const std::string& x, const std::string& y, double bound) {
  return ContextualDistanceDetailed(x, y, bound).distance;
}

double DetailedDCH(const std::string& x, const std::string& y, double bound) {
  return ContextualHeuristicDetailed(x, y, bound).distance;
}

// Bounded dC calls at a fixed bound, timed, with the calls the d_E
// gate rejected counted apart: those return >= bound having written
// no DP cell.
struct PrefilterRun {
  double unbounded_s = 0.0, bounded_s = 0.0;
  std::uint64_t abandons = 0, rejected = 0;
};

PrefilterRun RunPrefilter(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    double bound) {
  PrefilterRun run;
  Stopwatch w_unbounded;
  for (const auto& [x, y] : pairs) (void)ContextualDistance(x, y);
  run.unbounded_s = w_unbounded.Seconds();
  Stopwatch w_bounded;
  for (const auto& [x, y] : pairs) {
    const std::uint64_t cells = ContextualCellsEvaluated();
    if (ContextualDistanceDetailed(x, y, bound).distance >= bound) {
      ++run.abandons;
      if (ContextualCellsEvaluated() == cells) ++run.rejected;
    }
  }
  run.bounded_s = w_bounded.Seconds();
  return run;
}

// Bounded dC,h calls at a fixed bound. The gate (`ContextualEditLengthGate`)
// runs its bit-parallel check when the edit-length cap K is below max(m, n)
// and rejects the calls with d_E > K before any DP cell is written. Each
// pair's expected decision comes from an independent d_E; the gate alone is
// timed over all pairs, and its decision must match on every one.
struct GateRun {
  double unbounded_s = 0.0, bounded_s = 0.0, gate_s = 0.0;
  std::uint64_t gated = 0, rejected = 0, abandons = 0;
  bool agrees = true;
};

GateRun RunHeuristicGate(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    double bound) {
  GateRun run;
  HarmonicTable& h = ThreadLocalHarmonic();
  std::vector<char> expect_reject(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto& [x, y] = pairs[p];
    const std::optional<std::size_t> cap =
        ContextualEditLengthCap(x.size(), y.size(), bound, h);
    const bool gated = cap && *cap < std::max(x.size(), y.size());
    const bool beyond = gated && LevenshteinDistance(x, y) > *cap;
    run.gated += gated;
    run.rejected += beyond;
    expect_reject[p] = !cap || beyond;
  }
  Stopwatch w_unbounded;
  for (const auto& [x, y] : pairs) (void)ContextualHeuristicDistance(x, y);
  run.unbounded_s = w_unbounded.Seconds();
  Stopwatch w_bounded;
  for (const auto& [x, y] : pairs) {
    if (ContextualHeuristicDetailed(x, y, bound).distance >= bound) {
      ++run.abandons;
    }
  }
  run.bounded_s = w_bounded.Seconds();
  Stopwatch w_gate;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const bool rejects =
        !ContextualEditLengthGate(pairs[p].first, pairs[p].second, bound, h);
    if (rejects != static_cast<bool>(expect_reject[p])) run.agrees = false;
  }
  run.gate_s = w_gate.Seconds();
  return run;
}

// The d_E gate two ways, every query against every candidate at one bound,
// as a sweep's visits run it: unprepared (`ContextualEditLengthGate`, a cap
// search and a match table per call) and prepared (`ContextualGate`, the
// query's match table and caps kept). Every prepared decision must equal
// the unprepared one.
struct GateForms {
  std::uint64_t calls = 0;
  double unprepared_s = 0.0, prepared_s = 0.0;
  bool agrees = true;
};

GateForms RunGateForms(const std::vector<std::string>& queries,
                       const std::vector<std::string>& candidates,
                       double bound) {
  GateForms run;
  HarmonicTable& h = ThreadLocalHarmonic();
  std::vector<std::optional<std::size_t>> want;
  want.reserve(queries.size() * candidates.size());
  Stopwatch w_unprepared;
  for (const std::string& q : queries) {
    for (const std::string& c : candidates) {
      want.push_back(ContextualEditLengthGate(q, c, bound, h));
    }
  }
  run.unprepared_s = w_unprepared.Seconds();
  run.calls = want.size();
  std::size_t i = 0;
  Stopwatch w_prepared;
  for (const std::string& q : queries) {
    ContextualGate gate(q);
    for (const std::string& c : candidates) {
      run.agrees &= gate(c, bound) == want[i++];
    }
  }
  run.prepared_s = w_prepared.Seconds();
  return run;
}

// Max-min pivot selection with the bounded kernel and through an adapter
// that ignores bounds; the two sequences must be identical.
struct PivotComparison {
  double baseline_s = 0.0, bounded_s = 0.0;
  bool identical = false;
};

PivotComparison ComparePivots(const std::vector<std::string>& prototypes,
                              const StringDistancePtr& distance,
                              std::size_t pivots) {
  const PrototypeStore store(prototypes);
  const UnboundedAdapter baseline(distance);
  PivotComparison c;
  Stopwatch w_baseline;
  const auto want = SelectPivotsMaxMin(store, baseline, pivots);
  c.baseline_s = w_baseline.Seconds();
  Stopwatch w_bounded;
  const auto got = SelectPivotsMaxMin(store, *distance, pivots);
  c.bounded_s = w_bounded.Seconds();
  c.identical = got == want;
  return c;
}

// One LAESA workload run twice: through an adapter that ignores bounds and
// through the bound-passing kernel.
struct LaesaComparison {
  double baseline_s = 0.0, bounded_s = 0.0;
  std::uint64_t baseline_cells = 0, bounded_cells = 0;
  Laesa::QueryStats baseline_stats, bounded_stats;
  bool identical_results = true;
};

LaesaComparison CompareLaesa(const std::vector<std::string>& prototypes,
                             const std::vector<std::string>& queries,
                             const StringDistancePtr& distance,
                             std::size_t pivots) {
  Laesa laesa_bounded(prototypes, distance, pivots);
  Laesa laesa_baseline(prototypes, std::make_shared<UnboundedAdapter>(distance),
                       pivots);
  LaesaComparison c;
  std::vector<NeighborResult> results_bounded, results_baseline;
  results_bounded.reserve(queries.size());
  results_baseline.reserve(queries.size());

  ResetContextualCellsEvaluated();
  Stopwatch w_baseline;
  for (const auto& q : queries) {
    results_baseline.push_back(laesa_baseline.Nearest(q, &c.baseline_stats));
  }
  c.baseline_s = w_baseline.Seconds();
  c.baseline_cells = ContextualCellsEvaluated();

  ResetContextualCellsEvaluated();
  Stopwatch w_bounded;
  for (const auto& q : queries) {
    results_bounded.push_back(laesa_bounded.Nearest(q, &c.bounded_stats));
  }
  c.bounded_s = w_bounded.Seconds();
  c.bounded_cells = ContextualCellsEvaluated();

  for (std::size_t i = 0; c.identical_results && i < queries.size(); ++i) {
    c.identical_results =
        results_bounded[i].index == results_baseline[i].index &&
        results_bounded[i].distance == results_baseline[i].distance;
  }
  return c;
}

int Run() {
  std::ostream& log = std::cerr;
  log << "micro_bounded_kernel: bounded-vs-unbounded contextual kernels and "
         "end-to-end LAESA (scale=" << Config::Scale() << ")\n";

  // -------------------------------------------------------------------
  // Part 1: raw kernels, near-duplicate pairs (the index query regime).
  // -------------------------------------------------------------------
  const auto pair_count =
      static_cast<std::size_t>(Config::ScaledInt("MBK_PAIRS", 400));
  Rng rng(Config::Seed() + 31);
  Alphabet latin = Alphabet::Latin();
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(pair_count);
  std::size_t total_len = 0;
  for (std::size_t i = 0; i < pair_count; ++i) {
    std::string x = StringGen::UniformLength(rng, latin, 16, 48);
    std::string y = x;
    for (int e = 0; e < 3 && !y.empty(); ++e) {
      y[rng.Index(y.size())] = latin.symbol(rng.Index(latin.size()));
    }
    total_len += x.size() + y.size();
    pairs.emplace_back(std::move(x), std::move(y));
  }

  // Note: the bounded runs evaluate each pair twice (exact + bounded), so
  // compare their cells/time against 2x the unbounded baseline.
  KernelRun unbounded = RunPairs(pairs, 0.0, DetailedDC);
  KernelRun tight = RunPairs(pairs, 0.5, DetailedDC);  // incumbent below d
  KernelRun loose = RunPairs(pairs, 1.5, DetailedDC);  // incumbent above d
  log << "  dC kernel: " << pairs.size() << " pairs, unbounded "
      << unbounded.cells << " cells in " << unbounded.seconds * 1e3
      << " ms; tight-bound pass abandoned " << tight.abandons << "\n";
  KernelRun h_unbounded = RunPairs(pairs, 0.0, DetailedDCH);
  KernelRun h_tight = RunPairs(pairs, 0.5, DetailedDCH);
  KernelRun h_loose = RunPairs(pairs, 1.5, DetailedDCH);
  log << "  dC,h kernel: unbounded " << h_unbounded.seconds * 1e3
      << " ms; tight " << h_tight.seconds * 1e3 << " ms ("
      << h_tight.abandons << " abandoned); loose " << h_loose.seconds * 1e3
      << " ms\n";
  auto per_call_ns = [](double seconds, std::uint64_t calls) {
    return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
  };
  // The same unbounded pass under each sweep-kernel variant's diamond DP
  // (`SweepKernels::contextual_diamond`); for context, not a gate.
  {
    const std::string active = ActiveSweepKernels().name;
    for (const SweepKernels* k : AvailableSweepKernels()) {
      SetActiveSweepKernels(k->name);
      const KernelRun run = RunPairs(pairs, 0.0, DetailedDCH);
      log << "    dC,h unbounded, " << k->name << " diamond: "
          << per_call_ns(run.seconds, pairs.size()) << " ns/call\n";
    }
    SetActiveSweepKernels(active);
  }

  // Short dictionary words paired at random, at a tight fixed bound: most
  // bounded calls are hopeless, and the d_E gate rejects them.
  constexpr double kWordBound = 0.4;
  Dataset words = bench::MakeDictionary(2 * pair_count, Config::Seed() + 35);
  std::vector<std::pair<std::string, std::string>> word_pairs;
  word_pairs.reserve(pair_count);
  for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
    word_pairs.emplace_back(words.strings[i], words.strings[i + 1]);
  }
  // Unbounded dC under each sweep-kernel variant's layered DP
  // (`SweepKernels::contextual_layers`), on the near-duplicate pairs and on
  // the word pairs; for context, not a gate.
  {
    const std::string active = ActiveSweepKernels().name;
    for (const SweepKernels* k : AvailableSweepKernels()) {
      SetActiveSweepKernels(k->name);
      const KernelRun near = RunPairs(pairs, 0.0, DetailedDC);
      const KernelRun word = RunPairs(word_pairs, 0.0, DetailedDC);
      log << "    dC unbounded, " << k->name << " layers: "
          << per_call_ns(near.seconds, pairs.size())
          << " ns/call on near-duplicates, "
          << per_call_ns(word.seconds, word_pairs.size())
          << " ns/call on word pairs\n";
    }
    SetActiveSweepKernels(active);
  }
  const PrefilterRun prefilter = RunPrefilter(word_pairs, kWordBound);
  const double reject_frac =
      word_pairs.empty() ? 0.0
                         : static_cast<double>(prefilter.rejected) /
                               static_cast<double>(word_pairs.size());
  log << "  dC word pairs at bound " << kWordBound << ": "
      << word_pairs.size() << " pairs, unbounded "
      << prefilter.unbounded_s * 1e3 << " ms, bounded "
      << prefilter.bounded_s * 1e3 << " ms; " << prefilter.abandons
      << " abandoned, " << prefilter.rejected << " by the d_E gate\n";

  // Digit contours paired at random, at the 10th percentile of their dC,h
  // values: as in the Fig. 4 sweeps, most bounded calls are hopeless, and
  // the d_E gate rejects those with d_E > K.
  const auto digits_per_class =
      static_cast<std::size_t>(Config::ScaledInt("MBK_DIGITS_PER_CLASS", 30));
  Dataset digits = bench::MakeDigits(digits_per_class, Config::Seed() + 33);
  const std::size_t gate_pair_count = 5 * pair_count;
  std::vector<std::pair<std::string, std::string>> digit_pairs;
  digit_pairs.reserve(gate_pair_count);
  std::vector<double> digit_distances;
  digit_distances.reserve(gate_pair_count);
  Rng grng(Config::Seed() + 36);
  for (std::size_t i = 0; i < gate_pair_count && !digits.strings.empty(); ++i) {
    const std::string& x = digits.strings[grng.Index(digits.size())];
    const std::string& y = digits.strings[grng.Index(digits.size())];
    digit_pairs.emplace_back(x, y);
    digit_distances.push_back(ContextualHeuristicDistance(x, y));
  }
  std::sort(digit_distances.begin(), digit_distances.end());
  const double gate_bound =
      digit_distances.empty() ? 0.0
                              : digit_distances[digit_distances.size() / 10];
  const GateRun gate = RunHeuristicGate(digit_pairs, gate_bound);
  const double gate_reject_frac =
      digit_pairs.empty() ? 0.0
                          : static_cast<double>(gate.rejected) /
                                static_cast<double>(digit_pairs.size());
  log << "  dC,h digit pairs at bound " << gate_bound << ": "
      << digit_pairs.size() << " pairs, " << gate.rejected
      << " rejected by the d_E gate (" << gate_reject_frac * 100.0
      << "%), gate " << per_call_ns(gate.gate_s, digit_pairs.size())
      << " ns/call; bounded " << per_call_ns(gate.bounded_s, digit_pairs.size())
      << " ns/call, unbounded "
      << per_call_ns(gate.unbounded_s, digit_pairs.size()) << " ns/call\n";

  // The gate unprepared and prepared: word queries at the word
  // pairs' bound, digit queries at the digit pairs' bound, one query per
  // eight kernel pairs (50 at the default scale).
  const std::size_t gate_queries = std::max<std::size_t>(1, pair_count / 8);
  std::vector<std::string> word_queries, digit_gate_queries;
  for (std::size_t i = 0; i < gate_queries && i < word_pairs.size(); ++i) {
    word_queries.push_back(word_pairs[i].first);
  }
  for (std::size_t i = 0; i < gate_queries && i < digit_pairs.size(); ++i) {
    digit_gate_queries.push_back(digit_pairs[i].first);
  }
  const GateForms word_forms =
      RunGateForms(word_queries, words.strings, kWordBound);
  const GateForms digit_forms =
      RunGateForms(digit_gate_queries, digits.strings, gate_bound);
  const bool prepared_agrees = word_forms.agrees && digit_forms.agrees;
  for (const auto& [what, forms] :
       {std::pair<const char*, const GateForms&>{"word", word_forms},
        {"digit", digit_forms}}) {
    log << "  d_E gate on " << what << " queries: " << forms.calls
        << " calls; unprepared "
        << per_call_ns(forms.unprepared_s, forms.calls) << " ns/call, prepared "
        << per_call_ns(forms.prepared_s, forms.calls) << " ns/call\n";
  }
  log << "    prepared decisions agree: "
      << (prepared_agrees ? "yes" : "NO") << "\n";
  const auto forms_json = [&](const GateForms& forms, double bound) {
    std::ostringstream o;
    o.precision(6);
    o << "{\"calls\": " << forms.calls << ", \"bound\": " << bound
      << ", \"unprepared_ns_per_call\": "
      << per_call_ns(forms.unprepared_s, forms.calls)
      << ", \"prepared_ns_per_call\": "
      << per_call_ns(forms.prepared_s, forms.calls) << "}";
    return o.str();
  };

  // -------------------------------------------------------------------
  // Part 2: end-to-end LAESA — exact dC on the dictionary workload, dC,h
  // on digit contours.
  // -------------------------------------------------------------------
  const auto pool =
      static_cast<std::size_t>(Config::ScaledInt("MBK_POOL", 1000));
  const auto num_queries =
      static_cast<std::size_t>(Config::ScaledInt("MBK_QUERIES", 150));
  const auto pivots =
      static_cast<std::size_t>(Config::ScaledInt("MBK_PIVOTS", 30));

  Dataset dict = bench::MakeDictionary(pool, Config::Seed());
  Rng qrng(Config::Seed() + 32);
  auto queries = MakeQueries(dict.strings, num_queries, 2, latin, qrng);
  const LaesaComparison exact =
      CompareLaesa(dict.strings, queries, MakeDistance("dC"), pivots);
  log << "  dC laesa: " << pool << " prototypes, " << queries.size()
      << " queries, " << pivots << " pivots\n"
      << "    baseline " << exact.baseline_s * 1e3 << " ms, "
      << exact.baseline_cells << " cells; bounded " << exact.bounded_s * 1e3
      << " ms, " << exact.bounded_cells << " cells, "
      << exact.bounded_stats.bounded_abandons << " abandons\n"
      << "    identical results: "
      << (exact.identical_results ? "yes" : "NO") << "\n";

  Dataset digit_queries =
      bench::MakeDigits(digits_per_class / 3 + 1, Config::Seed() + 34);
  const LaesaComparison heuristic =
      CompareLaesa(digits.strings, digit_queries.strings, MakeDistance("dC,h"),
                   pivots);
  // The search trajectory must not change either: the bounded kernel only
  // cuts work inside evaluations.
  const bool heuristic_identical =
      heuristic.identical_results &&
      heuristic.bounded_stats.distance_computations ==
          heuristic.baseline_stats.distance_computations;
  log << "  dC,h laesa: " << digits.size() << " contours, "
      << digit_queries.size() << " queries, " << pivots << " pivots\n"
      << "    baseline " << heuristic.baseline_s * 1e3 << " ms; bounded "
      << heuristic.bounded_s * 1e3 << " ms, "
      << heuristic.bounded_stats.bounded_abandons << " abandons\n"
      << "    identical results and computations: "
      << (heuristic_identical ? "yes" : "NO") << "\n";

  // -------------------------------------------------------------------
  // Part 3: max-min pivot selection, bounded vs unbounded evaluations.
  // -------------------------------------------------------------------
  const PivotComparison dict_pivots =
      ComparePivots(dict.strings, MakeDistance("dC"), pivots);
  const PivotComparison digit_pivots =
      ComparePivots(digits.strings, MakeDistance("dC,h"), pivots);
  const bool pivots_identical = dict_pivots.identical && digit_pivots.identical;
  log << "  pivot selection: dC " << dict_pivots.baseline_s * 1e3
      << " ms unbounded, " << dict_pivots.bounded_s * 1e3
      << " ms bounded; dC,h " << digit_pivots.baseline_s * 1e3
      << " ms unbounded, " << digit_pivots.bounded_s * 1e3
      << " ms bounded\n"
      << "    identical pivots: " << (pivots_identical ? "yes" : "NO")
      << "\n";

  // -------------------------------------------------------------------
  // JSON for the perf trajectory.
  // -------------------------------------------------------------------
  auto speedup = [](double baseline_s, double bounded_s) {
    return bounded_s == 0.0 ? 0.0 : baseline_s / bounded_s;
  };
  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_bounded_kernel\",\n"
            << "  \"kernel\": {\n"
            << "    \"pairs\": " << pairs.size() << ",\n"
            << "    \"avg_pair_len\": "
            << static_cast<double>(total_len) /
                   static_cast<double>(pairs.empty() ? 1 : pairs.size())
            << ",\n"
            << "    \"unbounded\": {\"seconds\": " << unbounded.seconds
            << ", \"cells\": " << unbounded.cells << "},\n"
            << "    \"tight_bound\": {\"seconds\": " << tight.seconds
            << ", \"cells\": " << tight.cells
            << ", \"abandons\": " << tight.abandons << "},\n"
            << "    \"loose_bound\": {\"seconds\": " << loose.seconds
            << ", \"cells\": " << loose.cells
            << ", \"abandons\": " << loose.abandons << "},\n"
            << "    \"word_pairs\": {\"pairs\": " << word_pairs.size()
            << ", \"bound\": " << kWordBound
            << ", \"unbounded_seconds\": " << prefilter.unbounded_s
            << ", \"bounded_seconds\": " << prefilter.bounded_s
            << ", \"abandons\": " << prefilter.abandons
            << ", \"prefilter_rejects\": " << prefilter.rejected
            << ", \"prefilter_reject_frac\": " << reject_frac << "}\n"
            << "  },\n"
            << "  \"laesa\": {\n"
            << "    \"prototypes\": " << pool << ",\n"
            << "    \"queries\": " << queries.size() << ",\n"
            << "    \"pivots\": " << pivots << ",\n"
            << "    \"baseline\": {\"seconds\": " << exact.baseline_s
            << ", \"cells\": " << exact.baseline_cells << ", \"computations\": "
            << exact.baseline_stats.distance_computations << "},\n"
            << "    \"bounded\": {\"seconds\": " << exact.bounded_s
            << ", \"cells\": " << exact.bounded_cells << ", \"computations\": "
            << exact.bounded_stats.distance_computations
            << ", \"abandons\": " << exact.bounded_stats.bounded_abandons
            << "},\n"
            << "    \"cell_reduction\": "
            << (exact.baseline_cells == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(exact.bounded_cells) /
                                static_cast<double>(exact.baseline_cells))
            << ",\n"
            << "    \"speedup\": " << speedup(exact.baseline_s, exact.bounded_s)
            << ",\n"
            << "    \"identical_results\": "
            << (exact.identical_results ? "true" : "false") << "\n"
            << "  },\n"
            << "  \"heuristic\": {\n"
            << "    \"kernel\": {\n"
            << "      \"unbounded\": {\"seconds\": " << h_unbounded.seconds
            << "},\n"
            << "      \"tight_bound\": {\"seconds\": " << h_tight.seconds
            << ", \"abandons\": " << h_tight.abandons << "},\n"
            << "      \"loose_bound\": {\"seconds\": " << h_loose.seconds
            << ", \"abandons\": " << h_loose.abandons << "}\n"
            << "    },\n"
            << "    \"gate\": {\"pairs\": " << digit_pairs.size()
            << ", \"bound\": " << gate_bound
            << ", \"gated_calls\": " << gate.gated
            << ", \"gate_rejects\": " << gate.rejected
            << ", \"gate_reject_frac\": " << gate_reject_frac
            << ", \"abandons\": " << gate.abandons
            << ", \"gate_ns_per_call\": "
            << per_call_ns(gate.gate_s, digit_pairs.size())
            << ", \"bounded_ns_per_call\": "
            << per_call_ns(gate.bounded_s, digit_pairs.size())
            << ", \"unbounded_ns_per_call\": "
            << per_call_ns(gate.unbounded_s, digit_pairs.size())
            << ", \"gate_agrees\": " << (gate.agrees ? "true" : "false")
            << "},\n"
            << "    \"laesa\": {\n"
            << "      \"prototypes\": " << digits.size() << ",\n"
            << "      \"mean_length\": " << digits.MeanLength() << ",\n"
            << "      \"queries\": " << digit_queries.size() << ",\n"
            << "      \"pivots\": " << pivots << ",\n"
            << "      \"baseline\": {\"seconds\": " << heuristic.baseline_s
            << ", \"computations\": "
            << heuristic.baseline_stats.distance_computations << "},\n"
            << "      \"bounded\": {\"seconds\": " << heuristic.bounded_s
            << ", \"computations\": "
            << heuristic.bounded_stats.distance_computations
            << ", \"abandons\": " << heuristic.bounded_stats.bounded_abandons
            << "},\n"
            << "      \"speedup\": "
            << speedup(heuristic.baseline_s, heuristic.bounded_s) << ",\n"
            << "      \"heuristic_identical_results\": "
            << (heuristic_identical ? "true" : "false") << "\n"
            << "    }\n"
            << "  },\n"
            << "  \"gate_forms\": {\n"
            << "    \"words\": " << forms_json(word_forms, kWordBound) << ",\n"
            << "    \"digits\": " << forms_json(digit_forms, gate_bound)
            << ",\n"
            << "    \"prepared_gate_agrees\": "
            << (prepared_agrees ? "true" : "false") << "\n"
            << "  },\n"
            << "  \"pivot_selection\": {\n"
            << "    \"pivots\": " << pivots << ",\n"
            << "    \"dC\": {\"prototypes\": " << dict.size()
            << ", \"unbounded_seconds\": " << dict_pivots.baseline_s
            << ", \"bounded_seconds\": " << dict_pivots.bounded_s << "},\n"
            << "    \"dC,h\": {\"prototypes\": " << digits.size()
            << ", \"unbounded_seconds\": " << digit_pivots.baseline_s
            << ", \"bounded_seconds\": " << digit_pivots.bounded_s << "},\n"
            << "    \"pivots_identical\": "
            << (pivots_identical ? "true" : "false") << "\n"
            << "  }\n"
            << "}\n";
  return exact.identical_results && heuristic_identical && pivots_identical &&
                 gate.agrees && prepared_agrees
             ? 0
             : 1;
}

}  // namespace
}  // namespace cned

int main() { return cned::Run(); }
