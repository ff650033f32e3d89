// Micro-benchmarks (google-benchmark) — per-evaluation cost of each
// distance as a function of string length.
//
// Supports the paper's §4.3 timing claim: "The computation time of the
// contextual distance is around twice the computation time of the
// Levenshtein distance", while d_MV and the exact d_C are cubic.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/contextual.h"
#include "core/contextual_heuristic.h"
#include "distances/levenshtein.h"
#include "distances/marzal_vidal.h"
#include "distances/normalized.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

std::pair<std::string, std::string> MakePair(std::size_t len) {
  Rng rng(12345 + len);
  Alphabet ab("abcdefgh");
  return {StringGen::Uniform(rng, ab, len), StringGen::Uniform(rng, ab, len)};
}

// d_E through the production adapter (the bit-parallel kernel).
void BM_Levenshtein(benchmark::State& state) {
  auto [x, y] = MakePair(static_cast<std::size_t>(state.range(0)));
  const EditDistance d;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.Distance(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Levenshtein)->Arg(8)->Arg(32)->Arg(128)->Arg(512)->Complexity();

void BM_ContextualHeuristic(benchmark::State& state) {
  auto [x, y] = MakePair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ContextualHeuristicDistance(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ContextualHeuristic)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Complexity();

void BM_ContextualExact(benchmark::State& state) {
  auto [x, y] = MakePair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ContextualDistance(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ContextualExact)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_MarzalVidal(benchmark::State& state) {
  auto [x, y] = MakePair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MarzalVidalDistance(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MarzalVidal)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_YujianBo(benchmark::State& state) {
  auto [x, y] = MakePair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DybDistance(x, y));
  }
}
BENCHMARK(BM_YujianBo)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_Dmax(benchmark::State& state) {
  auto [x, y] = MakePair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DmaxDistance(x, y));
  }
}
BENCHMARK(BM_Dmax)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

// The one bounded d_E entry point; the bound 9 is the integer band 8.
void BM_LevenshteinDistanceBounded(benchmark::State& state) {
  auto [x, y] = MakePair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistanceBounded(x, y, 9.0));
  }
}
BENCHMARK(BM_LevenshteinDistanceBounded)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
}  // namespace cned
