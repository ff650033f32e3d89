// Figure 3 — LAESA on the Spanish dictionary: average number of distance
// computations and average search time per query as a function of the
// number of pivots (base prototypes), for the five distances.
//
// Paper setup: 1000 training samples, queries generated by perturbing
// training words with two edit operations (genqueries), 10 prototype sets x
// 1000 queries. Shape to reproduce: dE and dC,h need the fewest distance
// computations; dYB/dMV/dmax need several times more; all curves fall then
// flatten as pivots increase; dC,h pays ~2x dE per computation in time but
// wins on computation count.

// Run with --shards=N to partition the prototype sample into N shards
// searched by a sharded Laesa: the headline numbers stay bit-identical to the
// flat index (same sweep, shard-partitioned execution), and an extra table
// per distance reports the per-shard split of the distance evaluations
// plus the totals of the batched two-stage pivot pipeline.
//
// Run with --kernel=scalar|avx2|auto to force a sweep-kernel variant
// (the vectorisation ablation row): computation counts are bit-identical
// across kernels, only the time columns move.
//
// Run with --table-precision=f64|f32|f16|u8 to store the pivot tables
// quantized (search/table_quant.h): results stay exact, the computation
// columns show the (small) pruning cost of the widened bounds and the time
// columns the bandwidth gain.

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "bench/laesa_sweep.h"
#include "datasets/perturb.h"

namespace cned {
namespace {

struct Args {
  std::size_t shards = 1;
  TablePrecision precision = DefaultTablePrecision();
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string shards_prefix = "--shards=";
    const std::string kernel_prefix = "--kernel=";
    const std::string precision_prefix = "--table-precision=";
    if (arg.rfind(shards_prefix, 0) == 0) {
      const long value =
          std::strtol(arg.c_str() + shards_prefix.size(), nullptr, 10);
      if (value < 1) {
        std::cerr << "fig3: --shards must be >= 1\n";
        std::exit(2);
      }
      args.shards = static_cast<std::size_t>(value);
    } else if (arg.rfind(kernel_prefix, 0) == 0) {
      if (!bench::ApplySweepKernelFlag(arg.substr(kernel_prefix.size()))) {
        std::exit(2);
      }
    } else if (arg.rfind(precision_prefix, 0) == 0) {
      if (!bench::ApplyTablePrecisionFlag(arg.substr(precision_prefix.size()),
                                          &args.precision)) {
        std::exit(2);
      }
    } else {
      std::cerr << "fig3: unknown argument " << arg
                << " (supported: --shards=N --kernel=NAME "
                   "--table-precision=NAME)\n";
      std::exit(2);
    }
  }
  return args;
}

int Run(const Args& args) {
  const std::size_t shards = args.shards;
  bench::Banner("Figure 3: LAESA pivot sweep (Spanish dictionary)",
                "de la Higuera & Mico, ICDE 2008, Figure 3");
  const auto pool_size =
      static_cast<std::size_t>(Config::ScaledInt("FIG3_POOL", 2000));
  const auto train =
      static_cast<std::size_t>(Config::ScaledInt("FIG3_TRAIN", 1000));
  const auto queries =
      static_cast<std::size_t>(Config::ScaledInt("FIG3_QUERIES", 200));
  const auto reps =
      static_cast<std::size_t>(Config::ScaledInt("FIG3_REPS", 3));

  Dataset dict = bench::MakeDictionary(pool_size, Config::Seed());
  Rng rng(Config::Seed() + 10);
  auto query_pool =
      MakeQueries(dict.strings, queries * 4, 2, Alphabet::Latin(), rng);
  std::cout << "pool " << dict.size() << " words, " << train
            << " training prototypes, " << queries << " queries x " << reps
            << " repetitions";
  if (shards > 1) std::cout << ", " << shards << " shards";
  std::cout << "\n\n";

  const std::vector<std::size_t> pivot_counts{10, 25, 50, 100, 150, 200, 300};
  std::vector<std::pair<std::string, std::vector<bench::SweepPoint>>> runs;
  for (const auto& dist : EvaluationDistances()) {
    Rng sweep_rng(Config::Seed() + 20);  // same samples for every distance
    runs.emplace_back(dist->name(),
                      bench::RunSweep(dist, dict.strings, query_pool, train,
                                      queries, reps, pivot_counts, sweep_rng,
                                      shards, args.precision));
    std::cout << "swept " << dist->name() << "\n";
  }
  std::cout << '\n';
  bench::PrintSweep(runs);
  return 0;
}

}  // namespace
}  // namespace cned

int main(int argc, char** argv) {
  const cned::Args args = cned::ParseArgs(argc, argv);
  return cned::Run(args);
}
