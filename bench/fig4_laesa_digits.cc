// Figure 4 — LAESA on the handwritten-digit contour strings: average number
// of distance computations and search time per query vs number of pivots.
//
// Same protocol as Figure 3 but on much longer strings (contour chain
// codes), where each distance evaluation is expensive — this is where the
// "fewer computations" advantage of a discriminating metric translates into
// real time savings.
//
// Run with --kernel=scalar|avx2|auto to force a sweep-kernel variant
// (the vectorisation ablation row): computation counts are bit-identical
// across kernels, only the time columns move.
//
// Run with --table-precision=f64|f32|f16|u8 to store the pivot tables
// quantized (search/table_quant.h): results stay exact, computation counts
// may rise slightly, the time columns show the bandwidth gain.

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "bench/laesa_sweep.h"

namespace cned {
namespace {

int Run(TablePrecision precision) {
  bench::Banner("Figure 4: LAESA pivot sweep (handwritten digits)",
                "de la Higuera & Mico, ICDE 2008, Figure 4");
  const auto per_class =
      static_cast<std::size_t>(Config::ScaledInt("FIG4_PER_CLASS", 30));
  const auto train =
      static_cast<std::size_t>(Config::ScaledInt("FIG4_TRAIN", 200));
  const auto queries =
      static_cast<std::size_t>(Config::ScaledInt("FIG4_QUERIES", 50));
  const auto reps =
      static_cast<std::size_t>(Config::ScaledInt("FIG4_REPS", 2));

  Dataset digits = bench::MakeDigits(per_class, Config::Seed() + 30);
  Dataset query_set = bench::MakeDigits(per_class / 3 + 1, Config::Seed() + 31);
  std::cout << "pool " << digits.size() << " contours (mean length "
            << digits.MeanLength() << "), " << train << " prototypes, "
            << queries << " queries x " << reps << " repetitions\n\n";

  const std::vector<std::size_t> pivot_counts{10, 25, 50, 100};
  std::vector<std::pair<std::string, std::vector<bench::SweepPoint>>> runs;
  for (const auto& dist : EvaluationDistances()) {
    Rng sweep_rng(Config::Seed() + 32);
    runs.emplace_back(dist->name(),
                      bench::RunSweep(dist, digits.strings, query_set.strings,
                                      train, queries, reps, pivot_counts,
                                      sweep_rng, /*shards=*/1, precision));
    std::cout << "swept " << dist->name() << "\n";
  }
  std::cout << '\n';
  bench::PrintSweep(runs);
  std::cout << "\n(paper shape: dE and dC,h lowest computation counts; the\n"
            << " contextual distance costs ~2x dE per evaluation but needs\n"
            << " far fewer evaluations than dYB/dMV/dmax)\n";
  return 0;
}

}  // namespace
}  // namespace cned

int main(int argc, char** argv) {
  cned::TablePrecision precision = cned::DefaultTablePrecision();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string kernel_prefix = "--kernel=";
    const std::string precision_prefix = "--table-precision=";
    if (arg.rfind(kernel_prefix, 0) == 0) {
      if (!cned::bench::ApplySweepKernelFlag(
              arg.substr(kernel_prefix.size()))) {
        return 2;
      }
    } else if (arg.rfind(precision_prefix, 0) == 0) {
      if (!cned::bench::ApplyTablePrecisionFlag(
              arg.substr(precision_prefix.size()), &precision)) {
        return 2;
      }
    } else {
      std::cerr << "fig4: unknown argument " << arg
                << " (supported: --kernel=NAME --table-precision=NAME)\n";
      return 2;
    }
  }
  return cned::Run(precision);
}
