#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the repository benchmark: workload parameters, the
// metric report, quantiles and the seeded input generators.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "search/nn_searcher.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The workload's fixed configuration, handed over as `--param name=value`
/// flags by run.py from perfbench/workloads.json. A missing name is an
/// error: every size the benchmark uses is recorded in that file.
class Params {
 public:
  /// Parses "name=value"; returns false when there is no '='.
  bool Set(const std::string& kv);
  double Num(const std::string& name) const;
  std::size_t Size(const std::string& name) const;
  const std::string& Str(const std::string& name) const;
  /// A comma-separated list of numbers.
  std::vector<double> List(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Everything one run measured: named metrics with unit and sample count,
/// plus the operation tally the result line reports.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           std::size_t samples);
  /// One attempted operation; `ok` false counts it as failed. `wrong` marks
  /// an incorrect answer (as opposed to a shed or partial one), which makes
  /// the whole run incorrect.
  void Op(bool ok, bool wrong = false);
  /// Records an incorrect outcome outside the per-operation tally (a probe
  /// whose answer disagrees with its reference).
  void Wrong(const std::string& what);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool correct() const { return wrong_ == 0; }

  /// Machine-readable lines for run.py: one `metric` line per metric, then
  /// one `result` line.
  void Print(std::ostream& out) const;

 private:
  struct Metric {
    std::string name, unit;
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0, failed_ = 0, wrong_ = 0;
};

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& v);

/// True when both lists hold the same neighbours, index and distance, in
/// the same order.
bool SameNeighbors(const std::vector<cned::NeighborResult>& a,
                   const std::vector<cned::NeighborResult>& b);

/// Confines this thread, and every thread and process it starts afterwards,
/// to the first CPU it may run on. False when that fails.
bool PinToFirstCpu();

/// Peak resident set of this process plus its largest reaped child, in MB.
double PeakRssMb();

/// Seeded zipf sampler over ranks [0, n): P(r) proportional to 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival offsets (seconds from the segment start) at `rate_qps`
/// over [0, seconds), conditioned on their count: exactly
/// round(rate_qps * seconds) arrivals, placed uniformly at random and
/// sorted. This keeps the offered load of a segment the same on every seed,
/// so run-to-run differences come from the system, not the draw.
std::vector<double> PoissonArrivals(double rate_qps, double seconds,
                                    std::mt19937_64& rng);

/// Everything a workload needs to run.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch space inside the checkout
  std::string trace_out;  // where the traced run writes its spans
  Params params;
  Tracer* tracer = nullptr;
  Report* report = nullptr;
};

int RunDictServe(RunContext& ctx, bool with_writes);
int RunBatch(RunContext& ctx, bool digits);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
