// The measuring binary of the repository benchmark. run.py builds it and calls
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE] --param name=value ...
// It prints one tab-separated `metric` line per measurement and a final
// `result` line on stdout (run.py turns them into the report), progress on
// stderr. Exit codes: 0 measured (the result line says whether every answer
// was correct), 2 bad arguments, 3 the run was void (the load generator
// fell behind its schedule), 4 an exception.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common/cpu_features.h"
#include "perfbench/bench.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--param name=value ...]\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunContext ctx;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      ctx.seconds = std::stod(value);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else if (flag == "--trace-out") {
      ctx.trace_out = value;
    } else if (flag == "--param") {
      if (!ctx.params.Set(value)) return Usage("bad --param " + value);
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (ctx.workload.empty() || !have_seed || ctx.work_dir.empty() ||
      ctx.seconds <= 0.0) {
    return Usage("--workload, --seed, --seconds and --work-dir are required");
  }

  Tracer tracer(ctx.trace);
  Report report;
  ctx.tracer = &tracer;
  ctx.report = &report;

  std::cout << "info\tsweep_kernel\t" << cned::ActiveSweepKernels().name
            << "\ninfo\ttable_precision\t"
            << cned::TablePrecisionName(cned::DefaultTablePrecision())
            << "\ninfo\tcpu_avx2\t" << (cned::CpuHasAvx2() ? 1 : 0)
            << "\ninfo\tcpu_neon\t" << (cned::CpuHasNeon() ? 1 : 0) << "\n";

  int rc = 0;
  if (ctx.workload == "dict_serve") {
    rc = RunDictServe(ctx, /*with_writes=*/false);
  } else if (ctx.workload == "dict_serve_rw") {
    rc = RunDictServe(ctx, /*with_writes=*/true);
  } else if (ctx.workload == "dict_batch") {
    rc = RunBatch(ctx, /*digits=*/false);
  } else if (ctx.workload == "digits_batch") {
    rc = RunBatch(ctx, /*digits=*/true);
  } else {
    return Usage("unknown workload " + ctx.workload);
  }
  if (rc != 0) return rc;
  if (ctx.trace) {
    report.Add("trace.spans", "count", static_cast<double>(tracer.size()), 1);
    if (!ctx.trace_out.empty() && !tracer.Write(ctx.trace_out)) {
      std::cerr << "perfbench: cannot write " << ctx.trace_out << "\n";
      return 4;
    }
  }
  report.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 4;
  }
}
