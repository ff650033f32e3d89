#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer probes shared by the workloads. Each one times calls into a
// module's public functions from outside, records a span per call, and adds
// its metrics to the run's report. They run only in traced runs.

#include <cstddef>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "search/nn_searcher.h"
#include "search/pivot_stage.h"

namespace perfbench {

/// distances.* and search.* on an in-process LAESA-family index: per sample
/// query, ComputePivotRow then KNearestWithPivotRow (spans
/// "search.pivot_row" and "search.sweep" under "probe.search"); the batch
/// engine over the same queries ("search.batch"), whose answers must equal
/// the sequential loop's; and DistanceBounded on sampled (query, prototype)
/// pairs bounded by the query's k-th reference distance. `request_base`
/// offsets the request ids of the spans. Returns the mean ms of pivot row
/// plus sweep per sample query, run one at a time on one thread.
double ProbeSearchLayers(RunContext& ctx,
                         const cned::NearestNeighborSearcher& index,
                         const cned::PivotStageSearcher& ps,
                         const cned::StringDistance& metric,
                         const std::vector<std::string>& corpus,
                         const std::vector<std::string>& queries,
                         std::size_t k, std::size_t batch_threads,
                         std::uint64_t request_base);

/// sweep_kernel.*: the active variant's dense row update and its
/// eliminate-and-compact pass on random slabs of `n` candidates, in ns per
/// candidate.
void ProbeSweepKernels(RunContext& ctx, std::size_t n);

/// serve.frame_*: EncodeFrame, and FrameBuffer::Append + Pop with its CRC
/// check, averaged over one query's frame mix: one begin of
/// `begin_payload` bytes and `rounds` eval (16 B) + step (12 B) pairs.
void ProbeFrameCodec(RunContext& ctx, std::size_t begin_payload,
                     double rounds);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
