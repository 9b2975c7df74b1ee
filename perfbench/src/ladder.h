// The ladder: each layer timed on its own, from outside, at a workload's
// shapes. Together with the traced traffic it yields every per-layer
// metric of the benchmark.
#pragma once

#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// Times the layers for `in`. `traffic` is the traced phase: its service.*
/// and streaming.* numbers are kept when the workload's traffic produced
/// them; otherwise the ladder's closed-loop service and streaming rungs at
/// the workload's shape supply them. The pipeline stages are timed at the
/// surveillance frame shape on every workload (generated from `seed` when
/// the workload does not run the pipeline).
[[nodiscard]] MetricList run_ladder(const LadderInputs& in,
                                    const Phase& traffic, std::uint64_t seed);

}  // namespace perfbench
