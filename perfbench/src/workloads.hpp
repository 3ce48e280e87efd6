// The benchmark's workloads. Each one generates its inputs from the seed,
// drives the system only through its public API, times those calls from
// here, checks the outputs and fills a RunRecord.
#pragma once

#include <cstddef>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "harness.hpp"

namespace perfbench {

RunRecord train_deep(const Options& opt, SpanRecorder& rec);
RunRecord serve_open(const Options& opt, SpanRecorder& rec);

/// Layer probes (traced runs only): time the hdc encoders, the classifier's
/// retrain epoch and batch predict, kernels::build_planes, the hierarchical
/// encoder and the envelope codec on `sys`'s own model and `ds`'s test
/// samples.
void run_probes(const edgehd::core::EdgeHdSystem& sys,
                const edgehd::data::Dataset& ds, std::size_t threads,
                RunRecord& out);

}  // namespace perfbench
