#pragma once
// The benchmark's workloads. Each fills `report` with every end-to-end
// metric (and, when `tr` is enabled, the per-layer metrics) and records
// any failed correctness gate there.

#include "common.hpp"

namespace aqbench {

/// train_mnist6: the Table I MNIST row, ArbiterQ, 80 epochs per call.
void run_train(const RunArgs& args, Tracer& tr, Report& report);

/// serve_synth_256: open-loop serving phases.
void run_serve(const RunArgs& args, Tracer& tr, Report& report);

}  // namespace aqbench
