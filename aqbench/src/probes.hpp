#pragma once
// Layer probes for the traced run: time single calls into the qnn, sim,
// core and telemetry layers from outside, each under its own span, on
// the objects a workload already built.

#include <cstddef>
#include <vector>

#include "arbiterq/core/behavioral_vector.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "common.hpp"

namespace aqbench {

struct QnnProbe {
  double loss_gradient_us = 0.0;   ///< one minibatch adjoint gradient
  double dataset_loss_us = 0.0;    ///< exact loss over the test split
  double bind_us = 0.0;            ///< ExecPlan::bind of one sample
  double run_us = 0.0;             ///< ExecPlan::run (bind + evolve)
  double probability_us = 0.0;     ///< exact single-sample forward
  double sampled_probability_us = 0.0;  ///< one serving slot
  /// Sum over nodes of one loss_gradient + one dataset_loss: an epoch's
  /// qnn work measured serially (exec.parallel_eff's numerator).
  double serial_epoch_work_us = 0.0;
};

/// Probe every node of `executors` with its deployed `weights`.
/// `batch` is the training minibatch size, `slot_shots` and
/// `trajectories` the shape of one serving slot.
QnnProbe probe_qnn(Tracer& tr, const std::vector<arbiterq::qnn::QnnExecutor>& executors,
                   const std::vector<std::vector<double>>& weights,
                   const arbiterq::data::EncodedSplit& split, std::size_t batch,
                   int slot_shots, int trajectories);

/// Median wall time (ms) of core::build_torus_partition on the fleet;
/// `tori` receives the partition's torus count.
double probe_partition_ms(
    Tracer& tr, const std::vector<arbiterq::core::BehavioralVector>& behavioral,
    const std::vector<std::vector<double>>& weights, int reps,
    std::size_t* tori);

/// Median wall time (ms) of one MetricsRegistry::global().snapshot().
double probe_snapshot_ms(Tracer& tr, int reps);

}  // namespace aqbench
