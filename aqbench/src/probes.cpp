#include "probes.hpp"

#include <algorithm>

#include "arbiterq/core/torus.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace aqbench {

namespace ac = arbiterq::core;
namespace aq = arbiterq::qnn;

namespace {

// Calls per span for the sub-microsecond probes, so the two clock reads
// of a span stay small against the work they bracket.
constexpr int kBlock = 64;
constexpr int kReps = 7;

double per_call_median(const Tracer& tr, const char* name, int calls) {
  return median(tr.durations_us(name)) / static_cast<double>(calls);
}

}  // namespace

QnnProbe probe_qnn(Tracer& tr, const std::vector<aq::QnnExecutor>& executors,
                   const std::vector<std::vector<double>>& weights,
                   const arbiterq::data::EncodedSplit& split, std::size_t batch,
                   int slot_shots, int trajectories) {
  QnnProbe out;
  const auto& tf = split.train_features;
  const auto& tl = split.train_labels;
  const auto& xf = split.test_features;
  const std::size_t n_train = tf.size();
  const std::size_t n_test = xf.size();

  // Training shapes, node by node on the calling thread. The per-node
  // medians sum to one epoch's serial qnn work.
  for (std::size_t q = 0; q < executors.size(); ++q) {
    const aq::QnnExecutor& ex = executors[q];
    std::vector<std::vector<double>> bf;
    std::vector<int> bl;
    for (std::size_t k = 0; k < batch; ++k) {
      const std::size_t i = (q * batch + k) % n_train;
      bf.push_back(tf[i]);
      bl.push_back(tl[i]);
    }
    std::vector<double> lg;
    std::vector<double> dl;
    for (int r = 0; r < kReps; ++r) {
      std::int64_t t0 = now_ns();
      {
        const Tracer::Scope s = tr.span("qnn.loss_gradient");
        ex.loss_gradient(aq::LossKind::kMse, bf, bl, weights[q]);
      }
      lg.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      t0 = now_ns();
      {
        const Tracer::Scope s = tr.span("qnn.dataset_loss");
        ex.dataset_loss(aq::LossKind::kMse, xf, split.test_labels,
                        weights[q]);
      }
      dl.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    out.serial_epoch_work_us += median(lg) + median(dl);
  }
  out.loss_gradient_us = median(tr.durations_us("qnn.loss_gradient"));
  out.dataset_loss_us = median(tr.durations_us("qnn.dataset_loss"));

  // Plan bind/run on the packed parameters of each test sample, cycling
  // samples so the encoding gates rebind as they do across jobs.
  const aq::QnnExecutor& ex0 = executors.front();
  std::vector<std::vector<double>> params;
  for (std::size_t i = 0; i < n_test; ++i) {
    params.push_back(ex0.model().pack_params(xf[i], weights.front()));
  }
  if (const arbiterq::sim::ExecPlan* plan = ex0.plan()) {
    arbiterq::sim::Workspace ws;
    for (int r = 0; r < kReps; ++r) {
      {
        const Tracer::Scope s = tr.span("sim.bind");
        for (int k = 0; k < kBlock; ++k) {
          plan->bind(params[static_cast<std::size_t>(k) % n_test], ws);
        }
      }
      const Tracer::Scope s = tr.span("sim.run");
      for (int k = 0; k < kBlock; ++k) {
        plan->run(params[static_cast<std::size_t>(k) % n_test], ws);
      }
    }
    out.bind_us = per_call_median(tr, "sim.bind", kBlock);
    out.run_us = per_call_median(tr, "sim.run", kBlock);
  }

  for (int r = 0; r < kReps; ++r) {
    const Tracer::Scope s = tr.span("qnn.probability");
    for (int k = 0; k < kBlock; ++k) {
      const std::size_t q = static_cast<std::size_t>(k) % executors.size();
      executors[q].probability(
          xf[static_cast<std::size_t>(k) % n_test], weights[q]);
    }
  }
  out.probability_us = per_call_median(tr, "qnn.probability", kBlock);

  // One serving slot per call: the mean slot shot share at the serving
  // trajectory count, on a fixed stream per call.
  const arbiterq::math::Rng root(7);
  for (int k = 0; k < 4 * kReps; ++k) {
    const std::size_t q = static_cast<std::size_t>(k) % executors.size();
    arbiterq::math::Rng rng = root.split(static_cast<std::uint64_t>(k));
    const Tracer::Scope s = tr.span("qnn.sampled_probability");
    executors[q].sampled_probability(
        xf[static_cast<std::size_t>(k) % n_test], weights[q],
        std::max(1, slot_shots), rng, trajectories);
  }
  out.sampled_probability_us =
      median(tr.durations_us("qnn.sampled_probability"));
  return out;
}

double probe_partition_ms(Tracer& tr,
                          const std::vector<ac::BehavioralVector>& behavioral,
                          const std::vector<std::vector<double>>& weights,
                          int reps, std::size_t* tori) {
  for (int r = 0; r < reps; ++r) {
    const Tracer::Scope s = tr.span("core.partition");
    *tori = ac::build_torus_partition(behavioral, weights).tori.size();
  }
  return median(tr.durations_us("core.partition")) / 1e3;
}

double probe_snapshot_ms(Tracer& tr, int reps) {
  std::size_t names = 0;
  for (int r = 0; r < reps; ++r) {
    const Tracer::Scope s = tr.span("telemetry.snapshot");
    const arbiterq::telemetry::MetricsSnapshot snap =
        arbiterq::telemetry::MetricsRegistry::global().snapshot();
    names += snap.counters.size() + snap.gauges.size();
  }
  return names > 0 ? median(tr.durations_us("telemetry.snapshot")) / 1e3
                   : 0.0;
}

}  // namespace aqbench
