// train_mnist6: the Table I MNIST row (6 qubits, Model-CRz, 2 layers) on
// the 10-QPU Table III fleet, trained with ArbiterQ for 80 epochs per
// train() call on min(nproc, 4) threads. Nearly all of an epoch is
// adjoint gradients and batched exact forwards fanned out over the
// pool; serve and telemetry do no work here.

#include <cstring>
#include <string>
#include <vector>

#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/serve/runtime.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace aqbench {

namespace ac = arbiterq::core;

namespace {

constexpr int kEpochs = 80;
/// Training seeds per run: the final loss varies by a few percent from
/// seed to seed, so the scored loss is a mean over several.
constexpr int kSeeds = 4;
const arbiterq::data::BenchmarkCase kCase{"mnist", 6, 2};

ac::TrainConfig train_config(std::uint64_t seed, int threads) {
  ac::TrainConfig cfg;
  cfg.epochs = kEpochs;
  cfg.seed = seed;
  cfg.exec.num_threads = threads;
  return cfg;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Fleet-mean exact test accuracy of the deployed per-QPU weights.
double fleet_accuracy(const ac::DistributedTrainer& trainer,
                      const arbiterq::data::EncodedSplit& split,
                      const std::vector<std::vector<double>>& weights) {
  std::size_t hits = 0;
  std::size_t total = 0;
  for (std::size_t q = 0; q < trainer.executors().size(); ++q) {
    for (std::size_t i = 0; i < split.test_features.size(); ++i) {
      const double p =
          trainer.executors()[q].probability(split.test_features[i],
                                             weights[q]);
      hits += static_cast<std::size_t>((p > 0.5) == (split.test_labels[i] == 1));
      ++total;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

void run_train(const RunArgs& args, Tracer& tr, Report& report) {
  const arbiterq::qnn::QnnModel model(arbiterq::qnn::Backbone::kCRz,
                                      kCase.num_qubits, kCase.num_layers);
  const auto fleet = [] {
    return arbiterq::device::table3_fleet(kCase.num_qubits);
  };

  // Set-up: data preparation plus one trainer build (compile on every
  // QPU, behavioral vectors, similarity graph). It takes milliseconds,
  // so it is repeated before every timed call, spreading the samples
  // over the run; setup_s is their median.
  std::vector<double> setup_s;
  std::vector<double> prepare_ms;
  std::vector<double> build_ms;
  arbiterq::data::EncodedSplit split;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    {
      const Tracer::Scope s = tr.span("data.prepare");
      split = arbiterq::data::prepare_case(kCase);
    }
    const auto t1 = Clock::now();
    {
      const Tracer::Scope s = tr.span("core.trainer_build");
      const ac::DistributedTrainer t(model, fleet(),
                                     train_config(args.seed, args.threads));
    }
    const auto t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    prepare_ms.push_back(1e3 * seconds_between(t0, t1));
    build_ms.push_back(1e3 * seconds_between(t1, t2));
  };
  set_up();

  // kSeeds training seeds derived from --seed, each with a trainer on
  // `threads` threads and a 1-thread reference run. Every timed call
  // must reproduce its seed's reference loss curve and deployed weights
  // bit for bit; loss and accuracy are means over the seeds.
  std::vector<ac::DistributedTrainer> trainers;
  std::vector<ac::DistributedTrainer> serial;
  std::vector<ac::TrainResult> ref;
  std::vector<double> serial_epoch_ms;
  double loss = 0.0;
  double accuracy = 0.0;
  for (int k = 0; k < kSeeds; ++k) {
    const std::uint64_t seed = args.seed * kSeeds + static_cast<std::uint64_t>(k);
    trainers.emplace_back(model, fleet(), train_config(seed, args.threads));
    serial.emplace_back(model, fleet(), train_config(seed, 1));
    const auto t0 = Clock::now();
    {
      const Tracer::Scope s = tr.span("core.train_serial");
      ref.push_back(serial.back().train(ac::Strategy::kArbiterQ, split));
    }
    serial_epoch_ms.push_back(1e3 * seconds_between(t0, Clock::now()) /
                              kEpochs);
    loss += ref.back().epoch_test_loss.back() / kSeeds;
    accuracy += fleet_accuracy(serial.back(), split, ref.back().weights) /
                kSeeds;
  }

  // Timed loop: train() calls, cycling the seeds, until the run's time
  // is spent.
  std::vector<double> epoch_ms;
  std::uint64_t identical = 0;
  const auto loop0 = Clock::now();
  while (epoch_ms.size() < kSeeds ||
         seconds_between(loop0, Clock::now()) < args.seconds) {
    set_up();
    const std::size_t k = epoch_ms.size() % kSeeds;
    const auto t0 = Clock::now();
    ac::TrainResult r;
    {
      const Tracer::Scope s = tr.span("core.train");
      r = trainers[k].train(ac::Strategy::kArbiterQ, split);
    }
    epoch_ms.push_back(1e3 * seconds_between(t0, Clock::now()) / kEpochs);
    bool same = same_bits(r.epoch_test_loss, ref[k].epoch_test_loss) &&
                r.weights.size() == ref[k].weights.size();
    for (std::size_t q = 0; same && q < r.weights.size(); ++q) {
      same = same_bits(r.weights[q], ref[k].weights[q]);
    }
    if (same) {
      ++identical;
    } else if (report.correct()) {
      report.gate_failed("train() call " + std::to_string(epoch_ms.size()) +
                         " on " + std::to_string(args.threads) +
                         " threads differs from the 1-thread reference");
    }
  }
  const auto calls = static_cast<double>(epoch_ms.size());

  report.set("setup_s", median(setup_s));
  report.attempted = epoch_ms.size();
  report.failed = epoch_ms.size() - identical;
  // Epochs per second of the median call: the median reads the host's
  // usual speed, a mean would follow its slow and fast spells.
  report.set("capacity_per_s", 1e3 / median(epoch_ms));
  report.set("loss", loss);
  report.set("accuracy", accuracy);
  report.set("ok_frac", static_cast<double>(identical) / calls);
  std::printf("train_mnist6: %zu train() calls x %d epochs on %d threads | "
              "epoch_ms p50 %.4f p90 %.4f | serial epoch %.4f ms | "
              "final_loss %.6f (mean of %d seeds)\n",
              epoch_ms.size(), kEpochs, args.threads, median(epoch_ms),
              quantile(epoch_ms, 0.9), median(serial_epoch_ms), loss, kSeeds);

  if (!tr.enabled()) return;
  report.set("data.prepare_ms", median(prepare_ms));
  report.set("core.trainer_build_ms", median(build_ms));
  report.set("core.serial_epoch_ms", median(serial_epoch_ms));
  std::size_t tori = 1;
  report.set("core.partition_ms",
             probe_partition_ms(tr, serial[0].behavioral_vectors(),
                                ref[0].weights, 5, &tori));
  // Probe on a 1-thread trainer's executors: their calls do not fan
  // out, so the per-node sum is the epoch's qnn work done serially. The
  // serving slot shape is that of serving these weights with the default
  // ServeConfig: 256 shots split over a torus of the trained fleet's
  // partition.
  const arbiterq::serve::ServeConfig serving;
  const auto slot_shots = static_cast<int>(
      serving.shots_per_job * tori / serial[0].fleet_size());
  const QnnProbe p = probe_qnn(tr, serial[0].executors(), ref[0].weights,
                               split, serial[0].config().batch_size,
                               slot_shots, serving.trajectories);
  report.set("qnn.loss_gradient_us", p.loss_gradient_us);
  report.set("qnn.dataset_loss_us", p.dataset_loss_us);
  report.set("sim.bind_us", p.bind_us);
  report.set("sim.run_us", p.run_us);
  report.set("qnn.probability_us", p.probability_us);
  report.set("qnn.sampled_probability_us", p.sampled_probability_us);
  report.set("exec.parallel_eff",
             p.serial_epoch_work_us /
                 (args.threads * 1e3 * median(epoch_ms)));
  report.set("telemetry.snapshot_ms", probe_snapshot_ms(tr, 9));
}

}  // namespace aqbench
