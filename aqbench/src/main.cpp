// aqbench: the repository benchmark.
//
//   aqbench --workload <train_mnist6|serve_synth_256>
//           --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Runs one workload, checks its outputs against the correctness gates,
// prints a host fingerprint, every metric by name with its unit, and as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. The traced run also prints a per-layer
// self-time table and writes its spans to <trace-dir>. Exits 0 only
// when every gate passed and every end-to-end metric was measured.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "common.hpp"
#include "workloads.hpp"

#ifndef AQBENCH_BUILD_TYPE
#define AQBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace aqbench;

// Mirrors BENCHMARK.json. Every workload measures every end-to-end
// metric; the per-workload meaning of each is in aqbench/WORKLOADS.md.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},     {"capacity_per_s", "1/s"}, {"loss", "mse"},
    {"accuracy", "ratio"}, {"ok_frac", "ratio"},     {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"data.prepare_ms", "ms"},
    {"core.trainer_build_ms", "ms"},
    {"core.partition_ms", "ms"},
    {"core.serial_epoch_ms", "ms"},
    {"qnn.loss_gradient_us", "us"},
    {"qnn.dataset_loss_us", "us"},
    {"exec.parallel_eff", "ratio"},
    {"sim.bind_us", "us"},
    {"sim.run_us", "us"},
    {"qnn.probability_us", "us"},
    {"qnn.sampled_probability_us", "us"},
    {"serve.batches_per_job", "count"},
    {"serve.retry_ratio", "ratio"},
    {"serve.admit_ratio", "ratio"},
    {"serve.repartitions", "count"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.lock_wait_ms", "ms"},
    {"serve.lock_contentions", "count"},
    {"serve.doorbell_wakeups", "count"},
    {"serve.doorbell_backstops", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.drain_ms", "ms"},
    {"serve.p50_ms", "ms"},
    {"serve.p90_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.slo_rate_jobs_s", "jobs/s"},
    {"serve.ladder_steps", "count"},
    {"telemetry.gauge_samples", "count"},
    {"telemetry.snapshot_ms", "ms"},
    {"telemetry.series_count", "count"},
    {"gen.late_ms_p99", "ms"},
    {"gen.offered_ratio", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: aqbench --workload <train_mnist6|serve_synth_256> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string trace_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-dir") {
      trace_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();
  const bool train = args.workload == "train_mnist6";
  if (!train && args.workload != "serve_synth_256") {
    return usage();
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  args.threads = static_cast<int>(std::min(nproc, 4u));
  char fingerprint[512];
  std::snprintf(
      fingerprint, sizeof fingerprint,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"threads\": %d, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"telemetry\": %d}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, nproc, args.threads,
      arbiterq::sim::kernels::arch_name(
          arbiterq::sim::kernels::active_arch()),
      AQBENCH_BUILD_TYPE, ARBITERQ_TELEMETRY_ENABLED);
  std::printf("fingerprint: %s\n", fingerprint);

  Tracer tr(args.trace);
  Report report;
  const std::int64_t t0 = now_ns();
  try {
    const Tracer::Scope root = tr.span(train ? "bench.train_mnist6"
                                             : "bench.serve");
    if (train) {
      run_train(args, tr, report);
    } else {
      run_serve(args, tr, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 3;
  }
  report.set("peak_rss_mb", peak_rss_mb());

  if (tr.enabled()) {
    const double wall_ns = static_cast<double>(now_ns() - t0);
    report.set("bench.trace_overhead_frac",
               static_cast<double>(tr.span_count()) * span_cost_ns() /
                   wall_ns);
    tr.print_self_time_table();
    if (!trace_dir.empty()) {
      const std::string path = trace_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".json";
      if (tr.write_json(path, fingerprint)) {
        std::printf("spans written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      }
    }
  }
  const bool complete = report.print(kEndToEnd, kPerLayer, args.trace);
  return complete && report.correct() ? 0 : 1;
}
