// Open-loop serving workload serve_synth_256: table3_fleet_cycled(256, 2)
// with iris and synthetic execution; four tenants under weighted_credit
// with class lanes; one early dropout plus 1% transients; the live
// telemetry pipeline of `arbiterq_cli --serve --listen` at the default
// gauge cadence. No statevector work: routing, queue and arbiter,
// retries, repartition and telemetry do all the work.
//
// It runs 1 shard x 2 workers and leaves every other ServeConfig field
// at its default. Phases, each on a fresh runtime, in this order:
//  * burst: jobs offered as fast as the bounded queue admits them (the
//    generator holds back while it is over half full), then drained;
//  * nominal: Poisson arrivals at a fixed rate; latency runs from each
//    job's due time to finalize, (send - due) + wall_latency_us;
//  * a second burst, so capacity samples two stretches of the run;
//  * ladder (traced run only): the rate steps up x1.1 until the first
//    step that misses p99 <= limit, zero failures and drain <= limit,
//    then two geometric bisections between the last pass and that miss.
// Every phase's completed jobs must match, field for field, a staged
// replay of the same job list (autostart=false, submit all, start,
// drain).
//
// Job order, Poisson gaps and tenant assignment come from the
// benchmark's own std::mt19937_64 seeded with --seed.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/monitor/health.hpp"
#include "arbiterq/monitor/slo.hpp"
#include "arbiterq/monitor/watchdog.hpp"
#include "arbiterq/serve/fault_injector.hpp"
#include "arbiterq/serve/flight_recorder.hpp"
#include "arbiterq/serve/runtime.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/timeseries.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace aqbench {

namespace ac = arbiterq::core;
namespace am = arbiterq::monitor;
namespace as = arbiterq::serve;
namespace at = arbiterq::telemetry;

namespace {

struct TenantMix {
  const char* name;
  double share;
  double weight;
  am::SloClass cls;
};

// serve_synth_256's tenants: shares 60/15/15/10, the 10% tenant is
// latency-bound with weight 4.
constexpr TenantMix kTenants[] = {
    {"bulk", 0.60, 1.0, am::SloClass::kThroughputBound},
    {"etl", 0.15, 1.0, am::SloClass::kThroughputBound},
    {"scavenger", 0.15, 1.0, am::SloClass::kBestEffort},
    {"interactive", 0.10, 4.0, am::SloClass::kLatencyBound},
};

const arbiterq::data::BenchmarkCase kCase{"iris", 2, 2};
constexpr std::size_t kFleetQpus = 256;
constexpr int kShots = 96;
constexpr double kNominalRate = 1500.0;  ///< jobs/s
constexpr double kLimitMs = 10.0;        ///< ladder p99 and drain limit
constexpr int kWorkers = 2;
/// The deployed weights decide the torus partition, and with it every
/// job's shot split, so they are fixed; --seed varies the job stream only.
constexpr std::uint64_t kFleetSeed = 42;
// Latency and capacity are order statistics over fixed windows of a
// phase. On a shared host the cores run slower or faster for seconds at
// a time; an order statistic over windows moves with a few windows when
// such a stretch hits, not with the run.
constexpr double kLatencyWindowS = 0.5;
constexpr double kRateWindowS = 0.25;
/// The generator samples the queue depth only with this much slack.
constexpr std::int64_t kDepthSlackNs = 100'000;
/// Jobs per ladder step: p99 then has >= 10 samples beyond it.
constexpr std::size_t kStepJobs = 1200;
constexpr int kMaxLadderSteps = 20;
constexpr double kLadderFactor = 1.1;
/// A 0.5 s window of an open-loop phase is invalid, and not scored, when
/// the generator itself (not a blocking submit) ran this late at its p99
/// there. A phase is invalid when fewer than half its windows are valid.
constexpr double kOwnLateLimitMs = 2.0;

/// What set-up builds: data, the compiled fleet, the deployed weights.
struct Fleet {
  arbiterq::data::EncodedSplit split;
  std::optional<ac::DistributedTrainer> trainer;
  std::vector<std::vector<double>> weights;
  std::optional<as::FaultInjector> faults;
  std::size_t max_torus = 1;  ///< widest torus of the epoch-0 partition
};

as::ServeConfig serve_config(bool staged,
                             std::size_t staged_capacity,
                             at::TimeSeriesStore* series) {
  as::ServeConfig sc;
  sc.num_shards = 1;
  sc.workers_per_shard = kWorkers;
  sc.shots_per_job = kShots;
  sc.series = series;
  sc.synthetic_execution = true;
  sc.arbiter = as::ArbiterKind::kWeightedCredit;
  sc.class_lanes = true;
  for (const TenantMix& t : kTenants) {
    as::TenantSpec spec;
    spec.name = t.name;
    spec.weight = t.weight;
    sc.tenants.push_back(spec);
  }
  if (staged) {
    // The reference replay holds the whole job list before any worker
    // runs, so its queue must fit all of it.
    sc.autostart = false;
    sc.queue_capacity = std::max(sc.queue_capacity, staged_capacity);
  }
  return sc;
}

/// One runtime with the attachments its CLI counterpart wires up.
/// Member order is teardown order reversed: the collector (which calls
/// into the runtime) stops first, the runtime before what it points to.
class Deployment {
 public:
  Deployment(const Fleet& f, bool staged, std::size_t staged_capacity)
      : health_(f.trainer->fleet_size()),
        store_(store_config()),
        watchdog_(am::WatchdogConfig{}, &health_),
        slo_(am::SloPolicy::defaults(), &health_),
        runtime_(f.trainer->executors(), f.weights,
                 f.trainer->behavioral_vectors(),
                 serve_config(staged, staged_capacity, &store_), &*f.faults,
                 &health_, &flight_, &slo_) {
    at::CollectorOptions co;
    co.cadence_us = 100'000.0;
    co.pre_sample = [this] { runtime_.publish_shard_metrics(); };
    co.post_sample = [this] { watchdog_.poll(store_); };
    collector_ = std::make_unique<at::Collector>(
        store_, at::MetricsRegistry::global(), co);
    collector_->start();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  as::ServingRuntime& rt() noexcept { return runtime_; }
  std::size_t series_count() const { return store_.series_count(); }
  void stop_collector() { collector_->stop(); }

 private:
  static at::TimeSeriesConfig store_config() {
    at::TimeSeriesConfig tc;
    tc.window_us = 500'000.0;
    tc.max_windows = 240;
    return tc;
  }

  am::FleetHealthMonitor health_;
  at::TimeSeriesStore store_;
  am::AnomalyWatchdog watchdog_;
  as::FlightRecorder flight_;
  am::SloEngine slo_;
  as::ServingRuntime runtime_;
  std::unique_ptr<at::Collector> collector_;
};

/// Seeded job source: the i-th job it yields depends only on the seed,
/// the phase salt and i.
class JobSource {
 public:
  JobSource(const arbiterq::data::EncodedSplit& split, std::uint64_t seed,
            std::uint64_t salt, double rate)
      : split_(split),
        rng_(seed * 0x9E3779B97F4A7C15ULL + salt),
        gap_(rate > 0.0 ? rate : 1.0),
        sample_(0, split.test_features.size() - 1) {}

  /// Next job; `due_s` advances by an exponential gap.
  as::JobSpec next(double* due_s) {
    due_ += gap_(rng_);
    if (due_s != nullptr) *due_s = due_;
    const std::size_t i = sample_(rng_);
    as::JobSpec spec;
    spec.features = split_.test_features[i];
    spec.label = split_.test_labels[i];
    double u = unit_(rng_);
    const TenantMix* t = &kTenants[0];
    for (const TenantMix& m : kTenants) {
      t = &m;
      if (u < m.share) break;
      u -= m.share;
    }
    spec.tenant = t->name;
    spec.slo_class = t->cls;
    return spec;
  }

 private:
  const arbiterq::data::EncodedSplit& split_;
  std::mt19937_64 rng_;
  std::exponential_distribution<double> gap_;
  std::uniform_int_distribution<std::size_t> sample_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  double due_ = 0.0;
};

struct Phase {
  std::string name;
  double rate = 0.0;  ///< offered jobs/s (0 for the burst)
  std::vector<as::JobSpec> specs;
  std::vector<as::JobResult> results;
  as::ServingReport report;
  std::vector<as::ShardStats> shards;
  std::vector<double> latency_ms;  ///< ok jobs, from due time
  std::vector<double> due_s;       ///< ok jobs, due time from phase start
  /// Per 0.5 s window by due time: did the generator keep up there.
  std::vector<bool> window_valid;
  std::vector<double> done_s;      ///< ok jobs, finalize time from start
  double offer_s = 0.0;            ///< phase start -> last send
  std::vector<double> late_ms;     ///< send - due, every job
  std::vector<double> own_late_ms;  ///< lateness the generator added
  std::vector<double> submit_us;
  std::size_t ok = 0;
  std::size_t not_ok = 0;
  /// Rejected at admission. In the burst a rejected job is offered again
  /// (flow control), so there these are not failures.
  std::size_t rejected = 0;
  double wall_s = 0.0;   ///< first send -> drain returned
  double drain_ms = 0.0;
  double offered_ratio = 1.0;  ///< achieved / offered send rate
  bool valid = true;
  std::size_t invalid_windows = 0;
  std::size_t depth_max = 0;
  std::uint64_t gauge_samples = 0;
  std::size_t series_count = 0;
  const char* replay = "not run";
};

at::Counter& gauge_counter() {
  return at::MetricsRegistry::global().counter("serve.gauge.samples");
}

void sleep_until_ns(std::int64_t due_ns) {
  // Sleep to just short of the due time, then spin: a sleep alone
  // overshoots by tens of microseconds. A longer spin would keep the
  // generator on a core the runtime's threads need.
  constexpr std::int64_t kSpinNs = 150'000;
  const std::int64_t now = now_ns();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (now_ns() < due_ns) {
  }
}

/// Drain, collect, and score the finished phase. `due_ns` and
/// `send_ns` hold each job's due and send times (equal for the burst),
/// relative to `t0`, the phase start.
void finish_phase(Deployment& d, Phase& ph, Tracer& tr, std::int64_t t0,
                  const std::vector<std::int64_t>& due_ns,
                  const std::vector<std::int64_t>& send_ns) {
  const std::int64_t d0 = now_ns();
  {
    const Tracer::Scope s = tr.span("serve.drain");
    d.rt().drain();
  }
  const std::int64_t d1 = now_ns();
  d.stop_collector();
  ph.drain_ms = static_cast<double>(d1 - d0) / 1e6;
  ph.wall_s = static_cast<double>(d1 - t0) / 1e9;
  ph.offer_s = send_ns.empty() ? 0.0 : static_cast<double>(send_ns.back()) / 1e9;
  {
    const Tracer::Scope s = tr.span("serve.results");
    ph.results = d.rt().results();
    ph.report = d.rt().report();
    ph.shards = d.rt().shard_stats();
  }
  ph.series_count = d.series_count();
  for (std::size_t i = 0; i < ph.results.size(); ++i) {
    const as::JobResult& r = ph.results[i];
    if (r.status != as::JobStatus::kOk) {
      ++ph.not_ok;
      ph.rejected += r.status == as::JobStatus::kRejected ? 1 : 0;
      continue;
    }
    ++ph.ok;
    const double send_s = static_cast<double>(send_ns[i]) / 1e9;
    const double due_s = static_cast<double>(due_ns[i]) / 1e9;
    ph.latency_ms.push_back(1e3 * (send_s - due_s) + r.wall_latency_us / 1e3);
    ph.due_s.push_back(due_s);
    ph.done_s.push_back(send_s + r.wall_latency_us / 1e6);
  }
}

/// Marks each 0.5 s window (by due time) valid when the generator's own
/// lateness p99 there is within kOwnLateLimitMs, and the phase valid
/// when at least half its windows are.
void mark_windows(Phase& ph, const std::vector<std::int64_t>& due_ns) {
  std::vector<std::vector<double>> own;
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    const auto k = static_cast<std::size_t>(
        static_cast<double>(due_ns[i]) / 1e9 / kLatencyWindowS);
    if (k >= own.size()) own.resize(k + 1);
    own[k].push_back(ph.own_late_ms[i]);
  }
  ph.window_valid.assign(own.size(), true);
  std::size_t used = 0;
  for (std::size_t k = 0; k < own.size(); ++k) {
    if (own[k].empty()) continue;
    ++used;
    if (quantile(own[k], 0.99) > kOwnLateLimitMs) {
      ph.window_valid[k] = false;
      ++ph.invalid_windows;
    }
  }
  ph.valid = 2 * ph.invalid_windows <= used;
}

/// Open-loop phase: `n` Poisson arrivals at `rate`.
Phase run_open_loop(const Fleet& f, Tracer& tr,
                    const char* name, double rate, std::size_t n,
                    std::uint64_t seed, std::uint64_t salt) {
  Phase ph;
  ph.name = name;
  ph.rate = rate;
  JobSource src(f.split, seed, salt, rate);
  std::vector<double> due_s(n);
  ph.specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ph.specs.push_back(src.next(&due_s[i]));

  std::optional<Deployment> d;
  {
    const Tracer::Scope s = tr.span("serve.runtime_build");
    d.emplace(f, false, 0);
  }
  const std::uint64_t gauge0 = gauge_counter().value();
  const Tracer::Scope phase_span = tr.span("serve.open_loop_phase");
  std::vector<std::int64_t> due_ns(n);
  std::vector<std::int64_t> send_ns(n);
  ph.submit_us.reserve(n);
  ph.own_late_ms.reserve(n);
  // First arrival one millisecond out, so set-up work is not charged to
  // the first jobs.
  const std::int64_t t0 = now_ns() + 1'000'000 - static_cast<std::int64_t>(
                                                     due_s.front() * 1e9);
  std::int64_t prev_done = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(due_s[i] * 1e9);
    // The queue depth is sampled about every 16th job, in the slack
    // before a send, so the sampling does not make the generator late.
    if (i % 16 == 0 && due - now_ns() > kDepthSlackNs) {
      const Tracer::Scope s = tr.span("serve.queue_depth");
      ph.depth_max = std::max(ph.depth_max, d->rt().queue_depth());
    }
    {
      const Tracer::Scope s = tr.span("gen.wait");
      sleep_until_ns(due);
    }
    const std::int64_t send = now_ns();
    {
      const Tracer::Scope s = tr.span("serve.submit", i);
      d->rt().submit(ph.specs[i]);
    }
    const std::int64_t done = now_ns();
    due_ns[i] = due - t0;
    send_ns[i] = send - t0;
    ph.late_ms.push_back(static_cast<double>(send - due) / 1e6);
    ph.own_late_ms.push_back(
        static_cast<double>(std::max<std::int64_t>(
            0, send - std::max(due, prev_done))) /
        1e6);
    ph.submit_us.push_back(static_cast<double>(done - send) / 1e3);
    prev_done = done;
  }
  finish_phase(*d, ph, tr, t0, due_ns, send_ns);
  ph.gauge_samples = gauge_counter().value() - gauge0;
  if (n > 1 && send_ns.back() > send_ns.front()) {
    ph.offered_ratio =
        static_cast<double>(due_ns.back() - due_ns.front()) /
        static_cast<double>(send_ns.back() - send_ns.front());
  }
  mark_windows(ph, due_ns);
  return ph;
}

/// Saturated burst: offer `n` jobs back to back (stopping early once
/// `max_seconds` have passed), holding back while the queue is over half
/// full. A job the full queue still rejects
/// (batches waiting in the admission mailbox do not show in the queue
/// depth) is offered again after a short back-off.
Phase run_burst(const Fleet& f, Tracer& tr, std::size_t n,
                double max_seconds, std::uint64_t seed, std::uint64_t salt) {
  Phase ph;
  ph.name = "burst";
  JobSource src(f.split, seed, salt, 1.0);
  std::optional<Deployment> d;
  {
    const Tracer::Scope s = tr.span("serve.runtime_build");
    d.emplace(f, false, 0);
  }
  const std::size_t high_water = d->rt().config().queue_capacity / 2;
  const std::uint64_t gauge0 = gauge_counter().value();
  const Tracer::Scope phase_span = tr.span("serve.burst_phase");
  const std::int64_t t0 = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(max_seconds * 1e9);
  std::vector<std::int64_t> send_ns;
  bool reoffer = false;
  std::size_t offered = 0;
  while ((offered < n || reoffer) && now_ns() - t0 < budget_ns) {
    {
      const Tracer::Scope s = tr.span("gen.backpressure");
      if (reoffer) std::this_thread::sleep_for(std::chrono::microseconds(200));
      while (d->rt().queue_depth() > high_water) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!reoffer) ++offered;
    ph.specs.push_back(reoffer ? ph.specs.back() : src.next(nullptr));
    const std::int64_t send = now_ns();
    send_ns.push_back(send - t0);
    {
      const Tracer::Scope s = tr.span("serve.submit", ph.specs.size() - 1);
      reoffer = !d->rt().submit(ph.specs.back()).has_value();
    }
    ph.submit_us.push_back(static_cast<double>(now_ns() - send) / 1e3);
  }
  finish_phase(*d, ph, tr, t0, send_ns, send_ns);
  ph.gauge_samples = gauge_counter().value() - gauge0;
  return ph;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Correctness gate: replay the phase's job list staged and compare
/// every job the live run completed, field for field.
bool replay_matches(const Fleet& f, Tracer& tr,
                    const Phase& ph, std::string* why) {
  const Tracer::Scope s = tr.span("bench.replay");
  Deployment d(f, true, ph.specs.size() * f.max_torus + 64);
  for (const as::JobSpec& spec : ph.specs) d.rt().submit(spec);
  d.rt().start();
  d.rt().drain();
  d.stop_collector();
  const std::vector<as::JobResult> ref = d.rt().results();
  if (ref.size() != ph.results.size()) {
    *why = "replay has " + std::to_string(ref.size()) + " jobs, live " +
           std::to_string(ph.results.size());
    return false;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const as::JobResult& a = ph.results[i];
    if (a.status != as::JobStatus::kOk) continue;
    const as::JobResult& b = ref[i];
    if (b.status != a.status || !same_double(a.probability, b.probability) ||
        a.retries != b.retries ||
        !same_double(a.virtual_latency_us, b.virtual_latency_us)) {
      *why = "job " + std::to_string(i) + " differs from its staged replay"
             " (status " + as::job_status_name(b.status) + ", probability " +
             std::to_string(a.probability) + " vs " +
             std::to_string(b.probability) + ", retries " +
             std::to_string(a.retries) + " vs " + std::to_string(b.retries) +
             ")";
      return false;
    }
  }
  return true;
}

void check_replay(const Fleet& f, Tracer& tr, Phase& ph,
                  Report& report) {
  std::string why;
  const bool same = replay_matches(f, tr, ph, &why);
  ph.replay = same ? "identical" : "MISMATCH";
  if (!same) report.gate_failed(ph.name + ": " + why);
}

double p99(const Phase& ph) { return quantile(ph.latency_ms, 0.99); }

/// Lower quartile over the valid 0.5 s windows (by due time) of each
/// window's latency quantile `q`.
double windowed_latency(const Phase& ph, double q) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < ph.latency_ms.size(); ++i) {
    const auto k = static_cast<std::size_t>(ph.due_s[i] / kLatencyWindowS);
    if (k >= windows.size()) windows.resize(k + 1);
    windows[k].push_back(ph.latency_ms[i]);
  }
  std::vector<double> per_window;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    // Only windows where the generator kept up and q leaves at least ten
    // samples beyond it.
    const bool kept_up = k >= ph.window_valid.size() || ph.window_valid[k];
    if (kept_up && static_cast<double>(windows[k].size()) * (1.0 - q) >= 10.0) {
      per_window.push_back(quantile(windows[k], q));
    }
  }
  return per_window.empty() ? quantile(ph.latency_ms, q)
                            : quantile(per_window, 0.25);
}

/// Sustained capacity: the median, over the 0.25 s windows of every
/// burst, of completed jobs per second. Only windows after a burst's
/// first and before it stopped offering count: the queue is kept over
/// half full there, so every window is saturated. The median reads the
/// host's usual speed; higher quantiles read its short fast spells.
double windowed_capacity(const std::vector<Phase>& bursts) {
  std::vector<double> rates;
  for (const Phase& ph : bursts) {
    const auto n = static_cast<std::size_t>(ph.offer_s / kRateWindowS);
    std::vector<double> counts(n, 0.0);
    for (const double t : ph.done_s) {
      const auto k = static_cast<std::size_t>(t / kRateWindowS);
      if (k < n) counts[k] += 1.0;
    }
    for (std::size_t k = 1; k < n; ++k) {
      rates.push_back(counts[k] / kRateWindowS);
    }
  }
  if (rates.empty()) {
    // Bursts too short for two windows (a run of a few seconds): the
    // whole-burst rate.
    double ok = 0.0;
    double wall_s = 0.0;
    for (const Phase& ph : bursts) {
      ok += static_cast<double>(ph.ok);
      wall_s += ph.wall_s;
    }
    return ok / wall_s;
  }
  return median(rates);
}

bool meets_limit(const Phase& ph) {
  return ph.valid && ph.not_ok == 0 && p99(ph) <= kLimitMs &&
         ph.drain_ms <= kLimitMs;
}

void print_phase(const Phase& ph) {
  std::printf(
      "  %-12s rate %8.1f/s | %6zu jobs %6zu ok %4zu not-ok (%zu rejected) | p50 %.3f "
      "p90 %.3f p99 %.3f ms | drain %.3f ms | gen late p50 %.3f p99 %.3f "
      "own-p99 %.3f ms, %zu invalid windows, achieved/offered %.3f%s | %.1f "
      "jobs/s | replay %s\n",
      ph.name.c_str(), ph.rate, ph.results.size(), ph.ok, ph.not_ok,
      ph.rejected,
      quantile(ph.latency_ms, 0.5), quantile(ph.latency_ms, 0.9), p99(ph),
      ph.drain_ms, quantile(ph.late_ms, 0.5), quantile(ph.late_ms, 0.99),
      quantile(ph.own_late_ms, 0.99), ph.invalid_windows, ph.offered_ratio,
      ph.valid ? "" : " INVALID", static_cast<double>(ph.ok) / ph.wall_s,
      ph.replay);
}

/// Set-up: data, fleet build, deployed weights (drawn: synthetic
/// execution never evaluates them, but they decide the partition) and
/// one runtime construction.
Fleet build_fleet(const RunArgs& args, Tracer& tr,
                  double* prepare_ms, double* build_ms) {
  Fleet f;
  const auto t0 = Clock::now();
  {
    const Tracer::Scope s = tr.span("data.prepare");
    f.split = arbiterq::data::prepare_case(kCase);
  }
  const auto t1 = Clock::now();
  const arbiterq::qnn::QnnModel model(arbiterq::qnn::Backbone::kCRz,
                                      kCase.num_qubits, kCase.num_layers);
  ac::TrainConfig cfg;
  cfg.seed = kFleetSeed;
  cfg.exec.num_threads = args.threads;
  {
    const Tracer::Scope s = tr.span("core.trainer_build");
    f.trainer.emplace(model,
                      arbiterq::device::table3_fleet_cycled(kFleetQpus,
                                                            kCase.num_qubits),
                      cfg);
  }
  const auto t2 = Clock::now();
  *prepare_ms = 1e3 * seconds_between(t0, t1);
  *build_ms = 1e3 * seconds_between(t1, t2);
  std::mt19937_64 rng(kFleetSeed);
  std::normal_distribution<double> normal(0.0, 0.3);
  f.weights.assign(f.trainer->fleet_size(),
                   std::vector<double>(
                       static_cast<std::size_t>(model.num_weights())));
  for (auto& wq : f.weights) {
    for (double& x : wq) x = normal(rng);
  }
  f.faults.emplace(f.trainer->fleet_size(),
                   as::FaultInjector::parse(
                       "kill:1@64,transient:0.01,lag:32,seed:9"));
  {
    const Tracer::Scope s = tr.span("serve.runtime_build");
    Deployment d(f, false, 0);
    for (const auto& torus : d.rt().partition(0).tori) {
      f.max_torus = std::max(f.max_torus, torus.size());
    }
    d.rt().drain();
  }
  return f;
}

void sum_shards(const Phase& ph, double* wait_ms, double* contentions,
                double* wakeups, double* backstops) {
  for (const as::ShardStats& s : ph.shards) {
    *wait_ms += static_cast<double>(s.lock_wait_ns) / 1e6;
    *contentions += static_cast<double>(s.lock_contentions);
    *wakeups += static_cast<double>(s.doorbell_wakeups);
    *backstops += static_cast<double>(s.doorbell_backstops);
  }
}

}  // namespace

void run_serve(const RunArgs& args, Tracer& tr, Report& report) {
  // Set-up is timed five times: twice before the first phase and once
  // after each phase, so its median spans the run rather than one
  // stretch of the host's time. Later builds are discarded.
  std::vector<double> setup_s;
  std::vector<double> prepare_ms;
  std::vector<double> build_ms;
  const auto set_up = [&] {
    const Tracer::Scope s = tr.span("bench.setup");
    const auto t0 = Clock::now();
    double p = 0.0;
    double b = 0.0;
    Fleet built = build_fleet(args, tr, &p, &b);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    prepare_ms.push_back(p);
    build_ms.push_back(b);
    return built;
  };
  set_up();
  const Fleet f = set_up();

  // The run spends about 0.4 of its time in the nominal phase and 0.6 in
  // two bursts, one before it and one after, so capacity (the scored
  // timing) samples two separate stretches of the host's time. Each
  // burst has a fixed job count (0.3 of the run at three times the
  // nominal rate), so memory use does not follow the host's speed. The
  // traced run adds the rate ladder.
  const auto n_burst =
      static_cast<std::size_t>(3.0 * kNominalRate * 0.3 * args.seconds);
  std::vector<Phase> bursts;
  const auto burst = [&](std::uint64_t salt) {
    bursts.push_back(run_burst(f, tr, n_burst, args.seconds, args.seed,
                               salt));
    check_replay(f, tr, bursts.back(), report);
    set_up();
  };
  burst(2);
  const auto n_nominal =
      static_cast<std::size_t>(kNominalRate * 0.4 * args.seconds);
  // An invalid nominal phase is run again, up to three times in all; the
  // attempt with the fewest invalid windows is scored on its valid ones.
  Phase nominal;
  for (int attempt = 0; attempt < 3; ++attempt) {
    Phase ph = run_open_loop(f, tr, "nominal", kNominalRate, n_nominal,
                             args.seed, 1);
    if (attempt == 0 || ph.invalid_windows < nominal.invalid_windows) {
      nominal = std::move(ph);
    }
    if (nominal.valid) break;
    std::printf("nominal phase invalid (generator fell behind in %zu of %zu "
                "windows)%s\n",
                nominal.invalid_windows, nominal.window_valid.size(),
                attempt < 2 ? ", retrying" : "");
  }
  if (nominal.invalid_windows == nominal.window_valid.size()) {
    throw std::runtime_error("the generator could not hold the nominal rate");
  }
  check_replay(f, tr, nominal, report);
  set_up();
  burst(3);
  report.set("setup_s", median(setup_s));

  // Rate ladder (traced run): stop at the first miss, then bisect.
  double slo_rate = meets_limit(nominal) ? kNominalRate : 0.0;
  double miss_rate = 0.0;
  int steps = 0;
  std::vector<Phase> ladder;
  if (tr.enabled() && slo_rate > 0.0) {
    const Tracer::Scope s = tr.span("serve.ladder");
    const auto step = [&](double rate) {
      ++steps;
      ladder.push_back(run_open_loop(f, tr, "ladder", rate, kStepJobs,
                                     args.seed,
                                     100 + static_cast<std::uint64_t>(steps)));
      Phase& ph = ladder.back();
      // A step that rejected jobs cannot be replayed job for job (the
      // live run skipped them); every other step is checked.
      if (ph.not_ok == 0) check_replay(f, tr, ph, report);
      return meets_limit(ph);
    };
    double rate = kNominalRate;
    while (steps < kMaxLadderSteps) {
      rate *= kLadderFactor;
      if (!step(rate)) {
        miss_rate = rate;
        break;
      }
      slo_rate = rate;
    }
    for (int b = 0; b < 2 && miss_rate > 0.0; ++b) {
      const double mid = std::sqrt(slo_rate * miss_rate);
      if (step(mid)) {
        slo_rate = mid;
      } else {
        miss_rate = mid;
      }
    }
  }

  std::printf("%s phases:\n", args.workload.c_str());
  print_phase(bursts[0]);
  print_phase(nominal);
  for (const Phase& ph : ladder) print_phase(ph);
  print_phase(bursts[1]);

  // End-to-end metrics over the scored phases, nominal and bursts.
  // Ladder steps past the knee fail by design and are reported apart.
  std::size_t submitted = nominal.results.size();
  std::size_t ok = nominal.ok;
  for (const Phase& b : bursts) {
    submitted += b.results.size() - b.rejected;
    ok += b.ok;
  }
  double loss = 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < nominal.results.size(); ++i) {
    const as::JobResult& r = nominal.results[i];
    if (r.status != as::JobStatus::kOk) continue;
    loss += r.loss;
    hits += static_cast<std::size_t>((r.probability > 0.5) ==
                                     (nominal.specs[i].label == 1));
  }
  const double n_ok = std::max<double>(1.0, static_cast<double>(nominal.ok));
  const double capacity = windowed_capacity(bursts);
  const double p50 = windowed_latency(nominal, 0.5);
  const double p90 = windowed_latency(nominal, 0.9);
  const double failed_frac =
      static_cast<double>(submitted - ok) / static_cast<double>(submitted);
  report.attempted = submitted;
  report.failed = submitted - ok;
  report.set("capacity_per_s", capacity);
  report.set("loss", loss / n_ok);
  report.set("accuracy", static_cast<double>(hits) / n_ok);
  report.set("ok_frac", 1.0 - failed_frac);
  std::printf("%s: p50_ms %.4f p90_ms %.4f | capacity_jobs_s %.1f | "
              "failed_frac %.6f | accuracy %.4f (synthetic outputs)\n",
              args.workload.c_str(), p50, p90, capacity, failed_frac,
              static_cast<double>(hits) / n_ok);
  if (tr.enabled()) {
    std::printf("%s: slo_rate_jobs_s %.1f after %d ladder steps "
                "(first miss at %.1f/s)\n",
                args.workload.c_str(), slo_rate, steps, miss_rate);
  }

  if (!tr.enabled()) return;
  report.set("data.prepare_ms", median(prepare_ms));
  report.set("core.trainer_build_ms", median(build_ms));
  std::size_t tori = 0;
  report.set("core.partition_ms",
             probe_partition_ms(tr, f.trainer->behavioral_vectors(),
                                f.weights, 3, &tori));
  double batches = 0.0;
  double retries = 0.0;
  for (const as::JobResult& r : nominal.results) {
    batches += r.batches;
    retries += r.retries;
  }
  const double batches_per_job = batches / std::max<double>(
                                               1.0, static_cast<double>(
                                                        nominal.results.size()));
  const QnnProbe p = probe_qnn(
      tr, f.trainer->executors(), f.weights, f.split,
      f.trainer->config().batch_size,
      static_cast<int>(std::lround(kShots / std::max(1.0, batches_per_job))),
      as::ServeConfig{}.trajectories);
  report.set("qnn.loss_gradient_us", p.loss_gradient_us);
  report.set("qnn.dataset_loss_us", p.dataset_loss_us);
  report.set("sim.bind_us", p.bind_us);
  report.set("sim.run_us", p.run_us);
  report.set("qnn.probability_us", p.probability_us);
  report.set("qnn.sampled_probability_us", p.sampled_probability_us);
  report.set("serve.batches_per_job", batches_per_job);
  report.set("serve.retry_ratio", retries / std::max(1.0, batches));
  double admitted = 0.0;
  double offered = 0.0;
  std::vector<const Phase*> all = {&nominal};
  for (const Phase& ph : bursts) all.push_back(&ph);
  for (const Phase& ph : ladder) all.push_back(&ph);
  for (const Phase* ph : all) {
    admitted += static_cast<double>(ph->report.admitted);
    offered += static_cast<double>(ph->report.submitted);
  }
  report.set("serve.admit_ratio", admitted / std::max(1.0, offered));
  report.set("serve.repartitions",
             static_cast<double>(nominal.report.repartitions));
  report.set("serve.submit_us_p50", quantile(nominal.submit_us, 0.5));
  report.set("serve.submit_us_p99", quantile(nominal.submit_us, 0.99));
  double wait_ms = 0.0;
  double contentions = 0.0;
  double wakeups = 0.0;
  double backstops = 0.0;
  sum_shards(nominal, &wait_ms, &contentions, &wakeups, &backstops);
  for (const Phase& b : bursts) {
    sum_shards(b, &wait_ms, &contentions, &wakeups, &backstops);
  }
  report.set("serve.lock_wait_ms", wait_ms);
  report.set("serve.lock_contentions", contentions);
  report.set("serve.doorbell_wakeups", wakeups);
  report.set("serve.doorbell_backstops", backstops);
  report.set("serve.queue_depth_max", static_cast<double>(nominal.depth_max));
  report.set("serve.drain_ms", nominal.drain_ms);
  report.set("serve.p50_ms", p50);
  report.set("serve.p90_ms", p90);
  report.set("serve.p99_ms", p99(nominal));
  report.set("serve.slo_rate_jobs_s", slo_rate);
  report.set("serve.ladder_steps", steps);
  report.set("telemetry.gauge_samples",
             static_cast<double>(nominal.gauge_samples));
  report.set("telemetry.snapshot_ms", probe_snapshot_ms(tr, 9));
  report.set("telemetry.series_count",
             static_cast<double>(nominal.series_count));
  report.set("gen.late_ms_p99", quantile(nominal.late_ms, 0.99));
  report.set("gen.offered_ratio", nominal.offered_ratio);
}

}  // namespace aqbench
