#pragma once
// Shared plumbing for the benchmark workloads: the clock, order
// statistics, the metric report, and the in-memory span tracer that the
// traced run (--trace 1) records around every call into a program layer.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace aqbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Arguments every workload receives.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;  ///< min(nproc, 4)
};

/// A metric's name and unit, as BENCHMARK.json lists it.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics and correctness verdict of one run. Every workload sets
/// every end-to-end metric; a per-layer metric a workload does not
/// exercise reads 0.
class Report {
 public:
  void set(const std::string& name, double value);
  /// Record a failed correctness gate: the run reports correct=false
  /// and exits non-zero.
  void gate_failed(const std::string& what);
  bool correct() const noexcept { return gate_failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Print both metric tables as text, then the one-line JSON result
  /// carrying `e2e` (untraced run) or `layers` (traced run). Returns
  /// false when an end-to-end metric was never set or a set name is in
  /// neither table.
  bool print(const std::vector<MetricDef>& e2e,
             const std::vector<MetricDef>& layers, bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> gate_failures_;
};

/// In-memory span recorder. Spans nest on one thread (the benchmark's
/// main thread): each records its name, its parent, an optional request
/// key (the job id for serving spans) and steady-clock start/end. When
/// disabled, span() costs one branch and records nothing.
class Tracer {
 public:
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* t, std::size_t index) noexcept : t_(t), index_(index) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t index_;
  };

  /// Open a span closed by the returned scope. `name` must be a string
  /// literal (stored by pointer).
  Scope span(const char* name, std::uint64_t key = kNoKey) {
    if (!enabled_) return Scope(nullptr, 0);
    return Scope(this, open(name, key));
  }

  /// Durations (us) of every closed span named `name`.
  std::vector<double> durations_us(const char* name) const;
  std::size_t span_count() const noexcept { return spans_.size(); }

  /// Per-name count / total / self time (duration minus the part its
  /// child spans cover), plus the root span's unexplained remainder.
  void print_self_time_table() const;
  /// Write every span as JSON to `path` (one object, "spans" array),
  /// stamped with `fingerprint_json`. Returns false on I/O failure.
  bool write_json(const std::string& path,
                  const std::string& fingerprint_json) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t key;
    std::size_t parent;  ///< index into spans_, or kNoParent
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  std::size_t open(const char* name, std::uint64_t key);
  void close(std::size_t index);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Median cost (ns) of one empty span open/close pair on this host,
/// measured on a scratch tracer.
double span_cost_ns();

}  // namespace aqbench
