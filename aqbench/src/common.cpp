#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

namespace aqbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::gate_failed(const std::string& what) {
  std::fprintf(stderr, "CORRECTNESS GATE FAILED: %s\n", what.c_str());
  gate_failures_.push_back(what);
}

bool Report::print(const std::vector<MetricDef>& e2e,
                   const std::vector<MetricDef>& layers, bool trace) const {
  bool complete = true;
  std::size_t known = 0;
  const auto table = [&](const char* title,
                         const std::vector<MetricDef>& defs, bool required) {
    std::printf("%s:\n", title);
    for (const MetricDef& m : defs) {
      const auto it = values_.find(m.name);
      if (it != values_.end()) {
        ++known;
        std::printf("  %-28s %16.6f %s\n", m.name, it->second, m.unit);
      } else if (required) {
        std::fprintf(stderr, "metric %s was not measured\n", m.name);
        complete = false;
      } else {
        std::printf("  %-28s %16s %s\n", m.name, "-", m.unit);
      }
    }
  };
  table(trace ? "end-to-end metrics (traced run, reference only)"
              : "end-to-end metrics",
        e2e, !trace);
  table("per-layer metrics", layers, false);
  if (known != values_.size()) {
    std::fprintf(stderr, "a metric outside BENCHMARK.json was set\n");
    complete = false;
  }
  for (const std::string& g : gate_failures_) {
    std::printf("correctness gate failed: %s\n", g.c_str());
  }
  // JSON has no NaN/Inf; a non-finite measurement is reported as 0.
  const auto value = [&](const char* name) {
    const auto it = values_.find(name);
    const double v = it == values_.end() ? 0.0 : it->second;
    return std::isfinite(v) ? v : 0.0;
  };
  const std::vector<MetricDef>& out = trace ? layers : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name, value(out[i].name),
                out[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return complete;
}

std::size_t Tracer::open(const char* name, std::uint64_t key) {
  const std::size_t parent = stack_.empty() ? kNoParent : stack_.back();
  spans_.push_back({name, key, parent, now_ns(), -1});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Scopes close in LIFO order on the one recording thread.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

void Tracer::print_self_time_table() const {
  struct Row {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.end_ns >= 0) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, Row> rows;
  double root_ms = 0.0;
  double root_self_ms = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += dur;
    r.self_ms += dur - child_ms[i];
    if (s.parent == kNoParent) {
      root_ms += dur;
      root_self_ms += dur - child_ms[i];
    }
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::printf("per-layer self time (%zu spans):\n", spans_.size());
  std::printf("  %-28s %9s %12s %12s %7s\n", "span", "count", "total_ms",
              "self_ms", "self%");
  for (const auto& [name, r] : sorted) {
    std::printf("  %-28s %9zu %12.3f %12.3f %6.2f%%\n", name.c_str(),
                r.count, r.total_ms, r.self_ms,
                root_ms > 0.0 ? 100.0 * r.self_ms / root_ms : 0.0);
  }
  std::printf("unexplained remainder: %.3f ms of %.3f ms end-to-end wall "
              "(%.2f%%, not gated)\n",
              root_self_ms, root_ms,
              root_ms > 0.0 ? 100.0 * root_self_ms / root_ms : 0.0);
}

bool Tracer::write_json(const std::string& path,
                        const std::string& fingerprint_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"fingerprint\": %s,\n\"spans\": [\n",
               fingerprint_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"key\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}",
                 i == 0 ? "" : ",\n", i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.name,
                 s.key == kNoKey ? -1LL : static_cast<long long>(s.key),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double span_cost_ns() {
  Tracer scratch(true);
  constexpr int kReps = 5;
  constexpr int kSpans = 20000;
  std::vector<double> per_span;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSpans; ++i) {
      const Tracer::Scope s = scratch.span("bench.calibrate");
    }
    per_span.push_back(static_cast<double>(now_ns() - t0) / kSpans);
  }
  return median(per_span);
}

}  // namespace aqbench
