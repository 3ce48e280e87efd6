#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"
#include "proto/messages.hpp"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
  if (!rec_.enabled) return;
  const double now =
      std::chrono::duration<double>(Clock::now() - rec_.origin_).count();
  const std::int64_t parent = rec_.open_.empty() ? -1 : rec_.open_.back();
  index_ = static_cast<std::int64_t>(rec_.spans_.size());
  rec_.spans_.push_back({name, now, now, parent, rec_.run_id});
  rec_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  rec_.spans_[static_cast<std::size_t>(index_)].end =
      std::chrono::duration<double>(Clock::now() - rec_.origin_).count();
  rec_.open_.pop_back();
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  // Children of one parent never overlap (the benchmark is one thread of
  // spans), so subtracting each child's duration removes the covered time.
  for (const auto& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

double SpanRecorder::total(const std::string& name,
                           std::uint32_t round) const {
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.run_id == round && s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double span_cost_s() {
  constexpr int kSpans = 20000;
  std::vector<double> cost;
  for (int rep = 0; rep < 9; ++rep) {
    double wall[2] = {0.0, 0.0};
    for (const bool on : {false, true}) {
      SpanRecorder rec;
      rec.enabled = on;
      const auto t0 = Clock::now();
      for (int i = 0; i < kSpans; ++i) {
        const SpanRecorder::Scope s(rec, "core.infer_routed");
      }
      wall[on] = seconds_since(t0);
    }
    cost.push_back((wall[1] - wall[0]) / kSpans);
  }
  return median(cost);
}

namespace {

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "core.routed.queries",
        "core.routed.escalations",
        "core.routed.bytes",
        "core.routed.unserved",
        "hdc.encode.batches",
        "hdc.encode.batch_samples",
        "hdc.predict.queries",
        "hdc.train.samples",
        "hdc.retrain.epochs",
        "hdc.retrain.updates",
        "proto.decode.rejected",
        "serve.submitted",
        "serve.batches",
        "serve.shed.admission",
        "runtime.pool.tasks",
        "runtime.pool.steals",
    };
    // Every message type the bus can charge (types are numbered from 1).
    for (int t = 1; t <= 12; ++t) {
      const std::string base =
          std::string("proto.") +
          edgehd::proto::to_string(static_cast<edgehd::proto::MsgType>(t));
      n.push_back(base + ".messages");
      n.push_back(base + ".bytes");
    }
    return n;
  }();
  return names;
}

}  // namespace

Snapshot snapshot_registry() {
  auto& reg = edgehd::obs::MetricsRegistry::global();
  Snapshot s;
  for (const auto& name : counter_names()) {
    s[name] = static_cast<double>(reg.counter_value(name));
  }
  s["hdc.encode.batch_ns.sum"] =
      static_cast<double>(reg.find_histogram("hdc.encode.batch_ns").sum());
  return s;
}

Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void RunRecord::timed(const std::string& name,
                      const std::vector<double>& samples,
                      const std::string& unit) {
  std::printf("samples %s:", name.c_str());
  for (const double v : samples) std::printf(" %.6g", v);
  std::printf("\n");
  metric(name, median(samples), unit);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
