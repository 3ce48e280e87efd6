// Measurement plumbing shared by the benchmark workloads: wall-clock spans
// kept in memory, registry deltas, order statistics and the run record that
// main.cpp serializes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One closed span. Times are seconds since the recorder was created.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  ///< index into spans(), -1 for a top-level span
  std::uint32_t run_id = 0;  ///< measured round the span belongs to
};

/// In-memory span log. Spans are recorded only while enabled; a disabled
/// recorder costs one branch per span, which is what the untraced rounds of
/// a traced run pay.
class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::int64_t index_ = -1;
  };

  bool enabled = false;
  std::uint32_t run_id = 0;

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Duration minus the time covered by the span's direct children.
  std::vector<double> self_times() const;
  /// Summed duration of every span called `name` in round `run_id`.
  double total(const std::string& name, std::uint32_t run_id) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
};

/// Wall seconds one span adds when the recorder records, over what it costs
/// when it does not: the median over batches of empty spans.
double span_cost_s();

/// Counter values (and the encode busy-time sum) at one instant, by name.
using Snapshot = std::map<std::string, double>;
Snapshot snapshot_registry();
/// after - before, per name.
Snapshot delta(const Snapshot& before, const Snapshot& after);

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// Everything one invocation reports.
struct RunRecord {
  std::vector<std::pair<std::string, Metric>> metrics;  ///< insertion order
  std::vector<Check> checks;
  /// Deterministic values that must repeat exactly for a fixed seed, on any
  /// worker count (the self-test compares 1 worker with the default count).
  std::vector<std::pair<std::string, std::string>> digest;
  std::uint64_t attempted = 0;  ///< operations offered, checks included
  std::uint64_t failed = 0;     ///< shed or unserved operations, failed checks

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  /// A wall-time figure measured once per round or pass: prints every
  /// sample and reports their median.
  void timed(const std::string& name, const std::vector<double>& samples,
             const std::string& unit);
  void check(const std::string& name, bool passed, std::string detail = {}) {
    checks.push_back({name, passed, std::move(detail)});
  }
};

/// Command-line settings every workload sees.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 0;  ///< worker threads; main resolves 0 to min(4, nproc)
  /// Feed every correctness check a corrupted input as well, which must be
  /// reported as a failure (the self-test's proof that each check can fail).
  bool tamper = false;
};

}  // namespace perfbench
