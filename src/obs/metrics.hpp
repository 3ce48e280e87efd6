// Low-overhead metrics registry — the single source of truth for every
// number the system reports (byte counters, escalation rates, latency
// histograms). Design goals, in order:
//
//   1. Hot paths touch no shared state. Counter::inc and Histogram::observe
//      land in a per-thread shard (a flat array of relaxed atomics owned by
//      the calling thread); readers sum across shards. An increment costs a
//      thread-local lookup plus one uncontended fetch_add (~2 ns). When a
//      thread exits, its shard is folded into the registry's one retired
//      shard and freed, so totals survive and memory tracks live writers.
//   2. Deterministic export. Integer slot sums are order-independent, so
//      `to_json` is byte-identical across runs regardless of thread
//      interleaving — for every metric registered as *stable*. Metrics whose
//      value legitimately depends on scheduling or wall clock (steal counts,
//      latency histograms) are registered volatile and can be excluded:
//      `to_json(/*include_volatile=*/false)` is the determinism-suite view.
//   3. Compile-time kill switch. Under -DEDGEHD_OBS=OFF the build defines
//      EDGEHD_OBS_DISABLED; every handle method collapses to an inline no-op
//      and the registry interns nothing, so call sites need no #ifdefs.
//
// Conventions: counters are monotonic uint64; gauges are last-write-wins
// doubles set from non-concurrent contexts; histograms hold fixed bucket
// bounds (bucket i counts observations v with v <= bounds[i], plus one
// overflow bucket) and an integer sum of llround(v) — exact and commutative,
// so histogram export is deterministic too. Names are dotted paths
// ("net.bytes_tx"); the full catalogue lives in DESIGN.md §8.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace edgehd::obs {

#if defined(EDGEHD_OBS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

class MetricsRegistry;

/// Monotonic counter handle. Cheap to copy; a default-constructed handle is
/// a no-op sink (as is every handle when observability is compiled out).
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const noexcept {
    if constexpr (kEnabled) {
      if (reg_ != nullptr) add(n);
    } else {
      (void)n;
    }
  }
  /// Sum over all thread shards. 0 for an empty handle.
  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  void add(std::uint64_t n) const noexcept;
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Last-write-wins double. Gauges live centrally (not sharded): they are set
/// from non-concurrent contexts (bench drivers, pool bookkeeping under its
/// own lock), never from per-sample hot paths.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const noexcept {
    if constexpr (kEnabled) {
      if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }
  double value() const noexcept {
    if constexpr (kEnabled) {
      return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0.0;
    } else {
      return 0.0;
    }
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Point summary of a histogram's state (count, integer sum and the standard
/// latency quantiles), exported in one consistent snapshot.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Fixed-bucket histogram handle. observe(v) increments the bucket of the
/// first bound >= v (or the overflow bucket) and adds llround(v) to the
/// integer sum — all shard-local, all exact.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const noexcept;
  std::uint64_t count() const;             ///< total observations
  std::uint64_t sum() const;               ///< sum of llround(v)
  std::vector<std::uint64_t> counts() const;  ///< per-bucket (bounds + overflow)

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank: bucket [lo, hi] with c observations and
  /// k of the target's rank inside it reports lo + (hi - lo) * k / c. The
  /// first bucket interpolates from 0 (or from its own bound when that is
  /// negative); ranks landing in the overflow bucket report the last bound
  /// (the histogram cannot see past it). Empty histograms report 0.
  double quantile(double q) const;

  /// count/sum/p50/p90/p95/p99 from one locked snapshot of the buckets, so
  /// the quantiles are mutually consistent even under concurrent writers.
  HistogramSummary summary() const;

 private:
  friend class MetricsRegistry;
  struct Def;
  Histogram(MetricsRegistry* reg, const Def* def) : reg_(reg), def_(def) {}
  MetricsRegistry* reg_ = nullptr;
  const Def* def_ = nullptr;
};

class MetricsRegistry {
 public:
  /// Slot capacity bounds counters + histogram buckets (each shard allocates
  /// the full array up front so it can never reallocate under a writer).
  static constexpr std::size_t kDefaultSlotCapacity = 16384;

  explicit MetricsRegistry(std::size_t slot_capacity = kDefaultSlotCapacity);
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Interns a metric by name (idempotent: the same name returns the same
  /// handle). A name registered as a different metric kind throws. `stable`
  /// marks the value as deterministic for a fixed (seed, plan, worker-count)
  /// run; pass false for scheduling/wall-clock dependent metrics.
  Counter counter(const std::string& name, bool stable = true);
  Gauge gauge(const std::string& name, bool stable = true);
  Histogram histogram(const std::string& name, std::vector<double> bounds,
                      bool stable = true);

  /// Free-form string annotation (e.g. the resolved kernel backend).
  void set_label(const std::string& key, const std::string& value);

  /// Point lookups by name; 0 / "" when absent.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  std::string label(const std::string& key) const;

  /// Handle to an already-registered histogram (for readers that did not
  /// intern it themselves, e.g. benches reporting quantiles of histograms
  /// owned by the core). Returns an empty no-op handle when the name is
  /// absent or registered as another kind.
  Histogram find_histogram(const std::string& name);

  /// Stable-ordered JSON (keys sorted, fixed number formatting): identical
  /// state serializes to identical bytes. include_volatile=false drops every
  /// metric registered with stable=false — the determinism-suite view.
  std::string to_json(bool include_volatile = true) const;

  /// Zeroes every counter/histogram slot and gauge; definitions and labels
  /// survive. Callers must be quiescent (no concurrent writers).
  void reset();

  /// Shards currently held: one per live thread that has written here, plus
  /// at most one retired shard holding the totals of exited threads.
  std::size_t shard_count() const;

  /// The process-wide registry every built-in hook reports to.
  static MetricsRegistry& global();

 private:
  friend class Counter;
  friend class Histogram;
  struct Shard;
  /// The calling thread's shard pointers, one per registry it wrote to;
  /// its destructor retires them at thread exit.
  struct ThreadShards;

  struct CounterDef {
    std::string name;
    std::uint32_t slot = 0;
    bool stable = true;
  };
  struct GaugeCell {
    std::string name;
    std::atomic<double> value{0.0};
    bool stable = true;
  };

  std::atomic<std::uint64_t>* my_slots();
  std::atomic<std::uint64_t>* register_shard();
  /// Folds an exiting thread's shard into the retired shard and frees it.
  void retire_shard(const std::atomic<std::uint64_t>* slots);
  /// The retired shard's slots (created on demand); writes from a thread
  /// whose shards were already retired land here.
  std::atomic<std::uint64_t>* retired_slots();
  std::uint32_t take_slots(std::size_t n);
  std::uint64_t sum_slot(std::uint32_t slot) const;  // caller holds mu_
  void add_slot(std::uint32_t slot, std::uint64_t n) noexcept;

  const std::uint64_t id_;  ///< process-unique, never reused (TLS safety)
  const std::size_t slot_capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Shard* retired_ = nullptr;  ///< one of shards_, owned by no live thread
  /// name -> (kind, index into the matching deque)
  std::map<std::string, std::pair<char, std::uint32_t>> names_;
  std::deque<CounterDef> counters_;
  std::deque<GaugeCell> gauges_;
  std::deque<Histogram::Def> hists_;
  std::map<std::string, std::string> labels_;
  std::uint32_t next_slot_ = 0;
};

struct Histogram::Def {
  std::string name;
  std::vector<double> bounds;     ///< ascending upper bounds
  std::uint32_t first_slot = 0;   ///< bounds.size()+1 buckets, then the sum
  bool stable = true;
};

/// RAII wall-clock timer feeding a histogram in nanoseconds. The target
/// histogram should be registered volatile (wall time is never stable).
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Histogram h) : h_(h) {
    if constexpr (kEnabled) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimerNs() {
    if constexpr (kEnabled) {
      const auto dt = std::chrono::steady_clock::now() - t0_;
      h_.observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
    }
  }
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Histogram h_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace edgehd::obs
