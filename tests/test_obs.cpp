// Observability subsystem tests: metrics-registry semantics (interning,
// sharded counters, histogram bucketing, stable JSON), tracer semantics
// (parent links, ring bounds, suppression), registry concurrency (the TSan
// target), and the determinism suite — identical (seed, FaultPlan,
// worker-count) runs must produce byte-identical stable-metrics JSON and an
// identical trace event sequence.
//
// Every value-asserting test skips under -DEDGEHD_OBS=OFF (hooks compile to
// no-ops there); the inert-handle test runs in both configurations.
#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "net/fault.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace edgehd;

#define SKIP_IF_OBS_OFF()                                              \
  if constexpr (!obs::kEnabled) {                                      \
    GTEST_SKIP() << "observability compiled out (-DEDGEHD_OBS=OFF)";   \
  }

// ------------------------------------------------------------- registry

TEST(MetricsRegistry, HandlesAreInertWhenEmptyOrDisabled) {
  // Default-constructed handles must be safe no-ops in every build mode.
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.inc();
  g.set(3.0);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, InterningIsIdempotent) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  const obs::Counter a = reg.counter("x.count");
  const obs::Counter b = reg.counter("x.count");
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(reg.counter_value("x.count"), 3u);
  EXPECT_EQ(reg.counter_value("no.such.metric"), 0u);
}

TEST(MetricsRegistry, KindCollisionThrows) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("name", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramBucketsAndExactSum) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("lat", {10.0, 20.0});
  h.observe(10.0);  // bucket 0: v <= 10
  h.observe(11.0);  // bucket 1
  h.observe(20.0);  // bucket 1
  h.observe(25.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 66u);
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(MetricsRegistry, HistogramQuantileInterpolatesInsideBuckets) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("q", {10.0, 20.0, 40.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty -> 0
  // 10 observations in [0,10], 10 in (10,20].
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  // Median rank (10 of 20) lands exactly at the top of bucket 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  // Rank 15 of 20 is halfway through bucket 1: 10 + 10 * (5/10).
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  // Rank 5 of 20 is halfway through bucket 0, interpolated from 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
  // q clamps to [0, 1]; q=1 is the end of the last occupied bucket.
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 20.0);
  // Ranks landing in the overflow bucket report the last finite bound.
  h.observe(1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
}

TEST(MetricsRegistry, HistogramSummaryIsConsistentSnapshot) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("s", {100.0, 200.0, 400.0});
  for (int i = 0; i < 90; ++i) h.observe(50.0);
  for (int i = 0; i < 10; ++i) h.observe(150.0);
  const obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 90u * 50u + 10u * 150u);
  EXPECT_DOUBLE_EQ(s.p50, h.quantile(0.50));
  EXPECT_DOUBLE_EQ(s.p90, h.quantile(0.90));
  EXPECT_DOUBLE_EQ(s.p95, h.quantile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, h.quantile(0.99));
  EXPECT_GT(s.p95, s.p50);
}

TEST(MetricsRegistry, HistogramQuantileAndSummaryEdgeCases) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  // Empty: every quantile (including the clamped extremes) and every summary
  // field reads zero rather than dividing by a zero count.
  const obs::Histogram empty = reg.histogram("empty", {10.0, 20.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  const obs::HistogramSummary es = empty.summary();
  EXPECT_EQ(es.count, 0u);
  EXPECT_EQ(es.sum, 0u);
  EXPECT_DOUBLE_EQ(es.p50, 0.0);
  EXPECT_DOUBLE_EQ(es.p99, 0.0);

  // Single sample: all quantiles interpolate inside the one occupied bucket,
  // so every q maps into (bucket_lo, bucket_hi].
  const obs::Histogram one = reg.histogram("one", {10.0, 20.0});
  one.observe(15.0);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_GE(one.quantile(q), 10.0) << "q=" << q;
    EXPECT_LE(one.quantile(q), 20.0) << "q=" << q;
  }
  const obs::HistogramSummary os = one.summary();
  EXPECT_EQ(os.count, 1u);
  EXPECT_EQ(os.sum, 15u);
  EXPECT_DOUBLE_EQ(os.p50, one.quantile(0.5));

  // All observations in one bucket: the quantile spread stays inside that
  // bucket's bounds and the summary is internally ordered.
  const obs::Histogram packed = reg.histogram("packed", {10.0, 20.0, 40.0});
  for (int i = 0; i < 100; ++i) packed.observe(12.0);
  EXPECT_GT(packed.quantile(0.01), 10.0);
  EXPECT_DOUBLE_EQ(packed.quantile(1.0), 20.0);
  const obs::HistogramSummary ps = packed.summary();
  EXPECT_EQ(ps.count, 100u);
  EXPECT_LE(ps.p50, ps.p90);
  EXPECT_LE(ps.p90, ps.p95);
  EXPECT_LE(ps.p95, ps.p99);
  EXPECT_LE(ps.p99, 20.0);
}

TEST(MetricsRegistry, FindHistogramResolvesKindAndAbsence) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("found", {1.0, 2.0});
  h.observe(1.5);
  reg.counter("not-a-histogram");
  obs::Histogram found = reg.find_histogram("found");
  EXPECT_EQ(found.count(), 1u);
  found.observe(0.5);  // same underlying buckets as the interned handle
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(reg.find_histogram("absent").count(), 0u);
  EXPECT_EQ(reg.find_histogram("not-a-histogram").count(), 0u);
}

TEST(MetricsRegistry, HistogramRejectsUnsortedBounds) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad", {2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, SlotExhaustionThrows) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg(/*slot_capacity=*/2);
  reg.counter("a");
  reg.counter("b");
  EXPECT_THROW(reg.counter("c"), std::length_error);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsDefinitions) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  const obs::Counter c = reg.counter("c");
  const obs::Gauge g = reg.gauge("g");
  const obs::Histogram h = reg.histogram("h", {5.0});
  c.inc(4);
  g.set(2.5);
  h.observe(3.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // handles stay live across reset
  EXPECT_EQ(reg.counter_value("c"), 1u);
}

TEST(MetricsRegistry, JsonIsSortedStableAndFiltersVolatile) {
  SKIP_IF_OBS_OFF();
  obs::MetricsRegistry reg;
  reg.counter("zeta").inc(2);
  reg.counter("alpha").inc(1);
  reg.gauge("vol.gauge", /*stable=*/false).set(9.0);
  reg.set_label("backend", "scalar");
  const std::string all = reg.to_json();
  const std::string stable = reg.to_json(/*include_volatile=*/false);
  // Registration order was zeta-then-alpha; export must sort by name.
  EXPECT_LT(all.find("\"alpha\""), all.find("\"zeta\""));
  EXPECT_NE(all.find("\"vol.gauge\""), std::string::npos);
  EXPECT_EQ(stable.find("\"vol.gauge\""), std::string::npos);
  EXPECT_NE(stable.find("\"backend\":\"scalar\""), std::string::npos);
  // Identical state must serialize to identical bytes.
  EXPECT_EQ(all, reg.to_json());
}

TEST(MetricsRegistry, CountersSumAcrossConcurrentThreads) {
  SKIP_IF_OBS_OFF();
  // The TSan leg runs this binary: writers hammer shard slots while a reader
  // concurrently sums and serializes. Must be race-free and lose nothing.
  obs::MetricsRegistry reg;
  const obs::Counter c = reg.counter("hot");
  const obs::Histogram h = reg.histogram("hist", {1.0, 2.0});
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(1.5);
      }
    });
  }
  workers.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      (void)c.value();
      (void)reg.to_json();
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistry, ExitedThreadsFoldIntoOneRetiredShard) {
  SKIP_IF_OBS_OFF();
  // Each exiting writer's shard is folded into the retired shard and freed:
  // totals survive and the shard count stays flat across thread churn.
  obs::MetricsRegistry reg;
  const obs::Counter c = reg.counter("churn");
  const obs::Histogram h = reg.histogram("churn_hist", {1.0, 2.0});
  constexpr int kRounds = 10;
  constexpr int kThreads = 4;
  for (int round = 1; round <= kRounds; ++round) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        c.inc(3);
        h.observe(2.5);
      });
    }
    for (auto& w : workers) w.join();
    const auto n = static_cast<std::uint64_t>(round * kThreads);
    EXPECT_EQ(c.value(), 3 * n);
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.counts().back(), n);  // the overflow bucket kept its counts
    EXPECT_EQ(h.sum(), 3 * n);        // llround(2.5) == 3
    EXPECT_EQ(reg.shard_count(), 1u);  // only the retired shard is left
  }
  EXPECT_NE(reg.to_json().find("\"churn\":120"), std::string::npos);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, WriteFromALaterThreadLocalDestructorStillCounts) {
  SKIP_IF_OBS_OFF();
  // A thread-local built before the thread's first metric write is destroyed
  // after its shards were retired; its write lands in the retired shard.
  obs::MetricsRegistry reg;
  const obs::Counter c = reg.counter("late");
  struct IncOnExit {
    obs::Counter counter;
    ~IncOnExit() { counter.inc(5); }
  };
  std::thread([&] {
    thread_local IncOnExit late{c};
    c.inc();
  }).join();
  EXPECT_EQ(c.value(), 6u);
  EXPECT_EQ(reg.shard_count(), 1u);
}

TEST(MetricsRegistry, ThreadOutlivingItsRegistryExitsCleanly) {
  SKIP_IF_OBS_OFF();
  // The writer exits after one registry it wrote to is gone: its shard of
  // the dead registry must be left alone (the sanitizer legs would flag a
  // use after free), while the live registry still receives its totals.
  auto doomed = std::make_unique<obs::MetricsRegistry>();
  obs::MetricsRegistry kept;
  const obs::Counter dc = doomed->counter("d");
  const obs::Counter kc = kept.counter("k");
  std::mutex mu;
  std::condition_variable cv;
  bool wrote = false;
  bool registry_gone = false;
  std::thread writer([&] {
    dc.inc();
    kc.inc(2);
    std::unique_lock<std::mutex> lk(mu);
    wrote = true;
    cv.notify_all();
    cv.wait(lk, [&] { return registry_gone; });
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return wrote; });
  }
  EXPECT_EQ(dc.value(), 1u);
  doomed.reset();
  {
    const std::lock_guard<std::mutex> lk(mu);
    registry_gone = true;
  }
  cv.notify_all();
  writer.join();
  EXPECT_EQ(kc.value(), 2u);
  EXPECT_EQ(kept.shard_count(), 1u);
}

// --------------------------------------------------------------- tracer

TEST(Tracer, SpansLinkParentsAndCloseInOrder) {
  SKIP_IF_OBS_OFF();
  obs::Tracer tr;
  const auto root = tr.begin("root");
  const auto child = tr.begin("child", obs::kAutoTime, root, 7, 9);
  tr.instant("mark", obs::kAutoTime, child);
  {
    const auto open = tr.snapshot();
    ASSERT_EQ(open.size(), 3u);
    EXPECT_EQ(open[1].t_end, -1);  // still open
  }
  tr.end(child);
  tr.end(root);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].id, 1u);
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_EQ(events[1].parent, root);
  EXPECT_EQ(events[1].arg0, 7u);
  EXPECT_EQ(events[1].arg1, 9u);
  EXPECT_EQ(events[2].parent, child);
  EXPECT_EQ(events[2].t_begin, events[2].t_end);  // instant
  EXPECT_GE(events[0].t_end, events[0].t_begin);  // logical ticks advance
  EXPECT_GE(events[1].t_end, events[1].t_begin);
}

TEST(Tracer, RingKeepsNewestAndCountsDropped) {
  SKIP_IF_OBS_OFF();
  obs::Tracer tr(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) tr.instant("e");
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().id, 3u);
  EXPECT_EQ(events.back().id, 6u);
  EXPECT_EQ(tr.emitted(), 6u);
  EXPECT_EQ(tr.dropped(), 2u);
}

TEST(Tracer, SuppressionAndDisableBlockEmission) {
  SKIP_IF_OBS_OFF();
  obs::Tracer tr;
  {
    const obs::TraceSuppress guard;
    EXPECT_TRUE(obs::TraceSuppress::active());
    EXPECT_EQ(tr.begin("hidden"), 0u);
    EXPECT_EQ(tr.instant("hidden"), 0u);
  }
  EXPECT_FALSE(obs::TraceSuppress::active());
  tr.set_enabled(false);
  EXPECT_EQ(tr.begin("off"), 0u);
  tr.set_enabled(true);
  EXPECT_NE(tr.begin("on"), 0u);
  EXPECT_EQ(tr.emitted(), 1u);
}

TEST(Tracer, ClearResetsIdsAndLogicalClock) {
  SKIP_IF_OBS_OFF();
  obs::Tracer tr;
  tr.instant("a");
  tr.instant("b");
  tr.clear();
  EXPECT_EQ(tr.emitted(), 0u);
  const auto id = tr.instant("c");
  EXPECT_EQ(id, 1u);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t_begin, 1);  // logical tick restarted
}

// --------------------------------------------------- determinism suite

/// One full mixed workload: a faulty reliable-transport run on the simulator
/// (virtual-time spans, retry instants) followed by hierarchical training
/// and routed inference on a 2-worker system (logical-tick spans). Returns
/// the stable-metrics JSON and the retained trace window.
std::pair<std::string, std::vector<obs::TraceEvent>> run_workload() {
  auto& reg = obs::MetricsRegistry::global();
  auto& tracer = obs::Tracer::global();
  reg.reset();
  tracer.clear();

  const auto topo = net::Topology::paper_tree(4);
  net::FaultPlan plan(11);
  for (const auto leaf : topo.leaves()) plan.loss(leaf, 0.3);
  net::Simulator sim(topo, net::medium(net::MediumKind::kWifi80211n));
  sim.set_fault_plan(plan);
  for (const auto leaf : topo.leaves()) {
    for (int i = 0; i < 4; ++i) {
      sim.send_reliable(leaf, topo.parent(leaf), 900 + 100 * i);
    }
  }
  sim.run();

  auto ds = data::make_synthetic("obs-det", 20, 2, {10, 10}, 200, 60, 73,
                                 3.4F, 0.6F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 600;
  cfg.batch_size = 4;
  cfg.num_threads = 2;  // fixed worker count is part of the contract
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(2), cfg);
  sys.train();
  const auto start = sys.topology().leaves().front();
  for (std::size_t i = 0; i < ds.test_size(); ++i) {
    sys.infer_routed(ds.test_x[i], start);
  }
  return {reg.to_json(/*include_volatile=*/false), tracer.snapshot()};
}

TEST(ObsDeterminism, IdenticalRunsMatchByteForByte) {
  SKIP_IF_OBS_OFF();
  const auto first = run_workload();
  const auto second = run_workload();
  EXPECT_EQ(first.first, second.first) << "stable metrics JSON diverged";
  ASSERT_EQ(first.second.size(), second.second.size());
  for (std::size_t i = 0; i < first.second.size(); ++i) {
    EXPECT_TRUE(first.second[i] == second.second[i])
        << "trace event " << i << " diverged: " << first.second[i].name
        << " vs " << second.second[i].name;
  }
  EXPECT_FALSE(first.second.empty());
}

TEST(ObsDeterminism, StableViewExcludesSchedulingMetrics) {
  SKIP_IF_OBS_OFF();
  const auto out = run_workload();
  // A 2-worker run registers the scheduling/wall-clock metrics; none may
  // appear in the determinism-suite view.
  const std::string all = obs::MetricsRegistry::global().to_json();
  EXPECT_NE(all.find("runtime.pool.tasks"), std::string::npos);
  EXPECT_EQ(out.first.find("runtime.pool.steals"), std::string::npos);
  EXPECT_EQ(out.first.find("runtime.pool.queue_depth"), std::string::npos);
  EXPECT_EQ(out.first.find("hdc.encode.batch_ns"), std::string::npos);
  // The stable view still carries the protocol accounting.
  EXPECT_NE(out.first.find("core.routed.queries"), std::string::npos);
  EXPECT_NE(out.first.find("net.bytes_tx"), std::string::npos);
}

}  // namespace
