#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "net/topology.hpp"
#include "serve/engine.hpp"

namespace perfbench {
namespace {

using namespace edgehd;
using Scope = SpanRecorder::Scope;

/// Minimum measured rounds. Every round ends with one closed-loop pass, so
/// the latency figures sample the machine across the whole run.
constexpr std::size_t kMinRounds = 5;
/// Times one closed-loop pass asks each test sample. With the 600-sample
/// test split a pass asks 1200 queries, so each pass has its own p99 with 12
/// samples beyond it, and every seed asks the same mix of escalation depths.
constexpr std::size_t kPassRepeats = 2;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- deployment -------------------------------------------------------------

struct DeploySpec {
  data::DatasetId id = data::DatasetId::kPamap2;
  std::size_t train_cap = 2000;
  std::size_t test_cap = 600;
  bool deep = false;               ///< uniform_depth(52, 5) instead of TREE
  bool train = false;              ///< train() on the train split in set-up
};

/// One set-up: dataset generation, construction and any training that
/// precedes the measured phase. The system borrows the dataset.
struct Deployment {
  std::unique_ptr<data::Dataset> ds;
  std::unique_ptr<core::EdgeHdSystem> sys;
  double setup_s = 0.0;
  double gen_s = 0.0;
  double train_s = 0.0;
  core::CommStats train_comm;

  /// Frees the system and its dataset; the set-up figures stay.
  void release() {
    sys.reset();
    ds.reset();
  }
};

/// Generator seed of the data distribution (that of the repository's paper
/// benches). The distribution, the trained-on samples and the test split are
/// fixed, so every seed measures one deployment; the run seed draws the
/// traffic: the open-loop arrival stream and the order of the closed-loop
/// queries. Seeding the generator, the training set or even only the
/// training order instead changes the
/// trained model, and with it accuracy, escalation rate and throughput, by
/// up to a factor of two between seeds.
constexpr std::uint64_t kDistributionSeed = 99;

/// The first `take` entries of a seeded permutation of [0, n).
std::vector<std::size_t> draw(std::size_t n, std::size_t take,
                              std::uint64_t seed, std::uint64_t salt) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  take = std::min(take, n);
  for (std::size_t i = 0; i < take; ++i) {
    const std::uint64_t h = mix64(mix64(seed) ^ mix64(salt << 32 | i));
    std::swap(idx[i], idx[i + h % (n - i)]);
  }
  idx.resize(take);
  return idx;
}

/// The first train_cap training samples and the test split of the fixed
/// distribution.
data::Dataset make_dataset(const DeploySpec& spec) {
  data::GenOptions gen;
  gen.max_train = 2 * spec.train_cap;
  gen.max_test = spec.test_cap;
  const data::Dataset pool = data::make_dataset(spec.id, kDistributionSeed, gen);
  data::Dataset ds;
  ds.name = pool.name;
  ds.num_features = pool.num_features;
  ds.num_classes = pool.num_classes;
  ds.partitions = pool.partitions;
  // PECAN houses (6 appliance readings each) are the encoding leaves.
  if (spec.id == data::DatasetId::kPecan) ds.partitions.assign(52, 6);

  ds.train_x.assign(pool.train_x.begin(),
                    pool.train_x.begin() + static_cast<std::ptrdiff_t>(spec.train_cap));
  ds.train_y.assign(pool.train_y.begin(),
                    pool.train_y.begin() + static_cast<std::ptrdiff_t>(spec.train_cap));
  ds.test_x = pool.test_x;
  ds.test_y = pool.test_y;
  return ds;
}

Deployment deploy(const DeploySpec& spec, const Options& opt,
                  SpanRecorder& rec) {
  Deployment d;
  const auto t0 = Clock::now();
  const Scope setup(rec, "setup");
  {
    const Scope s(rec, "data.gen");
    d.ds = std::make_unique<data::Dataset>(make_dataset(spec));
  }
  d.gen_s = seconds_since(t0);
  core::SystemConfig cfg;
  cfg.batch_size = core::scaled_batch_size(75, data::spec(spec.id).paper_train,
                                           d.ds->train_size());
  cfg.num_threads = opt.threads;
  auto topo = spec.deep
                  ? net::Topology::uniform_depth(d.ds->partitions.size(), 5)
                  : net::Topology::paper_tree(data::spec(spec.id).end_nodes);
  {
    const Scope s(rec, "core.construct");
    d.sys = std::make_unique<core::EdgeHdSystem>(*d.ds, std::move(topo), cfg);
  }
  if (spec.train) {
    const auto t1 = Clock::now();
    const Scope s(rec, "core.train");
    d.train_comm = d.sys->train();
    d.train_s = seconds_since(t1);
  }
  d.setup_s = seconds_since(t0);
  return d;
}

/// Frees the newest deployment's system and builds the next one, so one
/// system is resident at a time and peak_rss_mb is one deployment's.
void deploy_next(std::vector<Deployment>& deps, const DeploySpec& spec,
                 const Options& opt, SpanRecorder& rec) {
  if (!deps.empty()) deps.back().release();
  deps.push_back(deploy(spec, opt, rec));
}

void setup_metrics(const std::vector<Deployment>& deps, RunRecord& out) {
  std::vector<double> setup, gen;
  for (const auto& d : deps) {
    setup.push_back(d.setup_s);
    gen.push_back(d.gen_s);
  }
  out.timed("setup_s", setup, "s");
  out.metric("data.gen_s", median(gen), "s");
}

// ---- measured rounds --------------------------------------------------------

/// Round bookkeeping. Rounds repeat identical work, so their deterministic
/// digests must agree; in a traced run odd rounds record spans and even
/// rounds do not.
struct Rounds {
  std::vector<std::string> digests;
  std::vector<double> plain_wall, traced_wall;
  Snapshot traced_delta;        ///< registry delta of the first traced round
  std::uint32_t traced_id = 0;  ///< its run id (0 = none)
};

/// Runs prepare(r), then the round body(r, rounds), until opt.seconds have
/// passed, with at least kMinRounds rounds.
/// prepare is set-up work outside the round: its spans belong to no round.
/// The round is timed whole, so a traced round's wall time holds every span
/// it records.
template <class Prepare, class Body>
Rounds run_rounds(const Options& opt, SpanRecorder& rec, Prepare&& prepare,
                  Body&& body) {
  Rounds rs;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < kMinRounds || seconds_since(t0) < opt.seconds;
       ++r) {
    rec.enabled = opt.trace;
    rec.run_id = 0;
    prepare(r);
    rec.enabled = opt.trace && r % 2 == 1;
    rec.run_id = static_cast<std::uint32_t>(r + 1);
    const Snapshot before = snapshot_registry();
    const auto t1 = Clock::now();
    {
      const Scope round(rec, "round");
      body(r, rs);
    }
    const double wall = seconds_since(t1);
    if (rec.enabled) {
      rs.traced_wall.push_back(wall);
      if (rs.traced_id == 0) {
        rs.traced_id = rec.run_id;
        rs.traced_delta = delta(before, snapshot_registry());
      }
    } else {
      rs.plain_wall.push_back(wall);
    }
  }
  rec.enabled = opt.trace;
  rec.run_id = 0;
  return rs;
}

void determinism_check(const Rounds& rs, const Options& opt, RunRecord& out) {
  std::printf("round wall times (s):");
  for (const double w : rs.plain_wall) std::printf(" %.3f", w);
  for (const double w : rs.traced_wall) std::printf(" %.3f(traced)", w);
  std::printf("\n");
  std::vector<std::string> d = rs.digests;
  if (opt.tamper && !d.empty()) d.push_back(d.front() + "|tampered");
  const bool same =
      d.size() >= 2 && std::all_of(d.begin(), d.end(),
                                   [&](const auto& s) { return s == d.front(); });
  out.check("deterministic_counts_repeat", same,
            std::to_string(d.size()) + " rounds");
}

// ---- queries ----------------------------------------------------------------

/// Leaf at which test sample `i` is asked. Fixed, so every seed sends the
/// same mix of escalation depths.
net::NodeId origin_of(std::size_t i, std::span<const net::NodeId> leaves) {
  return leaves[i % leaves.size()];
}

/// The test split grouped by the origin leaf each sample is asked at.
struct OriginGroups {
  std::vector<net::NodeId> origins;
  std::vector<std::vector<std::vector<float>>> xs;
  std::vector<std::vector<std::size_t>> labels;
};

OriginGroups group_by_origin(const core::EdgeHdSystem& sys,
                             const data::Dataset& ds) {
  OriginGroups g;
  g.origins = sys.topology().leaves();
  g.xs.resize(g.origins.size());
  g.labels.resize(g.origins.size());
  for (std::size_t i = 0; i < ds.test_size(); ++i) {
    // origin_of(i) is origins[i % size].
    g.xs[i % g.origins.size()].push_back(ds.test_x[i]);
    g.labels[i % g.origins.size()].push_back(ds.test_y[i]);
  }
  return g;
}

/// One caller in a closed loop on infer_routed: each query is sent when the
/// previous reply is back. A pass asks every test sample kPassRepeats times
/// at its fixed origin, in seeded orders of the test split.
/// Latency has one mode per escalation depth: the p50 jumps between modes
/// when their shares shift slightly, and over ten seeds the mean spread
/// 0.18 of its median where the p99 spread 0.08, so only the p99 is an
/// end-to-end metric; the mean and p50 are printed. Each figure is the median
/// over the passes, so a burst of machine noise moves one pass only.
struct ClosedLoop {
  std::vector<double> pass_means, pass_p50s, pass_p99s;
  std::uint64_t queries = 0;
  std::uint64_t unserved = 0;

  void pass(const core::EdgeHdSystem& sys, const data::Dataset& ds,
            const Options& opt, SpanRecorder& rec) {
    const auto leaves = sys.topology().leaves();
    const std::size_t n = ds.test_size();
    std::vector<double> us;
    for (std::size_t rep = 0; rep < kPassRepeats; ++rep) {
      const std::uint64_t salt = 10 + 1000 * pass_means.size() + rep;
      for (const auto i : draw(n, n, opt.seed, salt)) {
        const net::NodeId origin = origin_of(i, leaves);
        const auto t0 = Clock::now();
        const Scope s(rec, "core.infer_routed");
        const auto r = sys.infer_routed(ds.test_x[i], origin);
        us.push_back(seconds_since(t0) * 1e6);
        if (!r.served()) ++unserved;
      }
    }
    queries += us.size();
    pass_means.push_back(std::accumulate(us.begin(), us.end(), 0.0) /
                         static_cast<double>(us.size()));
    pass_p50s.push_back(quantile(us, 0.50));
    pass_p99s.push_back(quantile(us, 0.99));
  }

  void report(RunRecord& out) const {
    const double mean = median(pass_means);
    const double p99 = median(pass_p99s);
    std::printf("closed loop: %llu queries in %zu passes; medians of the "
                "passes: mean %.1f us, p50 %.1f us, p99 %.1f us\n",
                static_cast<unsigned long long>(queries), pass_means.size(),
                mean, median(pass_p50s), p99);
    out.metric("query_mean_us", mean, "us");
    out.timed("query_p99_us", pass_p99s, "us");
    out.attempted += queries;
    out.failed += unserved;
  }
};

// ---- per-layer metrics --------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Registry deltas and span totals of the first traced round, which includes
/// that round's closed-loop pass. `ops` counts the round's operations
/// (queries, samples or train calls); `train_samples` the training samples
/// it retrained on.
void layer_metrics(const Rounds& rs, const SpanRecorder& rec, double ops,
                   double train_samples, RunRecord& out) {
  const Snapshot& d = rs.traced_delta;
  const auto get = [&d](const std::string& k) {
    const auto it = d.find(k);
    return it == d.end() ? 0.0 : it->second;
  };
  const std::uint32_t id = rs.traced_id;
  out.metric("core.train_initial_s", rec.total("core.train_initial", id), "s");
  out.metric("core.retrain_s", rec.total("core.retrain", id), "s");
  out.metric("core.routed.escalation_rate",
             ratio(get("core.routed.escalations"), get("core.routed.queries")),
             "frac");
  out.metric("hdc.encode.samples", get("hdc.encode.batch_samples"), "count");
  out.metric("hdc.encode.busy_s", get("hdc.encode.batch_ns.sum") / 1e9, "s");
  const double epochs = get("hdc.retrain.epochs");
  const double updates = get("hdc.retrain.updates");
  out.metric("hdc.retrain.epochs", epochs, "count");
  out.metric("hdc.retrain.updates", updates, "count");
  out.metric("hdc.retrain.update_ratio", ratio(updates, epochs * train_samples),
             "frac");
  out.metric("hdc.predict.queries", get("hdc.predict.queries"), "count");
  for (const char* t : {"model_update", "batch_update",
                        "query_escalate", "query_reply"}) {
    const std::string base = std::string("proto.") + t;
    out.metric(base + ".messages", get(base + ".messages"), "count");
    out.metric(base + ".bytes", get(base + ".bytes"), "B");
  }
  out.metric("proto.decode.rejected", get("proto.decode.rejected"), "count");
  out.metric("runtime.pool.tasks_per_op", ratio(get("runtime.pool.tasks"), ops),
             "count");
  out.metric("runtime.pool.steals_per_op",
             ratio(get("runtime.pool.steals"), ops), "count");

  // Tracing cost: the traced round's spans times the measured cost of one
  // recorded span over an unrecorded one. The difference of the traced and
  // plain rounds' medians is printed too; it holds the same cost, but machine
  // noise between rounds is far larger.
  const auto self = rec.self_times();
  double round_wall = 0.0, round_self = 0.0, spans = 0.0;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const auto& s = rec.spans()[i];
    if (s.run_id != id) continue;
    spans += 1.0;
    if (s.parent < 0) {
      round_wall += s.end - s.start;
      round_self += self[i];
    }
  }
  const double per_span = span_cost_s();
  std::printf("tracing: %.0f spans in the traced round at %.1f ns each; "
              "traced minus plain round medians %.4f s\n",
              spans, per_span * 1e9,
              median(rs.traced_wall) - median(rs.plain_wall));
  out.metric("trace.overhead_s", spans * per_span, "s");
  // Coverage: the round span's children must account for its wall time.
  out.metric("trace.coverage", ratio(round_wall - round_self, round_wall),
             "frac");
}

void serve_layer_metrics(const serve::ServeReport* r, RunRecord& out) {
  const serve::ServeReport empty;
  const serve::ServeReport& s = r != nullptr ? *r : empty;
  std::size_t peak = 0;
  for (const auto& n : s.per_node) peak = std::max(peak, n.peak_queue);
  std::uint64_t predicted = 0;
  for (const auto& n : s.per_node) predicted += n.admitted - n.shed;
  out.metric("serve.batches", static_cast<double>(s.batches), "count");
  out.metric("serve.mean_batch",
             ratio(static_cast<double>(predicted), static_cast<double>(s.batches)),
             "count");
  out.metric("serve.hops_per_query",
             ratio(static_cast<double>(s.escalation_hops),
                   static_cast<double>(s.served)),
             "count");
  out.metric("serve.queue.peak", static_cast<double>(peak), "count");
  out.metric("serve.shed.admission", static_cast<double>(s.shed_admission),
             "count");
  out.metric("serve.vp99_ms", s.p99_latency_ns / 1e6, "ms");
}

void train_metrics(const std::vector<Deployment>& deps, const Options& opt,
                   RunRecord& out) {
  std::vector<double> train;
  for (const auto& d : deps) train.push_back(d.train_s);
  out.timed("train_s", train, "s");
  out.metric("train_bytes", static_cast<double>(deps.front().train_comm.bytes),
             "B");
  out.digest.emplace_back("train_bytes",
                          std::to_string(deps.front().train_comm.bytes));
  // Every set-up trains the same deployment, so training must repeat exactly.
  std::vector<core::CommStats> comms;
  for (const auto& d : deps) comms.push_back(d.train_comm);
  if (opt.tamper) comms.back().bytes += 1;
  const bool same = std::all_of(comms.begin(), comms.end(),
                                [&](const auto& c) { return c == comms.front(); });
  out.check("setup_training_repeats", same,
            std::to_string(comms.size()) + " set-ups");
}

// ---- serving plane --------------------------------------------------------------

/// Virtual arrival rate per origin. The gateway and the central node take
/// the escalated share of every leaf's traffic, so they saturate first: at
/// this rate (36 kHz over PAMAP2's 3 leaves) their micro-batches average
/// 23 to 29 of ServeConfig::max_batch (32), no queue passes 70 of its 256
/// places and nothing is shed (measured over 20 seeds). A leaf's own batches
/// average 12 to 14: filling them would take 32 kHz per leaf and overload the
/// nodes above.
constexpr double kServeRateHz = 12000.0;
/// Virtual time one round's arrivals span.
constexpr net::SimTime kServeHorizon = 120 * net::kMillisecond;
/// Engine replies compared with infer_routed_batch.
constexpr std::size_t kCheckedReplies = 600;

/// The engine must answer exactly as the synchronous routed walk does: the
/// first kCheckedReplies replies of `rep` are asked again through
/// infer_routed_batch on the same system.
void check_engine(const core::EdgeHdSystem& sys, const data::Dataset& ds,
                  const serve::ServeReport& rep, const Options& opt,
                  RunRecord& out) {
  const auto leaves = sys.topology().leaves();
  std::vector<std::vector<std::size_t>> idx(leaves.size());
  const std::size_t n = std::min(kCheckedReplies, rep.replies.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto at = std::find(leaves.begin(), leaves.end(), rep.replies[i].origin);
    idx[static_cast<std::size_t>(at - leaves.begin())].push_back(i);
  }
  std::size_t mismatches = 0;
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    std::vector<std::vector<float>> xs;
    for (const auto i : idx[l]) xs.push_back(ds.test_x[rep.replies[i].sample]);
    const auto ref = sys.infer_routed_batch(xs, leaves[l]);
    for (std::size_t k = 0; k < ref.size(); ++k) {
      auto got = rep.replies[idx[l][k]].result;
      if (opt.tamper && l == 0 && k == 0) got.label = (got.label + 1) % ds.num_classes;
      if (got.label != ref[k].label || got.node != ref[k].node ||
          got.bytes != ref[k].bytes) {
        ++mismatches;
      }
    }
  }
  out.check("engine_matches_infer_routed_batch", n > 0 && mismatches == 0,
            std::to_string(mismatches) + " of " + std::to_string(n) +
                " replies differ");
}

void print_engine(const core::EdgeHdSystem& sys, const serve::ServeReport& rep,
                  const serve::ServeConfig& scfg) {
  std::printf(
      "engine: %llu queries, served %llu, degraded %llu, unserved %llu, shed "
      "%llu at admission and %llu escalations, batches %llu, virtual p99 "
      "%.3f ms\n",
      static_cast<unsigned long long>(rep.submitted),
      static_cast<unsigned long long>(rep.served),
      static_cast<unsigned long long>(rep.served_degraded),
      static_cast<unsigned long long>(rep.unserved),
      static_cast<unsigned long long>(rep.shed_admission),
      static_cast<unsigned long long>(rep.shed_escalated),
      static_cast<unsigned long long>(rep.batches), rep.p99_latency_ns / 1e6);
  for (std::size_t i = 0; i < rep.per_node.size(); ++i) {
    const auto& n = rep.per_node[i];
    if (n.batches == 0) continue;
    std::printf("engine node %zu (level %zu): admitted %llu, shed %llu, mean "
                "batch %.2f of %zu, peak queue %zu of %zu\n",
                i, sys.topology().level(static_cast<net::NodeId>(i)),
                static_cast<unsigned long long>(n.admitted),
                static_cast<unsigned long long>(n.shed),
                ratio(static_cast<double>(n.admitted - n.shed),
                      static_cast<double>(n.batches)),
                scfg.max_batch, n.peak_queue, scfg.queue_depth);
  }
}

}  // namespace

// ---- workloads ----------------------------------------------------------------

RunRecord serve_open(const Options& opt, SpanRecorder& rec) {
  // A fresh deployment, built before the round and freed when the next one
  // is built, serves every kRoundsPerSetup rounds, so set-up and train() are
  // sampled across the whole run.
  constexpr std::size_t kRoundsPerSetup = 2;
  RunRecord out;
  DeploySpec spec;
  spec.id = data::DatasetId::kPamap2;
  spec.train_cap = 800;
  spec.train = true;
  const serve::ServeConfig scfg;

  std::vector<Deployment> deps;
  std::vector<double> qps;
  std::optional<serve::LoadSpec> load;
  serve::ServeReport first, traced;
  std::uint64_t routed_bytes = 0;
  double central = 0.0;
  ClosedLoop cl;
  const auto prepare = [&](std::size_t r) {
    if (r % kRoundsPerSetup == 0) deploy_next(deps, spec, opt, rec);
  };
  Rounds rs = run_rounds(opt, rec, prepare,
                         [&](std::size_t r, Rounds& self) {
    const auto& sys = *deps.back().sys;
    const auto& ds = *deps.back().ds;
    if (!load) {
      const auto leaves = sys.topology().leaves();
      const auto queries = static_cast<std::uint64_t>(
          kServeRateHz * static_cast<double>(leaves.size()) *
          static_cast<double>(kServeHorizon) / 1e9);
      load = serve::LoadSpec::poisson(
          std::vector<net::NodeId>(leaves.begin(), leaves.end()), kServeRateHz,
          queries, mix64(opt.seed));
    }
    auto engine = sys.serve_start(scfg);
    const Snapshot before = snapshot_registry();
    const auto t0 = Clock::now();
    serve::ServeReport rep;
    {
      const Scope s(rec, "serve.engine_run");
      rep = engine->run(*load);
    }
    const double wall = seconds_since(t0);
    const Snapshot d = delta(before, snapshot_registry());
    qps.push_back(static_cast<double>(rep.served) / wall);
    const auto bytes =
        static_cast<std::uint64_t>(d.at("core.routed.bytes"));
    self.digests.push_back(
        std::to_string(rep.reply_hash) + "|" + std::to_string(rep.served) +
        "|" + std::to_string(rep.correct) + "|" + fmt(rep.p99_latency_ns) +
        "|" + std::to_string(bytes));
    if (r == 0) {
      first = rep;
      routed_bytes = bytes;
      {
        const Scope s(rec, "core.evaluate");
        central = sys.accuracy_at_node(sys.topology().root());
      }
      print_engine(sys, rep, scfg);
      check_engine(sys, ds, rep, opt, out);
    }
    if (rec.enabled && traced.submitted == 0) traced = rep;
    cl.pass(sys, ds, opt, rec);
  });
  determinism_check(rs, opt, out);
  setup_metrics(deps, out);
  train_metrics(deps, opt, out);
  out.metric("central_accuracy", central, "frac");
  out.digest.emplace_back("central_accuracy", fmt(central));
  out.timed("serve_qps", qps, "1/s");
  out.metric("serve_accuracy", ratio(static_cast<double>(first.correct),
                                     static_cast<double>(first.served)),
             "frac");
  out.metric("bytes_per_query", ratio(static_cast<double>(routed_bytes),
                                      static_cast<double>(first.served)),
             "B");
  out.digest.emplace_back("reply_hash", std::to_string(first.reply_hash));
  out.digest.emplace_back("serve_vp99_ms", fmt(first.p99_latency_ns / 1e6));
  out.digest.emplace_back("serve_correct", std::to_string(first.correct));
  out.attempted += first.submitted * rs.digests.size();
  out.failed += (first.shed_admission + first.unserved) * rs.digests.size();
  std::printf("engine: %zu rounds on %zu deployments, %.0f queries/s median\n",
              rs.digests.size(), deps.size(), median(qps));

  cl.report(out);
  if (opt.trace) {
    const auto& dep = deps.back();
    layer_metrics(rs, rec, static_cast<double>(traced.submitted), 0.0, out);
    serve_layer_metrics(&traced, out);
    run_probes(*dep.sys, *dep.ds, opt.threads, out);
  }
  return out;
}

RunRecord train_deep(const Options& opt, SpanRecorder& rec) {
  RunRecord out;
  DeploySpec spec;
  // Each round trains a fresh deployment, built before the round and freed
  // after it, until --seconds have passed; the median of several train()s of
  // a 450-sample train split is steadier than one long train(). The routed
  // evaluation of the test split is repeated kEvalPasses times per round, so
  // serve_qps is a median over as many timings.
  constexpr std::size_t kEvalPasses = 4;
  spec.id = data::DatasetId::kPecan;
  spec.train_cap = 450;
  spec.deep = true;

  std::vector<Deployment> deps;
  std::vector<double> train_s, eval_qps;
  core::CommStats comm0;
  double root_acc = 0.0, routed_acc = 0.0, routed_bytes = 0.0;
  std::uint64_t unserved = 0, queries = 0;
  ClosedLoop cl;
  const auto prepare = [&](std::size_t) { deploy_next(deps, spec, opt, rec); };
  Rounds rs = run_rounds(opt, rec, prepare,
                         [&](std::size_t r, Rounds& self) {
    auto& sys = *deps.back().sys;
    const auto& ds = *deps.back().ds;
    const auto root = sys.topology().root();
    const OriginGroups groups = group_by_origin(sys, ds);
    const Snapshot before = snapshot_registry();
    const auto t0 = Clock::now();
    core::CommStats comm;
    if (rec.enabled) {
      // train() is exactly these two phases (no dimension regeneration).
      {
        const Scope s(rec, "core.train_initial");
        comm = sys.train_initial();
      }
      const Scope s(rec, "core.retrain");
      comm += sys.retrain_batches();
    } else {
      const Scope s(rec, "core.train");
      comm = sys.train();
    }
    train_s.push_back(seconds_since(t0));
    const Snapshot d = delta(before, snapshot_registry());

    double acc = 0.0, level1 = 0.0;
    {
      const Scope s(rec, "core.evaluate");
      acc = sys.accuracy_at_node(root);
      level1 = sys.accuracy_at_level(1);
    }
    std::vector<std::vector<core::RoutedResult>> results;
    for (std::size_t pass = 0; pass < kEvalPasses; ++pass) {
      results.clear();
      const auto t1 = Clock::now();
      {
        const Scope s(rec, "core.infer_routed_batch");
        const auto& g = groups;
        for (std::size_t l = 0; l < g.origins.size(); ++l) {
          results.push_back(sys.infer_routed_batch(g.xs[l], g.origins[l]));
        }
      }
      eval_qps.push_back(static_cast<double>(ds.test_size()) / seconds_since(t1));
    }
    std::uint64_t correct = 0, bytes = 0, lost = 0;
    for (std::size_t l = 0; l < results.size(); ++l) {
      for (std::size_t k = 0; k < results[l].size(); ++k) {
        correct += results[l][k].label == groups.labels[l][k] ? 1 : 0;
        bytes += results[l][k].bytes;
        lost += results[l][k].served() ? 0 : 1;
      }
    }
    self.digests.push_back(std::to_string(comm.bytes) + "|" +
                           std::to_string(comm.messages) + "|" + fmt(acc) +
                           "|" + fmt(level1) + "|" + std::to_string(correct) +
                           "|" + std::to_string(bytes));
    if (r == 0) {
      comm0 = comm;
      root_acc = acc;
      routed_acc = static_cast<double>(correct) / static_cast<double>(ds.test_size());
      routed_bytes = static_cast<double>(bytes) / static_cast<double>(ds.test_size());
      unserved = lost;
      queries = ds.test_size();

      // Every training byte is charged to exactly one message type.
      double typed = 0.0;
      for (const auto& [name, v] : d) {
        if (name.rfind("proto.", 0) == 0 && name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".bytes") == 0) {
          typed += v;
        }
      }
      const double expect = static_cast<double>(comm.bytes) + (opt.tamper ? 1.0 : 0.0);
      out.check("proto_bytes_sum_to_train_bytes", typed == expect,
                fmt(typed) + " typed vs " + fmt(expect) + " CommStats");
      const double top = opt.tamper ? level1 - 0.01 : acc;
      out.check("root_accuracy_at_least_level1", top >= level1,
                "root " + fmt(top) + ", level 1 mean " + fmt(level1));
    }
    cl.pass(sys, ds, opt, rec);
  });
  determinism_check(rs, opt, out);
  setup_metrics(deps, out);
  const std::size_t rounds = rs.digests.size();

  out.timed("train_s", train_s, "s");
  out.metric("train_bytes", static_cast<double>(comm0.bytes), "B");
  out.metric("central_accuracy", root_acc, "frac");
  out.timed("serve_qps", eval_qps, "1/s");
  out.metric("serve_accuracy", routed_acc, "frac");
  out.metric("bytes_per_query", routed_bytes, "B");
  out.digest.emplace_back("train_bytes", std::to_string(comm0.bytes));
  out.digest.emplace_back("central_accuracy", fmt(root_acc));
  out.attempted += rounds * (1 + kEvalPasses * queries);
  out.failed += rounds * kEvalPasses * unserved;
  std::printf("train: %zu rounds, train() %.3f s median, %llu bytes, root "
              "accuracy %.4f\n",
              rounds, median(train_s),
              static_cast<unsigned long long>(comm0.bytes), root_acc);

  cl.report(out);
  if (opt.trace) {
    const auto& d = deps.back();
    layer_metrics(rs, rec, 1.0, static_cast<double>(d.ds->train_size()), out);
    serve_layer_metrics(nullptr, out);
    run_probes(*d.sys, *d.ds, opt.threads, out);
  }
  return out;
}

}  // namespace perfbench
