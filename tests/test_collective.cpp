// Differential suite for the fused subtree reduce (src/proto/collective.*).
//
// The fused schedule's contract is that it is a *lossless rearrangement* of
// the point-to-point reference: ReducePartial frames scatter into the same
// inboxes the per-message path fills. So the tests here are differential:
// run the reference and the fused schedule on the same seeded world and
// demand bit-identical models — across randomized topologies, worker
// counts, and seeded fault plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "hdc/random.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "proto/collective.hpp"
#include "proto/envelope.hpp"
#include "proto/messages.hpp"
#include "proto/node_runtime.hpp"

namespace {

using namespace edgehd;
using net::NodeId;
using proto::CollectiveAlgo;
using proto::Envelope;

// ---- randomized topologies --------------------------------------------------

/// Seeded random tree: 1-4 leaf-to-root hops, per-node fan-out 1-8, total
/// width capped so the synthetic dataset keeps a few features per leaf.
net::Topology random_tree(hdc::Rng& rng, std::size_t max_leaves = 24) {
  const std::size_t hops = 1 + rng.index(4);
  std::vector<NodeId> parents{net::kNoNode};
  std::vector<NodeId> frontier{0};
  for (std::size_t level = 0; level < hops; ++level) {
    std::vector<NodeId> next;
    for (std::size_t at = 0; at < frontier.size(); ++at) {
      // Every remaining frontier node still needs >= 1 child, so budget the
      // fan-out to keep the final width within max_leaves.
      const std::size_t reserve = frontier.size() - at - 1;
      const std::size_t budget =
          max_leaves > next.size() + reserve ? max_leaves - next.size() - reserve
                                             : 1;
      const std::size_t fan = 1 + rng.index(std::min<std::size_t>(8, budget));
      for (std::size_t k = 0; k < fan; ++k) {
        next.push_back(parents.size());
        parents.push_back(frontier[at]);
      }
    }
    frontier = std::move(next);
  }
  return net::Topology(std::move(parents));
}

data::Dataset dataset_for(const net::Topology& topo, std::uint64_t seed) {
  const std::size_t leaves = topo.leaves().size();
  const std::vector<std::size_t> parts(leaves, 3);
  auto ds = data::make_synthetic("coll" + std::to_string(seed), 3 * leaves, 3,
                                 parts, 180, 30, 70 + seed, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  return ds;
}

core::SystemConfig base_cfg(const net::Topology& topo) {
  core::SystemConfig cfg;
  cfg.total_dim = 40 * topo.leaves().size();
  cfg.batch_size = 5;
  return cfg;
}

void expect_models_identical(const core::EdgeHdSystem& a,
                             const core::EdgeHdSystem& b,
                             const std::string& what) {
  const auto& topo = a.topology();
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    if (!a.has_classifier(id)) continue;
    for (std::size_t c = 0; c < a.classifier_at(id).num_classes(); ++c) {
      ASSERT_EQ(a.classifier_at(id).class_accumulator(c),
                b.classifier_at(id).class_accumulator(c))
          << what << ": node " << id << " class " << c;
    }
  }
}

// ---- facade differential ----------------------------------------------------

TEST(CollectiveDifferential, RandomTopologiesBitIdenticalAcrossSchedules) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    hdc::Rng rng(900 + seed);
    const auto topo = random_tree(rng);
    const auto ds = dataset_for(topo, seed);
    const auto cfg = base_cfg(topo);

    core::EdgeHdSystem ref(ds, topo, cfg);
    const auto ref_comm = ref.train_initial() + ref.retrain_batches();

    // Three collective modes: pinned fusion, cost-model argmin on a wired
    // link, cost-model argmin on the shared wireless default.
    for (const int mode : {0, 1, 2}) {
      auto ccfg = cfg;
      ccfg.collective.enabled = true;
      if (mode == 0) {
        ccfg.collective.force = CollectiveAlgo::kTreeReduce;
      } else {
        ccfg.collective.medium = mode == 1 ? net::MediumKind::kWired1G
                                           : net::MediumKind::kWifi80211n;
      }
      core::EdgeHdSystem sys(ds, topo, ccfg);
      const auto comm = sys.train_initial() + sys.retrain_batches();
      expect_models_identical(ref, sys,
                              "seed " + std::to_string(seed) + " mode " +
                                  std::to_string(mode));
      if (mode == 0 && topo.num_nodes() > 1) {
        // Forced fusion: one frame per (edge, phase) plus the two plan
        // announcements replaces every per-(class, batch) frame.
        EXPECT_LT(comm.messages, ref_comm.messages) << "seed " << seed;
      }
    }
  }
}

TEST(CollectiveDifferential, WorkerCountsDoNotChangeCollectiveModels) {
  hdc::Rng rng(77);
  const auto topo = random_tree(rng);
  const auto ds = dataset_for(topo, 77);
  auto cfg = base_cfg(topo);
  cfg.collective.enabled = true;
  cfg.collective.force = CollectiveAlgo::kTreeReduce;

  cfg.num_threads = 1;
  core::EdgeHdSystem one(ds, topo, cfg);
  const auto comm_one = one.train_initial() + one.retrain_batches();
  for (const std::size_t workers : {2u, 8u}) {
    cfg.num_threads = workers;
    core::EdgeHdSystem sys(ds, topo, cfg);
    const auto comm = sys.train_initial() + sys.retrain_batches();
    expect_models_identical(one, sys,
                            "workers " + std::to_string(workers));
    EXPECT_EQ(comm.bytes, comm_one.bytes) << workers;
    EXPECT_EQ(comm.messages, comm_one.messages) << workers;
  }
}

TEST(CollectiveDifferential, SeededFaultPlansPreserveBitIdentity) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    hdc::Rng rng(1300 + seed);
    const auto topo = random_tree(rng);
    if (topo.num_nodes() < 3) continue;  // want a non-root node to fail
    const auto ds = dataset_for(topo, seed);
    const auto cfg = base_cfg(topo);
    auto ccfg = cfg;
    ccfg.collective.enabled = true;
    ccfg.collective.force = CollectiveAlgo::kTreeReduce;

    core::EdgeHdSystem ref(ds, topo, cfg);
    core::EdgeHdSystem sys(ds, topo, ccfg);

    // Crash one random non-root node and cut one random uplink for the
    // whole training pass; both systems see the identical seeded world.
    net::FaultPlan plan(seed);
    const NodeId dead = 1 + rng.index(topo.num_nodes() - 1);
    const NodeId cut = 1 + rng.index(topo.num_nodes() - 1);
    plan.crash(dead, 0, net::kForever);
    plan.outage(cut, 0, net::kForever);
    ref.set_fault_plan(plan, 0);
    sys.set_fault_plan(plan, 0);

    const auto ref_comm = ref.train_initial() + ref.retrain_batches();
    const auto comm = sys.train_initial() + sys.retrain_batches();
    (void)ref_comm;
    (void)comm;
    EXPECT_EQ(ref.stragglers(), sys.stragglers()) << "seed " << seed;
    expect_models_identical(ref, sys, "faulted seed " + std::to_string(seed));

    // Recovery: reintegration ships the same point-to-point deltas in both
    // modes, so models and bytes stay in lockstep.
    ref.clear_health();
    sys.clear_health();
    const auto ref_re = ref.reintegrate_stragglers();
    const auto re = sys.reintegrate_stragglers();
    EXPECT_EQ(ref_re.bytes, re.bytes) << "seed " << seed;
    EXPECT_EQ(ref_re.messages, re.messages) << "seed " << seed;
    expect_models_identical(ref, sys, "recovered seed " + std::to_string(seed));
    EXPECT_EQ(ref.stragglers(), sys.stragglers()) << "seed " << seed;
  }
}

// ---- NodeRuntime scatter contract -------------------------------------------

hdc::AccumHV random_accum(std::size_t dim, std::int32_t magnitude,
                          std::uint64_t seed) {
  hdc::Rng rng(seed);
  hdc::AccumHV acc(dim);
  for (auto& v : acc) {
    v = static_cast<std::int32_t>(rng.index(2 * magnitude + 1)) - magnitude;
  }
  return acc;
}

TEST(CollectiveScatter, FusedFrameMatchesPerClassDelivery) {
  // A gateway fed one fused initial-training frame must close its phase with
  // exactly the accumulators of a twin fed per-class ModelUpdates.
  const auto topo = net::Topology::paper_tree(4);
  const NodeId gw = topo.parent(topo.leaves().front());
  const auto kids = topo.children(gw);

  proto::NodeRuntime fused, plain;
  for (auto* rt : {&fused, &plain}) {
    rt->init(gw, topo, 16, 2);
    rt->install_aggregator(std::make_unique<hier::HierEncoder>(
        std::vector<std::size_t>(kids.size(), 16), 16, 99));
    rt->begin_initial_training();
  }
  for (std::size_t k = 0; k < kids.size(); ++k) {
    const std::vector<hdc::AccumHV> contrib{
        random_accum(16, 30, 900 + k), random_accum(16, 30, 910 + k)};
    fused.on_envelope({proto::kProtoVersion, kids[k], gw,
                       proto::ReducePartial{
                           proto::kReduceInitial,
                           static_cast<std::uint32_t>(kids[k]), contrib}});
    plain.on_envelope({proto::kProtoVersion, kids[k], gw,
                       proto::ModelUpdate{0, contrib[0]}});
    plain.on_envelope({proto::kProtoVersion, kids[k], gw,
                       proto::ModelUpdate{1, contrib[1]}});
  }
  EXPECT_EQ(fused.finish_initial_training({}, {}),
            plain.finish_initial_training({}, {}));
}

TEST(CollectiveScatter, MalformedFusedFramesAreProtocolViolations) {
  const auto topo = net::Topology::paper_tree(4);
  const NodeId gw = topo.parent(topo.leaves().front());
  const NodeId child = topo.children(gw).front();
  proto::NodeRuntime rt;
  rt.init(gw, topo, 8, 2);

  const std::vector<hdc::AccumHV> two{random_accum(8, 3, 920),
                                      random_accum(8, 3, 921)};
  const Envelope initial{proto::kProtoVersion, child, gw,
                         proto::ReducePartial{proto::kReduceInitial,
                                              static_cast<std::uint32_t>(child),
                                              two}};
  // Training frames outside their phase are violations…
  EXPECT_THROW(rt.on_envelope(initial), std::logic_error);
  rt.begin_initial_training();
  // …as are section counts that disagree with the announced schedule.
  EXPECT_THROW(
      rt.on_envelope({proto::kProtoVersion, child, gw,
                      proto::ReducePartial{proto::kReduceInitial,
                                           static_cast<std::uint32_t>(child),
                                           {random_accum(8, 3, 922)}}}),
      std::logic_error);
  // Phase bytes other than initial/batch training fail closed.
  for (const std::uint8_t phase : {2, 3, 9}) {
    EXPECT_THROW(
        rt.on_envelope({proto::kProtoVersion, child, gw,
                        proto::ReducePartial{
                            phase, static_cast<std::uint32_t>(child), two}}),
        std::logic_error)
        << "phase " << int{phase};
  }
  EXPECT_NO_THROW(rt.on_envelope(initial));
}

}  // namespace
