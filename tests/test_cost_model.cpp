// Unit tests for the deployment cost model (src/core/cost_model.*) and the
// collective-schedule cost model (src/proto/collective.*).
#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "data/dataset.hpp"
#include "net/medium.hpp"
#include "net/topology.hpp"
#include "proto/collective.hpp"

namespace {

using namespace edgehd;
using core::CostModel;
using core::Deployment;
using core::WorkloadShape;
using proto::CollectiveAlgo;
using proto::CollectiveCostModel;

WorkloadShape pamap_shape() {
  return WorkloadShape::from_spec(data::spec(data::DatasetId::kPamap2));
}

TEST(CostModel, ShapeFromSpecMatchesTableOne) {
  const auto s = pamap_shape();
  EXPECT_EQ(s.num_features, 75u);
  EXPECT_EQ(s.num_classes, 5u);
  EXPECT_EQ(s.train_size, 611142u);
  EXPECT_EQ(s.partitions.size(), 3u);
  EXPECT_EQ(s.partitions[0] + s.partitions[1] + s.partitions[2], 75u);
  // Non-hierarchical specs collapse to one partition.
  const auto m = WorkloadShape::from_spec(data::spec(data::DatasetId::kMnist));
  EXPECT_EQ(m.partitions.size(), 1u);
}

TEST(CostModel, ValidatesShape) {
  WorkloadShape bad = pamap_shape();
  bad.partitions = {10, 10};  // does not sum to 75
  EXPECT_THROW(CostModel{bad}, std::invalid_argument);
}

TEST(CostModel, BatchCountFollowsTheProtocol) {
  const CostModel model(pamap_shape());
  // 5 classes, ~122229 samples each, B = 75 -> 1630 batches per class.
  EXPECT_EQ(model.num_batches(), 5u * 1630);
}

TEST(CostModel, OperationCountsAreInternallyConsistent) {
  const CostModel model(pamap_shape());
  // Sparse encoding is cheaper than dense.
  EXPECT_LT(model.hd_central_train_macs(true),
            model.hd_central_train_macs(false));
  EXPECT_LT(model.hd_central_infer_macs_per_query(true),
            model.hd_central_infer_macs_per_query(false));
  // DNN training is epoch-scaled forward+backward work.
  EXPECT_GT(model.dnn_train_macs(),
            model.dnn_infer_macs_per_query() * model.shape().train_size);
}

TEST(CostModel, AllDeploymentsProducePositiveCosts) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  for (const auto dep : {Deployment::kDnnGpu, Deployment::kHdGpu,
                         Deployment::kHdFpga, Deployment::kEdgeHd}) {
    const auto costs = model.evaluate(dep, topo, medium);
    EXPECT_GT(costs.train.time, 0);
    EXPECT_GT(costs.train.energy_j, 0.0);
    EXPECT_GT(costs.train.bytes, 0u);
    EXPECT_GT(costs.infer.time, 0);
  }
}

TEST(CostModel, EdgeHdMovesFewerBytesThanCentralized) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  const auto central = model.evaluate(Deployment::kHdFpga, topo, medium);
  const auto edge = model.evaluate(Deployment::kEdgeHd, topo, medium);
  EXPECT_LT(edge.train.bytes, central.train.bytes);
  EXPECT_LT(edge.infer.bytes, central.infer.bytes);
}

TEST(CostModel, LowerBandwidthSlowsCentralizedTraining) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto fast = model.evaluate(Deployment::kHdFpga, topo,
                                   net::medium(net::MediumKind::kWired1G));
  const auto slow = model.evaluate(Deployment::kHdFpga, topo,
                                   net::medium(net::MediumKind::kBluetooth4));
  EXPECT_GT(slow.train.time, fast.train.time);
}

TEST(CostModel, DnnIsSlowestToTrainOnGpuClassPlatforms) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  const auto dnn = model.evaluate(Deployment::kDnnGpu, topo, medium);
  const auto hd = model.evaluate(Deployment::kHdGpu, topo, medium);
  EXPECT_GT(dnn.train.time, hd.train.time);
  EXPECT_GT(dnn.train.energy_j, hd.train.energy_j);
}

TEST(CostModel, InferenceLevelTradesLatencyForCoverage) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWifi80211n);
  const auto l1 = model.edgehd_query_latency(topo, medium, 1);
  const auto l2 = model.edgehd_query_latency(topo, medium, 2);
  const auto l3 = model.edgehd_query_latency(topo, medium, 3);
  EXPECT_LT(l1, l2);
  EXPECT_LT(l2, l3);
}

TEST(CostModel, LocalInferenceBeatsCentralizedLatencyOnSlowNetworks) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& bt = net::medium(net::MediumKind::kBluetooth4);
  const auto central = model.centralized_query_latency(
      topo, bt, net::hd_fpga_central(),
      model.hd_central_infer_macs_per_query(true));
  EXPECT_GT(central, model.edgehd_query_latency(topo, bt, 1));
}

TEST(CostModel, RoutedInferenceCostsLessThanAllCentral) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  const auto routed = model.edgehd_inference_routed(topo, medium);
  const auto all_central = model.edgehd_inference_at_level(topo, medium, 3);
  EXPECT_LT(routed.bytes, all_central.bytes);
}

TEST(CostModel, ValidatesLevelArguments) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  EXPECT_THROW(model.edgehd_inference_at_level(topo, medium, 0),
               std::invalid_argument);
  EXPECT_THROW(model.edgehd_inference_at_level(topo, medium, 9),
               std::invalid_argument);
  EXPECT_THROW(model.edgehd_inference_at_level(topo, medium, 2, 0.0),
               std::invalid_argument);
  EXPECT_THROW(model.edgehd_query_latency(topo, medium, 0),
               std::invalid_argument);
}

TEST(CostModel, WirelessSharedDomainHurtsDeepCentralizedTrees) {
  // With a shared wireless medium, per-hop forwarding serializes: deeper
  // centralized hierarchies pay more (the Figure 13 mechanism).
  const CostModel model(pamap_shape());
  const auto& wifi = net::medium(net::MediumKind::kWifi80211n);
  const auto shallow = model.evaluate(
      Deployment::kHdFpga, net::Topology::uniform_depth(3, 2), wifi);
  const auto deep = model.evaluate(
      Deployment::kHdFpga, net::Topology::uniform_depth(3, 5), wifi);
  EXPECT_GT(deep.train.time, shallow.train.time);
}

// ---- CollectiveCostModel ----------------------------------------------------

/// Lab medium serializing exactly one byte per nanosecond (8e9 bps), so the
/// closed forms below stay integer-exact: hop_time(F, S) = F*latency + S ns.
net::Medium lab_medium(net::SimTime latency, bool shared) {
  net::Medium m = net::medium(net::MediumKind::kWired1G);
  m.bandwidth_bps = 8e9;
  m.latency = latency;
  m.shared_domain = shared;
  return m;
}

TEST(CollectiveCost, StarReduceMatchesClosedForm) {
  const auto topo = net::Topology::star(2);
  const CollectiveCostModel wired(topo, lab_medium(100, false));
  // One parent, two children: a wired parent serializes its own children,
  // so the level drains in fan_in * (F*latency + ser(S)) = 2 * (300 + 1000).
  const auto costs = wired.reduce_to_root(3, 1000);
  EXPECT_EQ(costs.time, 2 * (3 * 100 + 1000));
  EXPECT_EQ(costs.bytes, 2u * 1000);
  const double per_edge_s = (3 * 100 + 1000) / 1e9;
  EXPECT_DOUBLE_EQ(
      costs.energy_j,
      2 * (wired.medium().tx_power_w + wired.medium().rx_power_w) *
          per_edge_s);
  // Broadcast is the reduce at F = 1 by the per-hop model's symmetry.
  const auto bc = wired.broadcast_from_root(1000);
  EXPECT_EQ(bc.time, 2 * (100 + 1000));
  EXPECT_EQ(bc.bytes, 2u * 1000);
  // Nothing to ship, nothing charged.
  EXPECT_EQ(wired.reduce_to_root(0, 1000).time, 0);
  EXPECT_EQ(wired.reduce_to_root(0, 1000).bytes, 0u);
}

TEST(CollectiveCost, PaperTreeReduceSharedVsWired) {
  // paper_tree(4): 4 leaf edges into 2 gateways, 2 gateway edges into the
  // root. Wired levels drain at the slowest parent; a shared medium is one
  // collision domain, so every edge of a level serializes.
  const auto topo = net::Topology::paper_tree(4);
  const std::int64_t e = 2 * 100 + 500;  // edge_time at F=2, S=500
  const CollectiveCostModel wired(topo, lab_medium(100, false));
  const auto w = wired.reduce_to_root(2, 500);
  EXPECT_EQ(w.time, 2 * e + 2 * e);
  EXPECT_EQ(w.bytes, 6u * 500);
  const CollectiveCostModel shared(topo, lab_medium(100, true));
  const auto s = shared.reduce_to_root(2, 500);
  EXPECT_EQ(s.time, 4 * e + 2 * e);
  EXPECT_EQ(s.bytes, w.bytes);
  EXPECT_GT(s.time, w.time);
}

TEST(CollectiveCost, MonotoneInLatencyBandwidthAndPayload) {
  const auto topo = net::Topology::paper_tree(4);
  for (const bool shared : {false, true}) {
    const CollectiveCostModel base(topo, lab_medium(1000, shared));
    const CollectiveCostModel slower(topo, lab_medium(2000, shared));
    auto narrow_m = lab_medium(1000, shared);
    narrow_m.bandwidth_bps /= 4;
    const CollectiveCostModel narrow(topo, narrow_m);
    for (const std::uint64_t frames : {1u, 5u}) {
      const auto ref = base.reduce_to_root(frames, 4096);
      EXPECT_GT(slower.reduce_to_root(frames, 4096).time, ref.time);
      EXPECT_GT(narrow.reduce_to_root(frames, 4096).time, ref.time);
      EXPECT_GT(base.reduce_to_root(frames, 8192).time, ref.time);
      EXPECT_GT(base.reduce_to_root(frames + 1, 4096).time, ref.time);
      EXPECT_GT(base.reduce_to_root(frames, 8192).energy_j, ref.energy_j);
    }
  }
}

TEST(CollectiveCost, PickReducePrefersFusionOnlyWhenFramesAmortizeThePlan) {
  const auto topo = net::Topology::paper_tree(4);
  const CollectiveCostModel m(topo, lab_medium(net::kMillisecond, true));
  // One frame per edge: fusing saves nothing and still pays the plan
  // broadcast, so the legacy flow wins (ties also break to kPointToPoint).
  EXPECT_EQ(m.pick_reduce(1, 4096, 4096), CollectiveAlgo::kPointToPoint);
  // Many frames per edge amortize the plan: one fused frame per edge wins
  // even with zero payload savings, on latency alone.
  EXPECT_EQ(m.pick_reduce(10, 40960, 40960), CollectiveAlgo::kTreeReduce);
  // Deterministic argmin: same inputs, same answer, every time.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(m.pick_reduce(10, 40960, 40960), CollectiveAlgo::kTreeReduce);
    EXPECT_EQ(m.pick_reduce(1, 4096, 4096), CollectiveAlgo::kPointToPoint);
  }
}

}  // namespace
