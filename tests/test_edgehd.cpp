// Integration tests for the EdgeHD engine (src/core/edgehd.*).
#include <gtest/gtest.h>

#include <numeric>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "reference_routing.hpp"

namespace {

using namespace edgehd;

data::Dataset four_node_dataset(std::size_t train = 800, std::size_t test = 300) {
  auto ds = data::make_synthetic("hier", 40, 3, {10, 10, 10, 10}, train, test,
                                 51, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  return ds;
}

core::SystemConfig small_cfg() {
  core::SystemConfig cfg;
  cfg.total_dim = 1000;
  cfg.batch_size = 4;
  return cfg;
}

TEST(EdgeHd, ValidatesTopologyAgainstPartitions) {
  const auto ds = four_node_dataset(50, 20);
  EXPECT_THROW(core::EdgeHdSystem(ds, net::Topology::paper_tree(3)),
               std::invalid_argument);
  core::SystemConfig bad = small_cfg();
  bad.classify_min_level = 9;
  EXPECT_THROW(core::EdgeHdSystem(ds, net::Topology::paper_tree(4), bad),
               std::invalid_argument);
}

TEST(EdgeHd, AllocatesDimsAndClassifiersPerLevel) {
  const auto ds = four_node_dataset(50, 20);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  const auto& topo = sys.topology();
  // Equal feature slices -> equal leaf dims of D/4.
  for (const auto leaf : topo.leaves()) {
    EXPECT_EQ(sys.node_dim(leaf), 250u);
    EXPECT_TRUE(sys.has_classifier(leaf));
  }
  EXPECT_EQ(sys.node_dim(topo.root()), 1000u);
  EXPECT_TRUE(sys.has_classifier(topo.root()));
}

TEST(EdgeHd, ClassifyMinLevelSkipsLowNodes) {
  const auto ds = four_node_dataset(50, 20);
  auto cfg = small_cfg();
  cfg.classify_min_level = 2;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  for (const auto leaf : sys.topology().leaves()) {
    EXPECT_FALSE(sys.has_classifier(leaf));
  }
  EXPECT_TRUE(sys.has_classifier(sys.topology().root()));
  EXPECT_THROW(sys.classifier_at(sys.topology().leaves().front()),
               std::invalid_argument);
  EXPECT_THROW(sys.accuracy_at_level(1), std::invalid_argument);
}

TEST(EdgeHd, EncodeAllProducesPerNodeDims) {
  const auto ds = four_node_dataset(30, 10);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  const auto hvs = sys.encode_all(ds.train_x[0]);
  ASSERT_EQ(hvs.size(), sys.topology().num_nodes());
  for (net::NodeId id = 0; id < hvs.size(); ++id) {
    EXPECT_EQ(hvs[id].size(), sys.node_dim(id));
  }
  const std::vector<float> wrong(7, 0.0F);
  EXPECT_THROW(sys.encode_all(wrong), std::invalid_argument);
}

TEST(EdgeHd, TrainingReportsCommunicationAndLearns) {
  const auto ds = four_node_dataset();
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  const auto comm = sys.train();
  EXPECT_GT(comm.bytes, 0u);
  EXPECT_GT(comm.messages, 0u);
  EXPECT_GT(sys.accuracy_at_node(sys.topology().root()), 0.6);
}

TEST(EdgeHd, AccuracyImprovesUpTheHierarchy) {
  const auto ds = four_node_dataset();
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  sys.train();
  // Central node sees every feature; end nodes see a quarter each. The
  // ordering claim of Table II.
  EXPECT_GT(sys.accuracy_at_level(3), sys.accuracy_at_level(1));
}

TEST(EdgeHd, SmallerBatchesCostMoreBytes) {
  const auto ds = four_node_dataset(400, 50);
  auto cfg = small_cfg();
  cfg.batch_size = 2;
  core::EdgeHdSystem fine(ds, net::Topology::paper_tree(4), cfg);
  cfg.batch_size = 40;
  core::EdgeHdSystem coarse(ds, net::Topology::paper_tree(4), cfg);
  EXPECT_GT(fine.retrain_batches().bytes, coarse.retrain_batches().bytes);
}

TEST(EdgeHd, RoutedInferenceEscalatesOnLowConfidence) {
  const auto ds = four_node_dataset();
  auto cfg = small_cfg();
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto start = sys.topology().leaves().front();

  // Threshold 0: always served locally, zero gather bytes at a leaf.
  auto lo_cfg = cfg;
  lo_cfg.confidence_threshold = 0.0;
  core::EdgeHdSystem local(ds, net::Topology::paper_tree(4), lo_cfg);
  local.train();
  const auto r_local = local.infer_routed(ds.test_x[0], start);
  EXPECT_EQ(r_local.level, 1u);
  EXPECT_EQ(r_local.bytes, 0u);

  // Threshold > 1: always escalates to the root.
  auto hi_cfg = cfg;
  hi_cfg.confidence_threshold = 1.1;
  core::EdgeHdSystem global(ds, net::Topology::paper_tree(4), hi_cfg);
  global.train();
  const auto r_global = global.infer_routed(ds.test_x[0], start);
  EXPECT_EQ(r_global.node, global.topology().root());
  EXPECT_EQ(r_global.bytes, global.query_gather_bytes(global.topology().root()));
  EXPECT_GT(r_global.bytes, 0u);
}

TEST(EdgeHd, QueryGatherBytesNestCorrectly) {
  const auto ds = four_node_dataset(50, 20);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  const auto& topo = sys.topology();
  EXPECT_EQ(sys.query_gather_bytes(topo.leaves().front()), 0u);
  const auto gw = topo.parent(topo.leaves().front());
  EXPECT_GT(sys.query_gather_bytes(topo.root()),
            sys.query_gather_bytes(gw));
}

TEST(EdgeHd, OnlineNegativeFeedbackImprovesServingAccuracy) {
  // Split the training data: weak offline model, then online feedback.
  const auto ds = four_node_dataset(1200, 300);
  auto cfg = small_cfg();
  cfg.feedback_weight = 2;  // gentle rate: dense feedback on a strong model
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  std::vector<std::size_t> offline(300);
  std::iota(offline.begin(), offline.end(), 0);
  sys.train(offline);
  const auto root = sys.topology().root();
  const double before = sys.accuracy_at_node(root);

  const auto leaves = sys.topology().leaves();
  for (std::size_t i = 300; i < ds.train_size(); ++i) {
    sys.online_serve(ds.train_x[i], ds.train_y[i], leaves[i % leaves.size()]);
    if (i % 200 == 0) sys.propagate_residuals();
  }
  const auto comm = sys.propagate_residuals();
  const double after = sys.accuracy_at_node(root);
  EXPECT_GE(after, before - 0.06);  // never collapses
  EXPECT_GT(after, 0.5);
  // Residual propagation was exercised at least once with traffic.
  EXPECT_GE(comm.messages, 0u);
}

TEST(EdgeHd, ResidualPropagationWithoutFeedbackIsFree) {
  const auto ds = four_node_dataset(100, 30);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  sys.train();
  const auto comm = sys.propagate_residuals();
  EXPECT_EQ(comm.bytes, 0u);
  EXPECT_EQ(comm.messages, 0u);
}

// The Figure-12 fault-injection surface, exercised under *both* aggregation
// modes: each mode must degrade gracefully on its own, and holographic must
// degrade no worse than concatenation (the paper's robustness claim).
class AggregationLoss
    : public ::testing::TestWithParam<hier::AggregationMode> {
 protected:
  static core::SystemConfig cfg_for(hier::AggregationMode mode) {
    auto cfg = small_cfg();
    cfg.aggregation = mode;
    return cfg;
  }
};

TEST_P(AggregationLoss, RandomLossDegradesGracefully) {
  const auto ds = four_node_dataset();
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4),
                         cfg_for(GetParam()));
  sys.train();
  const auto root = sys.topology().root();
  const double clean = sys.accuracy_at_node_with_loss(root, 0.0, 3);
  const double heavy = sys.accuracy_at_node_with_loss(root, 0.6, 3);
  EXPECT_GT(clean, 0.6);
  EXPECT_GE(clean + 0.02, heavy);       // losing signal never helps (modulo
                                        // sampling noise in the erasure draw)
  EXPECT_GT(heavy, 1.0 / 3.0 - 0.05);   // but never collapses below chance
}

TEST_P(AggregationLoss, ZeroLossMatchesTheUndamagedModel) {
  const auto ds = four_node_dataset(400, 100);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4),
                         cfg_for(GetParam()));
  sys.train();
  const auto root = sys.topology().root();
  EXPECT_DOUBLE_EQ(sys.accuracy_at_node_with_loss(root, 0.0, 3),
                   sys.accuracy_at_node_with_burst_loss(root, 0.0, 16, 3));
}

TEST_P(AggregationLoss, BurstLossKeepsAUsableModel) {
  const auto ds = four_node_dataset();
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4),
                         cfg_for(GetParam()));
  sys.train();
  const auto root = sys.topology().root();
  const std::size_t burst = sys.node_dim(sys.topology().leaves()[0]);
  const double clean = sys.accuracy_at_node_with_burst_loss(root, 0.0, burst, 3);
  const double bursty = sys.accuracy_at_node_with_burst_loss(root, 0.5, burst, 3);
  EXPECT_GE(clean + 0.02, bursty);
  EXPECT_GT(bursty, 1.0 / 3.0 - 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AggregationLoss,
    ::testing::Values(hier::AggregationMode::kHolographic,
                      hier::AggregationMode::kConcatenation),
    [](const auto& info) {
      return info.param == hier::AggregationMode::kHolographic
                 ? "Holographic"
                 : "Concatenation";
    });

TEST(EdgeHd, HolographicLossToleranceBeatsConcatenation) {
  const auto ds = four_node_dataset();
  auto holo_cfg = small_cfg();
  core::EdgeHdSystem holo(ds, net::Topology::paper_tree(4), holo_cfg);
  holo.train();
  auto cat_cfg = small_cfg();
  cat_cfg.aggregation = hier::AggregationMode::kConcatenation;
  core::EdgeHdSystem concat(ds, net::Topology::paper_tree(4), cat_cfg);
  concat.train();

  const auto root = holo.topology().root();
  const double holo_drop = holo.accuracy_at_node_with_loss(root, 0.0, 3) -
                           holo.accuracy_at_node_with_loss(root, 0.6, 3);
  const auto croot = concat.topology().root();
  const double cat_drop = concat.accuracy_at_node_with_loss(croot, 0.0, 3) -
                          concat.accuracy_at_node_with_loss(croot, 0.6, 3);
  // The Figure 12 claim: holographic degrades no worse than concatenation.
  EXPECT_LE(holo_drop, cat_drop + 0.05);
}

TEST(EdgeHd, BurstLossFavorsHolographicAggregation) {
  // Packet-sized contiguous erasures take out a whole child block under
  // concatenation but thin all children uniformly under the holographic
  // projection (the Figure 12 mechanism): holographic degrades more
  // gracefully, in both absolute accuracy and accuracy drop.
  const auto ds = four_node_dataset();
  core::EdgeHdSystem holo(ds, net::Topology::paper_tree(4), small_cfg());
  holo.train();
  auto cat_cfg = small_cfg();
  cat_cfg.aggregation = hier::AggregationMode::kConcatenation;
  core::EdgeHdSystem concat(ds, net::Topology::paper_tree(4), cat_cfg);
  concat.train();

  const auto root = holo.topology().root();
  const auto croot = concat.topology().root();
  const std::size_t burst = concat.node_dim(concat.topology().leaves()[0]);
  const double holo_acc =
      holo.accuracy_at_node_with_burst_loss(root, 0.5, burst, 3);
  const double cat_acc =
      concat.accuracy_at_node_with_burst_loss(croot, 0.5, burst, 3);
  EXPECT_GE(holo_acc, cat_acc - 0.03);
  const double holo_drop =
      holo.accuracy_at_node_with_burst_loss(root, 0.0, burst, 3) - holo_acc;
  const double cat_drop =
      concat.accuracy_at_node_with_burst_loss(croot, 0.0, burst, 3) - cat_acc;
  EXPECT_LE(holo_drop, cat_drop + 0.03);
}

TEST(EdgeHd, BurstLossValidatesArguments) {
  const auto ds = four_node_dataset(50, 20);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  sys.train();
  const auto root = sys.topology().root();
  EXPECT_THROW(sys.accuracy_at_node_with_burst_loss(root, 0.5, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(sys.accuracy_at_node_with_burst_loss(root, 1.5, 8, 1),
               std::invalid_argument);
}

TEST(EdgeHd, LossFractionValidated) {
  const auto ds = four_node_dataset(50, 20);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  sys.train();
  EXPECT_THROW(sys.accuracy_at_node_with_loss(sys.topology().root(), 1.5, 1),
               std::invalid_argument);
}

TEST(EdgeHd, ScaledBatchSizeFollowsTheRatioRule) {
  EXPECT_EQ(core::scaled_batch_size(75, 611142, 611142), 75u);
  EXPECT_EQ(core::scaled_batch_size(75, 611142, 2000), 1u);   // rounds up to 1
  EXPECT_EQ(core::scaled_batch_size(75, 17385, 2000), 9u);
  EXPECT_EQ(core::scaled_batch_size(75, 0, 100), 75u);
}

TEST(EdgeHd, TrainOnSubsetIsDeterministic) {
  const auto ds = four_node_dataset(200, 50);
  std::vector<std::size_t> subset(100);
  std::iota(subset.begin(), subset.end(), 0);
  core::EdgeHdSystem a(ds, net::Topology::paper_tree(4), small_cfg());
  core::EdgeHdSystem b(ds, net::Topology::paper_tree(4), small_cfg());
  a.train(subset);
  b.train(subset);
  const auto root = a.topology().root();
  for (std::size_t c = 0; c < ds.num_classes; ++c) {
    EXPECT_EQ(a.classifier_at(root).class_accumulator(c),
              b.classifier_at(root).class_accumulator(c));
  }
}

TEST(EdgeHd, StarTopologyAlsoWorks) {
  const auto ds = four_node_dataset(400, 100);
  core::EdgeHdSystem sys(ds, net::Topology::star(4), small_cfg());
  sys.train();
  EXPECT_EQ(sys.topology().depth(), 2u);
  EXPECT_GT(sys.accuracy_at_level(2), 0.5);
}

// ---- on-demand routed encoding vs the eager reference ----------------------

/// 52 two-feature house slices, as on the deep PECAN tree.
data::Dataset deep_dataset() {
  auto ds = data::make_synthetic("deep", 104, 3,
                                 std::vector<std::size_t>(52, 2), 400, 12, 53,
                                 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  return ds;
}

TEST(EdgeHdLazyRouting, PaperTreeMatchesEagerRouting) {
  const auto ds = four_node_dataset(600, 40);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  sys.train();
  const auto diff = reference::expect_routing_matches_eager(sys, ds, 40);
  EXPECT_GT(diff.served_at_start, 0u);
  EXPECT_GT(diff.escalated, 0u);
  if constexpr (obs::kEnabled) {
    // Every query confident at its leaf encoded that leaf alone.
    EXPECT_EQ(diff.one_node_encoded, diff.served_at_start);
  }
}

TEST(EdgeHdLazyRouting, DeepUniformTreeMatchesEagerRouting) {
  const auto ds = deep_dataset();
  auto cfg = small_cfg();
  cfg.total_dim = 2000;
  cfg.min_node_dim = 16;
  core::EdgeHdSystem sys(ds, net::Topology::uniform_depth(52, 5), cfg);
  sys.train();
  const auto diff = reference::expect_routing_matches_eager(sys, ds, 12);
  EXPECT_GT(diff.served_at_start, 0u);
  EXPECT_GT(diff.escalated, 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(diff.one_node_encoded, diff.served_at_start);
  }
}

TEST(EdgeHdLazyRouting, ConcatenationAggregationMatchesEagerRouting) {
  const auto ds = four_node_dataset(600, 40);
  auto cfg = small_cfg();
  cfg.aggregation = hier::AggregationMode::kConcatenation;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto diff = reference::expect_routing_matches_eager(sys, ds, 40);
  EXPECT_GT(diff.served_at_start, 0u);
  EXPECT_GT(diff.escalated, 0u);
}

TEST(EdgeHdLazyRouting, LeafConfidentQueryEncodesOneNode) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (-DEDGEHD_OBS=OFF)";
  }
  const auto ds = four_node_dataset(200, 20);
  auto cfg = small_cfg();
  cfg.confidence_threshold = 0.0;  // every query is answered at its leaf
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto& reg = obs::MetricsRegistry::global();
  const auto leaf = sys.topology().leaves().front();
  const auto encoded0 = reg.counter_value("core.routed.encoded_nodes");
  const auto escalations0 = reg.counter_value("core.routed.escalations");
  const auto r = sys.infer_routed(ds.test_x[0], leaf);
  EXPECT_EQ(r.node, leaf);
  EXPECT_EQ(reg.counter_value("core.routed.encoded_nodes") - encoded0, 1u);
  EXPECT_EQ(reg.counter_value("core.routed.escalations") - escalations0, 0u);
}

TEST(EdgeHdLazyRouting, OnlineFeedbackTargetsTheEagerEncoding) {
  // online_serve feeds a mistake back with the encoding routing already
  // built. Once the residuals are applied, the serving node's rejected class
  // must have lost exactly feedback_weight copies of the eager encoding.
  const auto ds = four_node_dataset(400, 80);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), small_cfg());
  sys.train();
  const auto& topo = sys.topology();
  const auto start = topo.leaves().front();
  const reference::EagerEncoder encoder(sys, ds);
  std::size_t checked_leaf = 0;
  std::size_t checked_above = 0;
  for (std::size_t s = 0; s < ds.test_size(); ++s) {
    const auto& x = ds.test_x[s];
    std::vector<std::vector<hdc::AccumHV>> before(topo.num_nodes());
    for (net::NodeId id = 0; id < topo.num_nodes(); ++id) {
      if (!sys.has_classifier(id)) continue;
      for (std::size_t c = 0; c < ds.num_classes; ++c) {
        before[id].push_back(sys.classifier_at(id).class_accumulator(c));
      }
    }
    const auto r = sys.online_serve(x, ds.test_y[s], start);
    if (r.label == ds.test_y[s]) continue;
    sys.propagate_residuals();
    const auto hv = encoder.encode_all(x, {})[r.node];
    hdc::AccumHV want = before[r.node][r.label];
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] -= static_cast<std::int32_t>(sys.config().feedback_weight) * hv[i];
    }
    EXPECT_EQ(sys.classifier_at(r.node).class_accumulator(r.label), want);
    ++(r.node == start ? checked_leaf : checked_above);
  }
  EXPECT_GT(checked_leaf, 0u);
  EXPECT_GT(checked_above, 0u);
}

}  // namespace
