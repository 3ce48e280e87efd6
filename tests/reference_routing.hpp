// Eager reference for routed inference, shared by the differential tests.
//
// EagerEncoder rebuilds a deployment's leaf encoders and aggregators from
// its seeds and encodes the whole hierarchy bottom-up, level by level —
// the eager encoding the library's on-demand one must reproduce, kept
// independent of it. eager_route encodes everything up front
// with it (under the installed health mask when degraded) and walks the
// escalation rule over the complete per-node encodings, accounting the
// QueryEscalate / QueryReply envelopes itself. It covers the oracle-mask
// paths only (no failure detector, no dimension regeneration).
// expect_routing_matches_eager compares infer_routed against it field by
// field and on the per-type query envelope counters.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "hdc/encoder.hpp"
#include "hdc/random.hpp"
#include "hier/hier_encoder.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "proto/messages.hpp"
#include "proto/routing.hpp"

namespace edgehd::reference {

/// Registry totals a routed query moves.
struct QueryCounters {
  std::uint64_t escalate_messages = 0;
  std::uint64_t escalate_bytes = 0;
  std::uint64_t reply_messages = 0;
  std::uint64_t reply_bytes = 0;
  std::uint64_t encoded_nodes = 0;

  static QueryCounters read() {
    const auto& reg = obs::MetricsRegistry::global();
    QueryCounters c;
    c.escalate_messages = reg.counter_value("proto.query_escalate.messages");
    c.escalate_bytes = reg.counter_value("proto.query_escalate.bytes");
    c.reply_messages = reg.counter_value("proto.query_reply.messages");
    c.reply_bytes = reg.counter_value("proto.query_reply.bytes");
    c.encoded_nodes = reg.counter_value("core.routed.encoded_nodes");
    return c;
  }

  QueryCounters operator-(const QueryCounters& o) const {
    return {escalate_messages - o.escalate_messages,
            escalate_bytes - o.escalate_bytes,
            reply_messages - o.reply_messages, reply_bytes - o.reply_bytes,
            encoded_nodes - o.encoded_nodes};
  }
};

/// Nodes in the subtree rooted at `id` (itself included).
inline std::size_t subtree_size(const net::Topology& topo, net::NodeId id) {
  std::size_t n = 1;
  if (!topo.is_leaf(id)) {
    for (net::NodeId kid : topo.children(id)) n += subtree_size(topo, kid);
  }
  return n;
}

/// The deployment's encoders, rebuilt from its configuration and seeds the
/// way the EdgeHdSystem constructor builds them.
class EagerEncoder {
 public:
  EagerEncoder(const core::EdgeHdSystem& sys, const data::Dataset& ds)
      : topo_(sys.topology()), ds_(ds) {
    const core::SystemConfig& cfg = sys.config();
    const auto leaves = topo_.leaves();
    leaf_.resize(topo_.num_nodes());
    agg_.resize(topo_.num_nodes());
    partition_.resize(topo_.num_nodes());
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const net::NodeId id = leaves[i];
      partition_[id] = i;
      leaf_[id] = hdc::make_encoder(cfg.leaf_encoder, ds.partitions[i],
                                    sys.node_dim(id),
                                    hdc::derive_seed(cfg.seed, 1000 + id),
                                    cfg.projection_mode);
    }
    for (net::NodeId id = 0; id < topo_.num_nodes(); ++id) {
      if (topo_.is_leaf(id)) continue;
      std::vector<std::size_t> child_dims;
      for (net::NodeId kid : topo_.children(id)) {
        child_dims.push_back(sys.node_dim(kid));
      }
      agg_[id] = std::make_unique<hier::HierEncoder>(
          std::move(child_dims), sys.node_dim(id),
          hdc::derive_seed(cfg.seed, 2000 + id), cfg.aggregation,
          cfg.projection_row_nnz);
    }
  }

  /// Every node's encoding, leaves first; under a non-empty `mask` a child
  /// that cannot deliver and a down node read as silence.
  std::vector<hdc::BipolarHV> encode_all(std::span<const float> x,
                                         const net::HealthMask& mask) const {
    std::vector<hdc::BipolarHV> hvs(topo_.num_nodes());
    for (std::size_t level = 1; level <= topo_.depth(); ++level) {
      for (net::NodeId id : topo_.nodes_at_level(level)) {
        if (!mask.node_up(id)) {
          hvs[id] = hdc::BipolarHV(dim(id), 0);
        } else if (topo_.is_leaf(id)) {
          const std::size_t p = partition_[id];
          hvs[id] = leaf_[id]->encode(
              x.subspan(ds_.partition_offset(p), ds_.partitions[p]));
        } else {
          const auto& kids = topo_.children(id);
          std::vector<hdc::BipolarHV> child_hvs(kids.size());
          for (std::size_t c = 0; c < kids.size(); ++c) {
            child_hvs[c] = mask.node_up(kids[c]) && mask.link_up(kids[c])
                               ? hvs[kids[c]]
                               : hdc::BipolarHV(hvs[kids[c]].size(), 0);
          }
          hvs[id] = agg_[id]->aggregate(child_hvs);
        }
      }
    }
    return hvs;
  }

 private:
  std::size_t dim(net::NodeId id) const {
    return topo_.is_leaf(id) ? leaf_[id]->dim() : agg_[id]->out_dim();
  }

  const net::Topology& topo_;
  const data::Dataset& ds_;
  std::vector<std::unique_ptr<hdc::Encoder>> leaf_;
  std::vector<std::unique_ptr<hier::HierEncoder>> agg_;
  std::vector<std::size_t> partition_;
};

inline proto::RoutedResult eager_route(const core::EdgeHdSystem& sys,
                                       const EagerEncoder& encoder,
                                       std::span<const float> x,
                                       net::NodeId start) {
  const net::Topology& topo = sys.topology();
  const core::SystemConfig& cfg = sys.config();
  const net::HealthMask& mask = sys.health();
  const bool degraded = sys.degraded_mode();
  const auto up = [&](net::NodeId n) { return !degraded || mask.node_up(n); };
  const auto link_up = [&](net::NodeId n) {
    return !degraded || mask.link_up(n);
  };
  const auto delivers = [&](net::NodeId n) { return up(n) && link_up(n); };

  proto::RoutedResult result;
  if (!up(start)) {
    result.degraded = true;
    return result;
  }
  const auto hvs =
      encoder.encode_all(x, degraded ? mask : net::HealthMask{});
  net::NodeId current = start;
  hdc::Prediction pred = sys.classifier_at(current).predict(hvs[current]);
  std::uint32_t hops = 0;
  bool cut = false;
  while (true) {
    result.label = pred.label;
    result.confidence = pred.confidence;
    result.node = current;
    result.level = topo.level(current);
    if (pred.confidence >= cfg.confidence_threshold || current == topo.root()) {
      break;
    }
    // Hop by hop to the nearest classifier ancestor; a dead hop strands the
    // query at `current`.
    net::NodeId next = current;
    do {
      if (!link_up(next) || !up(topo.parent(next))) {
        cut = true;
        break;
      }
      next = topo.parent(next);
    } while (next != topo.root() && !sys.has_classifier(next));
    if (cut || !sys.has_classifier(next)) break;
    proto::account_escalation(hvs[next], /*query_id=*/0, ++hops);
    current = next;
    pred = sys.classifier_at(current).predict(hvs[current]);
  }
  if (cut && !cfg.failover.serve_degraded) {
    proto::RoutedResult unserved;
    unserved.degraded = true;
    return unserved;
  }
  if (!degraded) {
    result.bytes = sys.query_gather_bytes(result.node);
  } else {
    bool missing = false;
    const auto gather = [&](const auto& self, net::NodeId id) -> void {
      if (topo.is_leaf(id)) return;
      for (net::NodeId kid : topo.children(id)) {
        if (!delivers(kid)) {
          missing = true;
          continue;
        }
        self(self, kid);
        const std::uint64_t b =
            proto::compressed_query_wire_size(sys.node_dim(kid), cfg.compression);
        result.bytes += b;
        const double p = mask.link_loss(kid);
        if (p > 0.0) {
          result.retry_bytes += static_cast<std::uint64_t>(std::llround(
              static_cast<double>(b) *
              (net::expected_attempts(p, cfg.reliable.max_retries) - 1.0)));
        }
      }
    };
    gather(gather, result.node);
    result.degraded = cut || missing;
  }
  proto::account_reply(result, /*query_id=*/0);
  return result;
}

/// Outcome tallies of expect_routing_matches_eager.
struct RoutingDiff {
  std::size_t queries = 0;
  std::size_t served_at_start = 0;
  std::size_t escalated = 0;
  std::size_t unserved = 0;
  std::size_t one_node_encoded = 0;  ///< queries that encoded a single node
};

/// Routes the first `samples` test samples from every leaf with
/// infer_routed and with eager_route, expecting every RoutedResult field and
/// the query envelope counter deltas to agree. Fault-free, a query encodes
/// exactly the subtree of the node that served it. Each sample's full
/// EdgeHdSystem::encode_all must also equal the eager encoder's.
inline RoutingDiff expect_routing_matches_eager(const core::EdgeHdSystem& sys,
                                                const data::Dataset& ds,
                                                std::size_t samples) {
  const net::Topology& topo = sys.topology();
  const EagerEncoder encoder(sys, ds);
  const net::HealthMask mask =
      sys.degraded_mode() ? sys.health() : net::HealthMask{};
  for (std::size_t s = 0; s < samples; ++s) {
    EXPECT_EQ(sys.encode_all(ds.test_x[s], mask),
              encoder.encode_all(ds.test_x[s], mask))
        << "sample " << s;
  }
  RoutingDiff diff;
  for (net::NodeId start : topo.leaves()) {
    for (std::size_t s = 0; s < samples; ++s) {
      const auto& x = ds.test_x[s];
      const QueryCounters c0 = QueryCounters::read();
      const proto::RoutedResult want = eager_route(sys, encoder, x, start);
      const QueryCounters c1 = QueryCounters::read();
      const proto::RoutedResult got = sys.infer_routed(x, start);
      const QueryCounters c2 = QueryCounters::read();
      SCOPED_TRACE("start " + std::to_string(start) + " sample " +
                   std::to_string(s));
      EXPECT_EQ(got.label, want.label);
      EXPECT_EQ(got.node, want.node);
      EXPECT_EQ(got.level, want.level);
      EXPECT_EQ(got.confidence, want.confidence);
      EXPECT_EQ(got.bytes, want.bytes);
      EXPECT_EQ(got.retry_bytes, want.retry_bytes);
      EXPECT_EQ(got.degraded, want.degraded);
      const QueryCounters eager = c1 - c0;
      const QueryCounters lazy = c2 - c1;
      EXPECT_EQ(lazy.escalate_messages, eager.escalate_messages);
      EXPECT_EQ(lazy.escalate_bytes, eager.escalate_bytes);
      EXPECT_EQ(lazy.reply_messages, eager.reply_messages);
      EXPECT_EQ(lazy.reply_bytes, eager.reply_bytes);
      if (obs::kEnabled && got.served()) {
        if (sys.degraded_mode()) {
          EXPECT_LE(lazy.encoded_nodes, subtree_size(topo, got.node));
        } else {
          EXPECT_EQ(lazy.encoded_nodes, subtree_size(topo, got.node));
        }
      }
      ++diff.queries;
      if (got.node == start) {
        ++diff.served_at_start;
      } else if (got.served()) {
        ++diff.escalated;
      } else {
        ++diff.unserved;
      }
      if (lazy.encoded_nodes == 1) ++diff.one_node_encoded;
    }
  }
  return diff;
}

}  // namespace edgehd::reference
