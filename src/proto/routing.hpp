// Routed inference (Section IV-C) as per-query message walks.
//
// A query is answered at the lowest node whose softmax confidence clears the
// threshold; otherwise it escalates to the nearest ancestor hosting a
// classifier, carried as a QueryEscalate envelope whose payload is the query
// hypervector *as encoded at the destination node*. The serving node's
// verdict travels back as a QueryReply. Unlike the training sessions, query
// walks do not go through a Bus: every walk is reentrant per-query state, so
// batched inference can fan queries across threads against const
// NodeRuntimes (warm the classifier caches first).
//
// Byte accounting: the paper charges a served query the amortized cost of
// *gathering* its hypervector at the serving node (m-to-1 compressed on
// every hop), not the escalation envelopes — query_gather_bytes /
// gather_bytes_masked are that canonical accounting. The per-envelope
// "proto.query_escalate.*" / "proto.query_reply.*" metrics observe the
// control traffic separately.
#pragma once

#include <cstdint>
#include <span>

#include "hdc/hypervector.hpp"
#include "net/detector.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "node_runtime.hpp"
#include "obs/metrics.hpp"
#include "query_encoding.hpp"
#include "types.hpp"

namespace edgehd::proto {

/// Read-only view of the hierarchy for query walks, plus the routing policy
/// knobs of SystemConfig and the facade-owned escalation counter.
struct RoutingContext {
  const net::Topology* topology = nullptr;
  std::span<const NodeRuntime> nodes;  ///< indexed by NodeId
  /// The simulated physical world. With a detector installed this is only
  /// consulted where the world itself matters (a dead origin cannot pose a
  /// query); all reachability *decisions* come from `suspicion`.
  const net::HealthMask* health = nullptr;  ///< may be empty
  /// Earned beliefs from the failure detector. When set, node_up/link_up/
  /// link-loss decisions use this instead of the oracle mask.
  const net::SuspicionView* suspicion = nullptr;
  bool degraded = false;
  double confidence_threshold = 0.75;
  std::size_t compression = 1;  ///< m, query hypervectors per bundle
  bool serve_degraded = true;   ///< FailoverPolicy::serve_degraded
  std::size_t max_retries = 5;  ///< ReliableConfig::max_retries
  /// "core.routed.escalations" handle; incremented once per escalation hop.
  const obs::Counter* escalations = nullptr;

  bool node_up(net::NodeId id) const noexcept;
  bool link_up(net::NodeId child) const noexcept;
  bool child_delivers(net::NodeId child) const noexcept;
  /// Physical liveness of a query's origin (world simulation, never belief).
  bool origin_up(net::NodeId id) const noexcept;
  /// Loss estimate for retry accounting: observed (suspicion) when a
  /// detector is installed, oracle otherwise.
  double link_loss_of(net::NodeId child) const noexcept;
  /// Any contribution missing anywhere in `id`'s subtree?
  bool subtree_degraded(net::NodeId id) const;
};

/// Amortized bytes to gather one query hypervector at node `id` from its
/// subtree's leaves, with m-to-1 compression on every hop.
std::uint64_t query_gather_bytes(const RoutingContext& ctx, net::NodeId id);

// ---- escalation hop resolution (shared by the synchronous walks below and
// ---- the async serving plane in src/serve) --------------------------------

/// Nearest ancestor of `current` hosting a classifier, ignoring faults (the
/// root if none closer does; the root itself may lack one, which the caller
/// checks with has_classifier()).
net::NodeId classifier_ancestor(const RoutingContext& ctx, net::NodeId current);

/// Hop-by-hop walk under the health mask toward the nearest reachable
/// ancestor hosting a classifier. A dead uplink or node anywhere on the way
/// blocks the walk and returns net::kNoNode — the caller serves degraded at
/// `current` (or reports the query unserved under the fail-fast policy).
/// With no degradation installed this reduces exactly to
/// classifier_ancestor.
net::NodeId reachable_classifier_ancestor(const RoutingContext& ctx,
                                          net::NodeId current);

/// Accounts one QueryEscalate envelope carrying `query` (the per-type
/// "proto.query_escalate.*" counters). One call per escalation hop — the
/// same charge route_query makes, exposed so async escalation sessions
/// account identically.
void account_escalation(const hdc::BipolarHV& query, std::uint64_t query_id,
                        std::uint32_t hops);

/// Accounts the QueryReply envelope for a served result (the
/// "proto.query_reply.*" counters). Unserved results are never accounted —
/// no reply crosses the network.
void account_reply(const RoutedResult& result, std::uint64_t query_id);

/// Query-gather accounting over the reachable subtree only, with expected
/// retransmission bytes on lossy links (reliable transport, retry cap
/// max_retries).
void gather_bytes_masked(const RoutingContext& ctx, net::NodeId id,
                         std::uint64_t& bytes, std::uint64_t& retry_bytes);

/// Fault-free escalation walk over the query's encoding: only the start
/// node and the classifier ancestors the query escalates to are read, so
/// only their subtrees are encoded. Emits "core.predict"/"core.escalate"
/// trace instants under `trace_span`. Does not record the query-level
/// counters — the facade owns those.
RoutedResult route_query(const RoutingContext& ctx, QueryEncoding& enc,
                         net::NodeId start, std::uint64_t query_id,
                         std::uint64_t trace_span);

/// Escalation walk under a health mask: hop-by-hop reachability checks; a
/// dead hop strands the query at the deepest reachable classifier (served
/// degraded) or reports it unserved under the fail-fast policy. `enc` must
/// be built under the health mask (unreachable contributions silenced).
RoutedResult route_query_degraded(const RoutingContext& ctx,
                                  QueryEncoding& enc, net::NodeId start,
                                  std::uint64_t query_id);

}  // namespace edgehd::proto
