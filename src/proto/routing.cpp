#include "routing.hpp"

#include <cmath>
#include <variant>

#include "bus.hpp"
#include "obs/trace.hpp"

namespace edgehd::proto {

using net::NodeId;

bool RoutingContext::node_up(NodeId id) const noexcept {
  if (suspicion) return suspicion->node_up(id);
  return !degraded || health->node_up(id);
}

bool RoutingContext::link_up(NodeId child) const noexcept {
  if (suspicion) return suspicion->link_up(child);
  return !degraded || health->link_up(child);
}

bool RoutingContext::origin_up(NodeId id) const noexcept {
  return !health || health->node_up(id);
}

double RoutingContext::link_loss_of(NodeId child) const noexcept {
  if (suspicion) return suspicion->link_loss(child);
  return health ? health->link_loss(child) : 0.0;
}

bool RoutingContext::child_delivers(NodeId child) const noexcept {
  return node_up(child) && link_up(child);
}

bool RoutingContext::subtree_degraded(NodeId id) const {
  if (!degraded || topology->is_leaf(id)) return false;
  for (NodeId kid : topology->children(id)) {
    if (!child_delivers(kid)) return true;
    if (subtree_degraded(kid)) return true;
  }
  return false;
}

std::uint64_t query_gather_bytes(const RoutingContext& ctx, NodeId id) {
  if (ctx.topology->is_leaf(id)) return 0;
  std::uint64_t bytes = 0;
  for (NodeId kid : ctx.topology->children(id)) {
    bytes += query_gather_bytes(ctx, kid) +
             compressed_query_wire_size(ctx.nodes[kid].dim(), ctx.compression);
  }
  return bytes;
}

void gather_bytes_masked(const RoutingContext& ctx, NodeId id,
                         std::uint64_t& bytes, std::uint64_t& retry_bytes) {
  if (ctx.topology->is_leaf(id)) return;
  for (NodeId kid : ctx.topology->children(id)) {
    if (!ctx.child_delivers(kid)) continue;  // nothing crosses a dead hop
    gather_bytes_masked(ctx, kid, bytes, retry_bytes);
    const std::uint64_t b =
        compressed_query_wire_size(ctx.nodes[kid].dim(), ctx.compression);
    bytes += b;
    const double p = ctx.link_loss_of(kid);
    if (p > 0.0) {
      // Reliable transport: the hop is charged the expected number of
      // transmissions per packet under its retry cap; everything beyond the
      // first copy is retry overhead.
      retry_bytes += static_cast<std::uint64_t>(std::llround(
          static_cast<double>(b) *
          (net::expected_attempts(p, ctx.max_retries) - 1.0)));
    }
  }
}

NodeId classifier_ancestor(const RoutingContext& ctx, NodeId current) {
  NodeId next = ctx.topology->parent(current);
  while (next != ctx.topology->root() && !ctx.nodes[next].has_classifier()) {
    next = ctx.topology->parent(next);
  }
  return next;
}

NodeId reachable_classifier_ancestor(const RoutingContext& ctx,
                                     NodeId current) {
  NodeId next = current;
  do {
    if (!ctx.link_up(next)) return net::kNoNode;
    next = ctx.topology->parent(next);
    if (!ctx.node_up(next)) return net::kNoNode;
  } while (next != ctx.topology->root() && !ctx.nodes[next].has_classifier());
  return next;
}

void account_escalation(const hdc::BipolarHV& query, std::uint64_t query_id,
                        std::uint32_t hops) {
  detail::account_delivery(QueryEscalate{query_id, hops, query});
}

void account_reply(const RoutedResult& result, std::uint64_t query_id) {
  detail::account_delivery(
      QueryReply{query_id, static_cast<std::uint32_t>(result.label),
                 result.confidence, static_cast<std::uint64_t>(result.node),
                 static_cast<std::uint32_t>(result.level),
                 static_cast<std::uint8_t>(result.degraded ? 1 : 0)});
}

RoutedResult route_query(const RoutingContext& ctx, QueryEncoding& enc,
                         NodeId start, std::uint64_t query_id,
                         std::uint64_t trace_span) {
  auto& tracer = obs::Tracer::global();
  NodeId current = start;
  hdc::Prediction pred = ctx.nodes[current].predict(enc.at(current));
  std::uint32_t hops = 0;
  RoutedResult result;
  while (true) {
    result.label = pred.label;
    result.confidence = pred.confidence;
    result.node = current;
    result.level = ctx.topology->level(current);
    tracer.instant("core.predict", obs::kAutoTime, trace_span, current,
                   pred.label);
    const bool confident = pred.confidence >= ctx.confidence_threshold;
    if (confident || current == ctx.topology->root()) break;
    // Escalate to the nearest ancestor that hosts a classifier.
    const NodeId next = classifier_ancestor(ctx, current);
    if (!ctx.nodes[next].has_classifier()) break;
    ctx.escalations->inc();
    tracer.instant("core.escalate", obs::kAutoTime, trace_span, current, next);
    // The query ships as a typed envelope payload, encoded for the
    // destination's hypervector space; the ancestor predicts on what the
    // message carries.
    account_escalation(enc.at(next), query_id, ++hops);
    current = next;
    pred = ctx.nodes[current].predict(enc.at(current));
  }
  result.bytes = query_gather_bytes(ctx, result.node);
  account_reply(result, query_id);
  return result;
}

RoutedResult route_query_degraded(const RoutingContext& ctx,
                                  QueryEncoding& enc, NodeId start,
                                  std::uint64_t query_id) {
  RoutedResult result;
  if (!ctx.origin_up(start)) {
    // The query's origin is physically dead; nobody can even pose the
    // question. This is world simulation, not belief — a detector cannot
    // resurrect a crashed node by failing to suspect it.
    result.degraded = true;
    return result;
  }
  NodeId current = start;
  hdc::Prediction pred = ctx.nodes[current].predict(enc.at(current));
  std::uint32_t hops = 0;
  bool cut = false;  // escalation wanted to continue but faults blocked it
  while (true) {
    result.label = pred.label;
    result.confidence = pred.confidence;
    result.node = current;
    result.level = ctx.topology->level(current);
    const bool confident = pred.confidence >= ctx.confidence_threshold;
    if (confident || current == ctx.topology->root()) break;
    // Walk hop by hop toward the nearest reachable ancestor hosting a
    // classifier; a dead hop anywhere on the way strands the query here.
    const NodeId next = reachable_classifier_ancestor(ctx, current);
    if (next == net::kNoNode) {
      cut = true;
      break;
    }
    if (!ctx.nodes[next].has_classifier()) break;
    ctx.escalations->inc();
    account_escalation(enc.at(next), query_id, ++hops);
    current = next;
    pred = ctx.nodes[current].predict(enc.at(current));
  }
  if (cut && !ctx.serve_degraded) {
    RoutedResult unserved;
    unserved.degraded = true;
    return unserved;
  }
  result.degraded = cut || ctx.subtree_degraded(result.node);
  gather_bytes_masked(ctx, result.node, result.bytes, result.retry_bytes);
  account_reply(result, query_id);
  return result;
}

}  // namespace edgehd::proto
