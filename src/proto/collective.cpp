#include "collective.hpp"

#include <algorithm>
#include <utility>

namespace edgehd::proto {

using net::NodeId;
using net::SimTime;

const char* to_string(CollectiveAlgo algo) noexcept {
  switch (algo) {
    case CollectiveAlgo::kPointToPoint:
      return "point_to_point";
    case CollectiveAlgo::kTreeReduce:
      return "tree_reduce";
  }
  return "unknown";
}

// ---- cost model -------------------------------------------------------------

CollectiveCostModel::CollectiveCostModel(const net::Topology& topology,
                                         net::Medium medium)
    : topology_(&topology), medium_(std::move(medium)) {}

SimTime CollectiveCostModel::hop_time(std::uint64_t frames,
                                      std::uint64_t bytes) const {
  return static_cast<SimTime>(frames) * medium_.latency +
         net::transfer_time(medium_, bytes) - medium_.latency;
  // transfer_time already includes one latency term; the expression above
  // charges `frames` latencies total plus the payload's serialization time.
}

double CollectiveCostModel::hop_energy(std::uint64_t frames,
                                       std::uint64_t bytes) const {
  const double seconds =
      static_cast<double>(hop_time(frames, bytes)) / net::kSecond;
  return (medium_.tx_power_w + medium_.rx_power_w) * seconds;
}

CollectiveCosts CollectiveCostModel::reduce_to_root(
    std::uint64_t frames_per_edge, std::uint64_t bytes_per_edge) const {
  CollectiveCosts costs;
  if (frames_per_edge == 0) return costs;
  const net::Topology& topo = *topology_;
  const SimTime edge_time = hop_time(frames_per_edge, bytes_per_edge);
  // Level by level from the leaves: within a level, a wired parent
  // serializes its own children but distinct parents transfer in parallel;
  // a shared-domain medium serializes every edge of the tree.
  for (std::size_t level = 2; level <= topo.depth(); ++level) {
    SimTime level_time = 0;
    for (NodeId parent : topo.nodes_at_level(level)) {
      const std::size_t fan_in = topo.children(parent).size();
      if (fan_in == 0) continue;
      const SimTime parent_time =
          static_cast<SimTime>(fan_in) * edge_time;
      if (medium_.shared_domain) {
        level_time += parent_time;
      } else {
        level_time = std::max(level_time, parent_time);
      }
      costs.bytes += fan_in * bytes_per_edge;
      costs.energy_j += static_cast<double>(fan_in) *
                        hop_energy(frames_per_edge, bytes_per_edge);
    }
    costs.time += level_time;
  }
  return costs;
}

CollectiveCosts CollectiveCostModel::broadcast_from_root(
    std::uint64_t bytes_per_edge) const {
  // Same edge set as the reduce, one frame per edge, downward: by symmetry
  // of the per-hop model the estimate is the reduce's with F = 1.
  return reduce_to_root(1, bytes_per_edge);
}

namespace {

bool cheaper(const CollectiveCosts& a, const CollectiveCosts& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.energy_j < b.energy_j;  // equal -> not cheaper: first wins ties
}

}  // namespace

CollectiveAlgo CollectiveCostModel::pick_reduce(
    std::uint64_t frames_per_edge, std::uint64_t p2p_bytes_per_edge,
    std::uint64_t fused_bytes_per_edge) const {
  const CollectiveCosts p2p = reduce_to_root(frames_per_edge, p2p_bytes_per_edge);
  CollectiveCosts fused = reduce_to_root(1, fused_bytes_per_edge);
  // The fused schedule pays for its CollectivePlan announcement (14 bytes
  // down every edge) before any model byte moves.
  const CollectiveCosts plan = broadcast_from_root(14);
  fused.time += plan.time;
  fused.energy_j += plan.energy_j;
  fused.bytes += plan.bytes;
  return cheaper(fused, p2p) ? CollectiveAlgo::kTreeReduce
                             : CollectiveAlgo::kPointToPoint;
}

}  // namespace edgehd::proto
