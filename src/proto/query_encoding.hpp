// On-demand hierarchical encoding of one query (DESIGN.md §9).
//
// A routed query is classified at its start node and climbs only while the
// confidence stays low, so most queries read one or two nodes' encodings.
// QueryEncoding computes a node's hypervector the first time it is asked
// for: a leaf encodes its feature slice, an aggregator first encodes its
// children and then aggregates them. Every node is computed at most once
// per query. Asking for every node yields exactly the eager bottom-up
// encoding, so full-hierarchy callers (training and test caches) run
// through the same object.
//
// Under a health mask a child whose contribution cannot reach its parent
// (child or uplink down) is replaced by silence (all-zero components — the
// "no signal" convention of the Figure-12 erasure model), and a down node
// emits silence itself, so degradation cascades as a real partition would.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "node_runtime.hpp"

namespace edgehd::proto {

/// The deployment's encoders and feature layout (a borrowed view, copied
/// into each encoding). The referenced storage must outlive the encodings.
struct EncodingView {
  const net::Topology* topology = nullptr;
  std::span<const NodeRuntime> nodes;  ///< indexed by NodeId
  /// Feature-slice offset and length per dataset partition; leaf runtimes
  /// name their partition (NodeRuntime::partition()).
  std::span<const std::size_t> partition_offsets;
  std::span<const std::size_t> partition_sizes;
};

/// Memoized per-node encodings of one feature vector. Not thread-safe: one
/// object per query (batched inference builds one per fanned-out query).
class QueryEncoding {
 public:
  /// Unbound; bound() is false until assigned from a bound encoding.
  QueryEncoding() = default;
  /// `x` is the full feature vector (borrowed; must outlive the encoding).
  /// `mask` is copied, so the encoding keeps the health snapshot it was
  /// built under; an empty mask means all healthy.
  QueryEncoding(EncodingView view, std::span<const float> x,
                net::HealthMask mask = {});

  bool bound() const noexcept { return view_.topology != nullptr; }

  /// Node `id`'s hypervector, encoding whatever of its subtree is missing.
  /// The reference stays valid for the encoding's lifetime.
  const hdc::BipolarHV& at(net::NodeId id);

  /// Installs an encoding computed elsewhere (the serving engine's batched
  /// leaf encode, bit-identical to the per-sample one). Ignored for a node
  /// the mask reports down — at() silences it as usual — or already known.
  void seed(net::NodeId id, hdc::BipolarHV hv);

  /// Encodes every node and hands the result over, indexed by NodeId.
  std::vector<hdc::BipolarHV> all() &&;

  /// Leaf encodes and aggregations this object has run (seeds and silenced
  /// nodes excluded).
  std::size_t encoded_nodes() const noexcept { return encoded_; }

 private:
  EncodingView view_;
  std::span<const float> x_;
  net::HealthMask mask_;
  std::vector<hdc::BipolarHV> memo_;
  std::vector<std::uint8_t> known_;
  std::size_t encoded_ = 0;
};

}  // namespace edgehd::proto
