// Collective model exchange for the training sessions.
//
// The paper's hierarchy moves every model child -> parent as individual
// per-(class, batch) frames. The one collective schedule here is the
// *fused subtree reduce*: each child fuses its entire per-phase
// contribution into one ReducePartial frame whose sections are
// entropy-coded as a unit (section_codec.hpp), and the parent scatters the
// sections into the same inboxes the per-message path fills.
//
// A CollectiveCostModel (in the spirit of FlagCX's FlagCXAlgoTimeEstimator)
// prices both schedules per phase from the link medium's latency, bandwidth
// and power terms plus the topology's fan-out, and the session picks the
// argmin — unless CollectiveConfig::force pins one. Every fused frame and
// plan announcement is a first-class protocol message: it rides the
// versioned envelope codec and is charged to CommStats and the per-type
// proto.* counters like any other traffic.
//
// Correctness contract: the fused reduce is a *lossless rearrangement* of
// the point-to-point schedule — same accumulators, same inboxes, same
// downstream aggregation — so final models are bit-identical to the
// reference schedule (pinned by tests/test_collective.cpp).
#pragma once

#include <cstdint>
#include <optional>

#include "net/medium.hpp"
#include "net/topology.hpp"

namespace edgehd::proto {

/// Which schedule moves a phase's model traffic.
enum class CollectiveAlgo : std::uint8_t {
  kPointToPoint = 0,  ///< legacy per-(class, batch) frames
  kTreeReduce = 1,    ///< fused entropy-coded subtree reduce
};

const char* to_string(CollectiveAlgo algo) noexcept;

/// Facade-level knob (SystemConfig::collective). Disabled by default so the
/// legacy byte flows — including the golden e2e pins — are untouched.
struct CollectiveConfig {
  bool enabled = false;
  /// Pins the algorithm instead of asking the cost model.
  std::optional<CollectiveAlgo> force;
  /// Link technology the cost model prices schedules against.
  net::MediumKind medium = net::MediumKind::kWifi80211n;
};

/// Per-schedule estimate, mirroring core::PhaseCosts: virtual time to drain
/// the schedule, radio/NIC energy, and bytes on the wire.
struct CollectiveCosts {
  net::SimTime time = 0;
  double energy_j = 0.0;
  std::uint64_t bytes = 0;
};

/// Prices collective schedules on one topology + link medium. All terms are
/// closed forms over the medium's latency/bandwidth/power and the tree's
/// fan-out: wired links transfer in parallel (per-parent serialization,
/// levels pipeline-free), shared-domain media serialize every transfer into
/// one collision domain. Deterministic: same inputs, same estimate, same
/// argmin.
class CollectiveCostModel {
 public:
  CollectiveCostModel(const net::Topology& topology, net::Medium medium);
  // The model keeps a pointer to `topology`; a temporary would dangle.
  CollectiveCostModel(net::Topology&&, net::Medium) = delete;

  /// Child->parent reduce over the whole tree: every edge ships
  /// `frames_per_edge` frames totalling `bytes_per_edge` bytes.
  CollectiveCosts reduce_to_root(std::uint64_t frames_per_edge,
                                 std::uint64_t bytes_per_edge) const;

  /// Root->leaves broadcast of `bytes_per_edge` per hop (same edge set as
  /// the reduce, downward).
  CollectiveCosts broadcast_from_root(std::uint64_t bytes_per_edge) const;

  /// Argmin schedule for a training phase: the legacy per-message flow
  /// (frames_per_edge frames, p2p bytes) vs one fused frame per edge plus
  /// the CollectivePlan announcement. Ties break toward the lower enum
  /// value (kPointToPoint), so the choice is deterministic.
  CollectiveAlgo pick_reduce(std::uint64_t frames_per_edge,
                             std::uint64_t p2p_bytes_per_edge,
                             std::uint64_t fused_bytes_per_edge) const;

  const net::Medium& medium() const noexcept { return medium_; }

 private:
  /// One physical hop moving `bytes` as `frames` frames: latency per frame
  /// plus the payload's serialization time.
  net::SimTime hop_time(std::uint64_t frames, std::uint64_t bytes) const;
  double hop_energy(std::uint64_t frames, std::uint64_t bytes) const;

  const net::Topology* topology_;
  net::Medium medium_;
};

}  // namespace edgehd::proto
