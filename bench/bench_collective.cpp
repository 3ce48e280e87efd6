// bench_collective — bytes-on-wire and virtual-time wins of the fused
// subtree reduce (src/proto/collective.*) over the point-to-point reference,
// on the deep/wide hierarchies where fusion pays.
//
// Two deployments of the same 48-leaf workload: a Figure-13-style deep tree
// (uniform_depth(48, 5)) and a wide 2-level star. For each, training runs
// twice — collectives off (the legacy per-(class, batch) frames) and
// collectives on (cost-model argmin per phase) — and the measured CommStats
// give the bytes reduction; the CollectiveCostModel prices both measured
// schedules on wired / WiFi links for the virtual-time makespan factor.
//
// Writes BENCH_collective.json. `--smoke` runs a small instance for CI.
// Exits 1 when the deep-tree reduction falls below the 25% gate.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "proto/collective.hpp"

namespace {

using namespace edgehd;
using proto::CollectiveCostModel;

constexpr std::size_t kLeaves = 48;

struct PhaseStats {
  core::CommStats initial;
  core::CommStats batch;
  std::uint64_t bytes() const { return initial.bytes + batch.bytes; }
  std::uint64_t messages() const { return initial.messages + batch.messages; }
};

PhaseStats run_training(const data::Dataset& ds, const net::Topology& topo,
                        const core::SystemConfig& cfg) {
  core::EdgeHdSystem sys(ds, topo, cfg);
  PhaseStats s;
  s.initial = sys.train_initial();
  s.batch = sys.retrain_batches();
  return s;
}

/// Model-priced makespan of a measured training schedule: per-phase frames
/// and bytes averaged per edge (uniform under full health), fused phases
/// paying their CollectivePlan broadcast.
double vtime_ms(const net::Topology& topo, net::MediumKind kind,
                const PhaseStats& s, bool fused) {
  const CollectiveCostModel model(topo, net::medium(kind));
  const auto edges = static_cast<std::uint64_t>(topo.num_nodes() - 1);
  double ns = 0.0;
  for (const auto* phase : {&s.initial, &s.batch}) {
    std::uint64_t frames = phase->messages / edges;
    std::uint64_t bytes = phase->bytes / edges;
    if (fused) {
      // One fused frame per edge; the plan announcement is the second
      // per-edge message the measurement counted.
      frames = 1;
      ns += static_cast<double>(model.broadcast_from_root(14).time);
    }
    ns += static_cast<double>(
        model.reduce_to_root(std::max<std::uint64_t>(frames, 1), bytes).time);
  }
  return ns / 1e6;
}

bool report_topology(const char* tag, const data::Dataset& ds,
                     const net::Topology& topo, core::SystemConfig cfg,
                     double gate_pct) {
  std::printf("\n%s: %zu nodes, depth %zu\n", tag, topo.num_nodes(),
              topo.depth());
  bench::print_rule(72);

  const auto p2p = run_training(ds, topo, cfg);
  cfg.collective.enabled = true;  // cost-model argmin per phase (802.11n)
  const auto coll = run_training(ds, topo, cfg);

  const std::string base = std::string("collective.") + tag + ".";
  const double p2p_bytes =
      bench::via_registry(base + "p2p_bytes", static_cast<double>(p2p.bytes()));
  const double coll_bytes = bench::via_registry(
      base + "coll_bytes", static_cast<double>(coll.bytes()));
  const double reduction = bench::via_registry(
      base + "bytes_reduction_pct", 100.0 * (1.0 - coll_bytes / p2p_bytes));
  std::printf("train bytes     p2p %12.0f   collective %12.0f   (-%.1f%%)\n",
              p2p_bytes, coll_bytes, reduction);
  std::printf("  initial       p2p %12llu   collective %12llu\n",
              static_cast<unsigned long long>(p2p.initial.bytes),
              static_cast<unsigned long long>(coll.initial.bytes));
  std::printf("  retrain       p2p %12llu   collective %12llu\n",
              static_cast<unsigned long long>(p2p.batch.bytes),
              static_cast<unsigned long long>(coll.batch.bytes));
  std::printf("train messages  p2p %12llu   collective %12llu\n",
              static_cast<unsigned long long>(p2p.messages()),
              static_cast<unsigned long long>(coll.messages()));

  for (const auto kind :
       {net::MediumKind::kWired1G, net::MediumKind::kWifi80211n}) {
    const char* mname = net::medium(kind).name.c_str();
    const double t_p2p = vtime_ms(topo, kind, p2p, /*fused=*/false);
    const double t_coll = vtime_ms(topo, kind, coll, /*fused=*/true);
    const double speedup = bench::via_registry(
        base + "vtime_speedup." + mname, t_p2p / t_coll);
    bench::via_registry(base + "p2p_vtime_ms." + mname, t_p2p);
    bench::via_registry(base + "coll_vtime_ms." + mname, t_coll);
    std::printf("virtual time    %-12s p2p %10.2f ms   collective %10.2f ms"
                "   (%.2fx)\n",
                mname, t_p2p, t_coll, speedup);
  }

  if (gate_pct > 0.0 && reduction < gate_pct) {
    std::printf("GATE FAILED: %s bytes reduction %.1f%% < %.1f%%\n", tag,
                reduction, gate_pct);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edgehd;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t train = smoke ? 480 : 1920;
  const std::size_t test = smoke ? 80 : 200;

  std::printf("Collective schedules vs point-to-point (%s)\n",
              smoke ? "smoke" : "full");

  const std::vector<std::size_t> parts(kLeaves, 3);
  auto ds = data::make_synthetic("pecanish", 3 * kLeaves, 4, parts, train,
                                 test, bench::kSeed, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = kLeaves * (smoke ? 128 : 256);
  cfg.batch_size = 5;

  bool ok = true;
  // The acceptance gate rides the deep tree — the Figure 13 shape where
  // per-frame costs compound across levels.
  ok &= report_topology("deep", ds, net::Topology::uniform_depth(kLeaves, 5),
                        cfg, /*gate_pct=*/25.0);
  ok &= report_topology("wide", ds, net::Topology::star(kLeaves), cfg,
                        /*gate_pct=*/0.0);

  bench::dump_metrics("BENCH_collective.json");
  if (!ok) return 1;
  std::printf("gates passed: deep-tree collective bytes reduction >= 25%%\n");
  return 0;
}
