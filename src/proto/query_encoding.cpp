#include "query_encoding.hpp"

#include <stdexcept>
#include <utility>

namespace edgehd::proto {

using hdc::BipolarHV;
using net::NodeId;

QueryEncoding::QueryEncoding(EncodingView view, std::span<const float> x,
                             net::HealthMask mask)
    : view_(view),
      x_(x),
      mask_(std::move(mask)),
      memo_(view.topology->num_nodes()),
      known_(view.topology->num_nodes(), 0) {}

const BipolarHV& QueryEncoding::at(NodeId id) {
  if (known_[id] != 0) return memo_[id];
  const net::Topology& topo = *view_.topology;
  const NodeRuntime& rt = view_.nodes[id];
  BipolarHV hv;
  if (!mask_.node_up(id)) {
    hv.assign(rt.dim(), 0);
  } else if (topo.is_leaf(id)) {
    const std::size_t p = rt.partition();
    hv = rt.leaf_encoder().encode(
        x_.subspan(view_.partition_offsets[p], view_.partition_sizes[p]));
    ++encoded_;
  } else {
    // Concatenate the children in order (silence for an undelivered one)
    // and aggregate: HierEncoder::aggregate without the per-child copies.
    const hier::HierEncoder& agg = rt.aggregator();
    BipolarHV cat;
    cat.reserve(agg.in_dim());
    for (NodeId kid : topo.children(id)) {
      if (mask_.node_up(kid) && mask_.link_up(kid)) {
        const BipolarHV& child = at(kid);
        cat.insert(cat.end(), child.begin(), child.end());
      } else {
        cat.insert(cat.end(), view_.nodes[kid].dim(), 0);
      }
    }
    hv = agg.encode(cat);
    ++encoded_;
  }
  memo_[id] = std::move(hv);
  known_[id] = 1;
  return memo_[id];
}

void QueryEncoding::seed(NodeId id, BipolarHV hv) {
  if (known_[id] != 0 || !mask_.node_up(id)) return;
  if (hv.size() != view_.nodes[id].dim()) {
    throw std::invalid_argument("QueryEncoding: seed dimension mismatch");
  }
  memo_[id] = std::move(hv);
  known_[id] = 1;
}

std::vector<BipolarHV> QueryEncoding::all() && {
  for (NodeId id = 0; id < memo_.size(); ++id) at(id);
  return std::move(memo_);
}

}  // namespace edgehd::proto
