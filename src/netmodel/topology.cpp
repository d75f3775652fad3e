#include "netmodel/topology.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "util/error.hpp"

namespace hcs {

HierarchicalTopology::HierarchicalTopology(std::vector<SiteSpec> sites,
                                           Matrix<LinkParams> wan)
    : sites_(std::move(sites)), wan_(std::move(wan)) {
  if (sites_.empty()) throw InputError("HierarchicalTopology: no sites");
  if (!wan_.square() || wan_.rows() != sites_.size())
    throw InputError("HierarchicalTopology: WAN matrix must be sites x sites");
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const SiteSpec& site = sites_[s];
    if (site.node_count == 0)
      throw InputError("HierarchicalTopology: empty site");
    if (site.lan.bandwidth_Bps <= 0.0 || site.lan.startup_s < 0.0)
      throw InputError("HierarchicalTopology: invalid LAN parameters");
    for (std::size_t i = 0; i < site.node_count; ++i) node_site_.push_back(s);
    node_count_ += site.node_count;
  }
  for (std::size_t a = 0; a < sites_.size(); ++a)
    for (std::size_t b = 0; b < sites_.size(); ++b)
      if (a != b && (wan_(a, b).bandwidth_Bps <= 0.0 || wan_(a, b).startup_s < 0.0))
        throw InputError("HierarchicalTopology: invalid WAN parameters");
}

std::size_t HierarchicalTopology::site_of(std::size_t node) const {
  check(node < node_count_, "HierarchicalTopology: node out of range");
  return node_site_[node];
}

LinkParams HierarchicalTopology::end_to_end(std::size_t src, std::size_t dst) const {
  const std::size_t sa = site_of(src);
  const std::size_t sb = site_of(dst);
  if (src == dst)
    return LinkParams{0.0, std::numeric_limits<double>::max()};
  return site_link(sa, sb);
}

LinkParams HierarchicalTopology::site_link(std::size_t sa, std::size_t sb) const {
  if (sa == sb) return sites_[sa].lan;
  const LinkParams& lan_a = sites_[sa].lan;
  const LinkParams& lan_b = sites_[sb].lan;
  const LinkParams& wan = wan_(sa, sb);
  return LinkParams{
      lan_a.startup_s + wan.startup_s + lan_b.startup_s,
      std::min({lan_a.bandwidth_Bps, wan.bandwidth_Bps, lan_b.bandwidth_Bps})};
}

NetworkModel HierarchicalTopology::to_network(bool divide_shared_wan) const {
  const std::size_t n = node_count_;
  Matrix<double> startup(n, n, 0.0);
  Matrix<double> bandwidth(n, n, std::numeric_limits<double>::max());
  const std::span<double> t = startup.mutable_data();
  const std::span<double> b = bandwidth.mutable_data();
  // Sites hold contiguous node ranges and every node pair of two sites
  // sees the same link, so each site pair's parameters are computed once
  // and filled as a block; only the diagonal keeps its 0 s / max B/s.
  std::size_t first_a = 0;
  for (std::size_t sa = 0; sa < sites_.size(); ++sa) {
    const std::size_t end_a = first_a + sites_[sa].node_count;
    std::size_t first_b = 0;
    for (std::size_t sb = 0; sb < sites_.size(); ++sb) {
      const std::size_t end_b = first_b + sites_[sb].node_count;
      LinkParams params = site_link(sa, sb);
      if (divide_shared_wan && sa != sb) {
        // Worst-case concurrency of a total exchange: every (node in sa,
        // node in sb) pair streams across the same WAN link at once.
        const auto flows = static_cast<double>(sites_[sa].node_count *
                                               sites_[sb].node_count);
        const double shared_wan = wan_(sa, sb).bandwidth_Bps / flows;
        params.bandwidth_Bps =
            std::min({sites_[sa].lan.bandwidth_Bps, shared_wan,
                      sites_[sb].lan.bandwidth_Bps});
      }
      for (std::size_t i = first_a; i < end_a; ++i) {
        std::fill(t.begin() + i * n + first_b, t.begin() + i * n + end_b,
                  params.startup_s);
        std::fill(b.begin() + i * n + first_b, b.begin() + i * n + end_b,
                  params.bandwidth_Bps);
      }
      first_b = end_b;
    }
    for (std::size_t i = first_a; i < end_a; ++i) {
      t[i * n + i] = 0.0;
      b[i * n + i] = std::numeric_limits<double>::max();
    }
    first_a = end_a;
  }
  return NetworkModel{std::move(startup), std::move(bandwidth)};
}

}  // namespace hcs
