// Hierarchical site topology — the structure of Figure 1 in the paper.
//
// A metacomputing system consists of sites (a supercomputer's internal
// network, a campus LAN) joined by long-haul WAN links. A message between
// nodes at different sites crosses the sender's local network, the WAN
// link, and the receiver's local network. This module composes those hops
// into the end-to-end (T_ij, B_ij) pairs the communication model uses:
// start-ups add along the path, and the path bandwidth is the minimum hop
// bandwidth.
//
// The paper's directory "takes into account the current network load ...
// If the paths between two distinct node pairs share a common link, the
// bandwidth of the common link is divided among these communicating
// pairs" (§3.1). `to_network` can apply that division for the worst case
// of a total exchange, where every cross-site pair is active at once.
#pragma once

#include <cstddef>
#include <vector>

#include "netmodel/link_params.hpp"
#include "netmodel/network_model.hpp"
#include "util/matrix.hpp"

namespace hcs {

/// One site: how many compute nodes it hosts and the performance of a hop
/// through its local network.
struct SiteSpec {
  std::size_t node_count = 0;
  LinkParams lan;
};

/// A two-level site/WAN topology.
class HierarchicalTopology {
 public:
  /// `sites` lists every site; `wan` gives the long-haul link parameters
  /// between each ordered site pair (diagonal ignored). `wan` must be a
  /// square matrix of dimension sites.size().
  HierarchicalTopology(std::vector<SiteSpec> sites, Matrix<LinkParams> wan);

  /// Total number of compute nodes across all sites. Node ids are assigned
  /// contiguously in site order: site 0 holds nodes [0, n0), site 1 holds
  /// [n0, n0+n1), and so on.
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }

  [[nodiscard]] std::size_t site_count() const noexcept { return sites_.size(); }

  /// Site hosting node `node`.
  [[nodiscard]] std::size_t site_of(std::size_t node) const;

  /// End-to-end parameters between two nodes, assuming the WAN link's full
  /// bandwidth is available.
  [[nodiscard]] LinkParams end_to_end(std::size_t src, std::size_t dst) const;

  /// Materializes the end-to-end NetworkModel over all nodes.
  ///
  /// With `divide_shared_wan` set, the bandwidth of each inter-site WAN
  /// link is divided by the number of node pairs that cross it in a total
  /// exchange (nodes(a) * nodes(b) flows in each direction) — the paper's
  /// §3.1 shared-link rule under the worst-case concurrency of the
  /// collective being scheduled.
  [[nodiscard]] NetworkModel to_network(bool divide_shared_wan = false) const;

 private:
  /// Parameters every node of site `sa` sees to every other node of site
  /// `sb`: the LAN within one site, LAN + WAN + LAN across two.
  [[nodiscard]] LinkParams site_link(std::size_t sa, std::size_t sb) const;

  std::vector<SiteSpec> sites_;
  Matrix<LinkParams> wan_;
  std::vector<std::size_t> node_site_;  ///< node id -> site id
  std::size_t node_count_ = 0;
};

}  // namespace hcs
