// Logical homogeneous cluster detection over the directory's cost
// structure.
//
// Wide-area heterogeneous networks are not flat: nodes group into sites
// whose internal links are orders of magnitude faster than the long-haul
// links between them (the paper's Figure 1 topology, GUSTO's five sites).
// Following Estefanel & Mounié ("Identifying Logical Homogeneous Clusters
// for Efficient Wide-area Communications", PAPERS.md), this module
// recovers that structure from performance measurements alone: no
// topology input, only the (T_ij, B_ij) pairs a DirectoryService
// advertises.
//
// Algorithm: each unordered node pair is reduced to quantized log-scale
// levels of its start-up cost and bandwidth (worst direction of each, so
// asymmetric links cluster conservatively). Agglomerative complete-
// linkage merging then grows clusters in ascending order of an effective
// link cost, under a homogeneity band: a merge is allowed only while
// every internal pair of the merged cluster stays within `tolerance`
// (multiplicative, per parameter) of the fastest internal pair.
// Quantization makes detection robust to measurement jitter below the
// bucket width; the band keeps a LAN-speed cluster from ever absorbing a
// WAN-separated node, because the merged cluster would contain both LAN-
// and WAN-level pairs. Ties are broken toward lower cluster ids, so the
// result is a pure function of the input — invariant under re-detection
// and equivariant under node relabeling.
//
// Degenerate outcomes are well-defined: a flat (homogeneous) network
// collapses to one cluster — callers fall back to the flat scheduling
// path — and a network with no homogeneous pairs stays all singletons.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netmodel/directory.hpp"
#include "netmodel/network_model.hpp"

namespace hcs {

/// Quantized log-scale level of a positive quantity: round(ln(x) /
/// quantum). Two values land in the same level when they differ by less
/// than a factor of roughly exp(quantum / 2) — the robustness-to-jitter
/// primitive both cluster detection and the schedule cache's cost-matrix
/// signatures (src/service) are built on. Values below a picosecond are
/// clamped (a zero start-up would otherwise map to -inf).
[[nodiscard]] std::int32_t quantize_log_level(double x, double quantum);

/// Tuning knobs for cluster detection.
struct ClusterOptions {
  /// Log-space quantization bucket width for both parameters. Links whose
  /// T (or B) differ by less than a factor exp(quantum) can land in the
  /// same level; ~0.25 tolerates ±28% measurement jitter.
  double quantum = 0.25;
  /// Homogeneity band: within a cluster, the slowest internal pair may
  /// exceed the fastest by at most this factor, per parameter. Must be
  /// >= 1. Larger values merge more aggressively; 1.0 only merges pairs
  /// in identical quantized levels.
  double tolerance = 4.0;
  /// Reference message size for the merge-priority metric
  /// (T + ref_bytes / B): merges are attempted fastest-pair-first under
  /// this effective cost.
  std::uint64_t ref_bytes = 64 * 1024;
};

/// A partition of the directory's nodes into logical clusters.
///
/// Cluster ids are dense, 0-based, and ordered by each cluster's smallest
/// member, with members listed in ascending order — a canonical form, so
/// two equal partitions compare equal with ==.
struct Clustering {
  /// Node id -> cluster id.
  std::vector<std::size_t> cluster_of;
  /// Cluster id -> sorted member node ids.
  std::vector<std::vector<std::size_t>> members;

  [[nodiscard]] std::size_t cluster_count() const noexcept {
    return members.size();
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return cluster_of.size();
  }
  /// True when detection found no exploitable structure: one big cluster
  /// (flat network) — hierarchical scheduling should fall back to the
  /// flat path.
  [[nodiscard]] bool flat() const noexcept { return members.size() <= 1; }

  [[nodiscard]] bool operator==(const Clustering&) const = default;
};

/// Detects logical homogeneous clusters in a network snapshot;
/// deterministic in (network, options). Memory is a square P x P band
/// matrix, 24 B a pair (25 MB at P = 1024), freed on return. Time is
/// O(P^2) for the initial bands and one O(live) row rewrite per merge,
/// plus an O(live) rescan for each row whose cached best partner merged.
[[nodiscard]] Clustering detect_clusters(const NetworkModel& network,
                                         const ClusterOptions& options = {});

/// Convenience overload: snapshots `directory` at `now_s` and detects on
/// the snapshot.
[[nodiscard]] Clustering detect_clusters(const DirectoryService& directory,
                                         double now_s,
                                         const ClusterOptions& options = {});

/// Elects one representative node per cluster: the medoid — the member
/// with the smallest total effective cost (T + ref_bytes/B, worse
/// direction) to its fellow members, ties to the lowest node id. A
/// singleton cluster's representative is its only member.
[[nodiscard]] std::vector<std::size_t> elect_representatives(
    const NetworkModel& network, const Clustering& clustering,
    std::uint64_t ref_bytes = 64 * 1024);

/// The quotient network over cluster representatives: a K x K
/// NetworkModel whose (a, b) link carries the parameters the directory
/// advertises between representative(a) and representative(b). The
/// diagonal gets zero start-up and a large bandwidth sentinel, like every
/// NetworkModel diagonal. This is the directory the inter-cluster
/// exchange is scheduled over.
[[nodiscard]] NetworkModel quotient_network(
    const NetworkModel& network, const Clustering& clustering,
    const std::vector<std::size_t>& representatives);

}  // namespace hcs
