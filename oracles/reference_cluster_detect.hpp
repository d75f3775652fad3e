// Retained triangular-layout cluster detector.
//
// src/netmodel/cluster_detect.cpp stores the complete-linkage cross bands
// as a square row-major matrix, walks only the live cluster ids and
// rewrites one row per merge. This file preserves the implementation it
// replaced: bands in triangular (a < b) storage, full 0..P scans that skip
// dead slots, and a strided column walk per merge. tests/
// cluster_detect_test.cpp (ClusterDetectEquivalence.*) pins the production
// detector's Clustering to this one with ==.
//
// Do not "optimize" this file; its value is being the unchanged original.
#pragma once

#include "netmodel/cluster_detect.hpp"
#include "netmodel/network_model.hpp"

namespace hcs {

/// detect_clusters as it was before the square-band rewrite: same
/// options, validation and result.
[[nodiscard]] Clustering reference_detect_clusters(
    const NetworkModel& network, const ClusterOptions& options = {});

}  // namespace hcs
