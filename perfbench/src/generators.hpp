// Workload inputs, all pure functions of the workload seed: scenario
// specs for the pipeline workloads and request traces for the hcsd
// workloads. The program under test only ever sees what these produce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"
#include "scenario/spec.hpp"
#include "workload/generators.hpp"

namespace perfbench {

/// `count` distinct spec seeds drawn from the workload seed.
[[nodiscard]] std::vector<std::uint64_t> spec_seeds(std::uint64_t workload_seed,
                                                    std::size_t count);

/// wide_hier: clustered P=1024, 8 sites, mixed messages,
/// hierarchical(greedy), static directory.
[[nodiscard]] hcs::scenario::ScenarioSpec wide_hier_spec(std::uint64_t seed);

/// fleet_mid: the four classes of one pass, in pass order —
/// (a) flat P=96 openshop under drift, (b) flat P=128 max-matching,
/// (c) clustered P=128 hierarchical(greedy) with faults and replan,
/// (d) flat P=128 QoS/EDF with 64 tight pairs.
[[nodiscard]] std::vector<hcs::scenario::ScenarioSpec> fleet_mid_specs(
    std::uint64_t seed);

/// One hcsd request of a trace: which matrix, which algorithm, which
/// directory instant.
struct TraceRequest {
  std::size_t matrix = 0;
  hcs::SchedulerKind kind = hcs::SchedulerKind::kMaxMatching;
  bool hierarchical = false;
  double now_s = 0.0;
};

/// A request trace over a pool of distinct message matrices.
struct RequestTrace {
  std::vector<hcs::MessageMatrix> matrices;
  std::vector<TraceRequest> requests;
};

inline constexpr std::size_t kHcsdProcessors = 64;

/// hcsd_zipf: `count` requests over 1024 distinct mixed-message matrices
/// picked by Zipf(s=1); 80% max-matching, 20% hierarchical(greedy);
/// static directory (now_s = 0).
[[nodiscard]] RequestTrace zipf_trace(std::uint64_t workload_seed,
                                      std::size_t count);

/// hcsd_drift: `count` max-matching requests cycling over 4 distinct
/// matrices; request i asks for now_s = floor(i * 0.05).
[[nodiscard]] RequestTrace drift_trace(std::uint64_t workload_seed,
                                       std::size_t count);

/// Poisson arrival offsets (seconds from the window start) at `rate_qps`.
[[nodiscard]] std::vector<double> poisson_offsets(std::uint64_t seed,
                                                  double rate_qps,
                                                  std::size_t count);

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular), inverse-CDF
/// on a precomputed table.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Maps a uniform draw in [0, 1) to a rank.
  [[nodiscard]] std::size_t rank(double uniform) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
