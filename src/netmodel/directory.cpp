#include "netmodel/directory.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace hcs {

NetworkModel DirectoryService::snapshot(double now_s) const {
  const std::size_t n = processor_count();
  Matrix<double> startup(n, n, 0.0);
  Matrix<double> bandwidth(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const LinkParams params = query(i, j, now_s);
      startup(i, j) = params.startup_s;
      bandwidth(i, j) = params.bandwidth_Bps;
    }
  }
  return NetworkModel{std::move(startup), std::move(bandwidth)};
}

StaticDirectory::StaticDirectory(NetworkModel model) : model_(std::move(model)) {}

std::size_t StaticDirectory::processor_count() const {
  return model_.processor_count();
}

LinkParams StaticDirectory::query(std::size_t src, std::size_t dst,
                                  double /*now_s*/) const {
  return model_.link(src, dst);
}

NetworkModel StaticDirectory::snapshot(double /*now_s*/) const { return model_; }

struct DriftingDirectory::Path {
  /// node * kCounterStride for each node, so the node's bits are
  /// wymix(pair key + salt) = counter_hash(pair key, node).
  std::array<std::uint64_t, 128> salt;
  /// The node's normal enters S(step) with this weight.
  std::array<double, 128> weight;
  int size = 0;

  void add(std::uint64_t node, double node_weight) noexcept {
    salt[size] = node * kCounterStride;
    weight[size++] = node_weight;
  }
};

DriftingDirectory::DriftingDirectory(NetworkModel base, std::uint64_t seed,
                                     Options options)
    : base_(std::move(base)), seed_(seed), options_(options) {
  if (!std::isfinite(options_.update_period_s) ||
      options_.update_period_s <= 0.0)
    throw InputError("DriftingDirectory: update period must be finite and "
                     "positive");
  if (!std::isfinite(options_.step_sigma) || options_.step_sigma < 0.0)
    throw InputError("DriftingDirectory: step_sigma must be finite and >= 0");
  if (!std::isfinite(options_.max_factor) || options_.max_factor < 1.0)
    throw InputError("DriftingDirectory: max_factor must be finite and >= 1");
  max_log_ = std::log(options_.max_factor);
  const double sigma = options_.step_sigma;
  chain_scale_[0] = sigma;
  for (int j = 0; j < 64; ++j) {
    const double root = std::sqrt(std::ldexp(1.0, j));  // √(2^j)
    if (j + 1 < 64) chain_scale_[j + 1] = sigma * root;
    bridge_scale_[j] = 0.5 * sigma * root;
  }
}

std::size_t DriftingDirectory::processor_count() const {
  return base_.processor_count();
}

std::uint64_t DriftingDirectory::step_at(double now_s) const noexcept {
  const double steps = now_s / options_.update_period_s;
  if (!(steps > 0.0)) return 0;
  if (steps >= static_cast<double>(kMaxStep)) return kMaxStep;
  return static_cast<std::uint64_t>(steps);
}

DriftingDirectory::Path DriftingDirectory::path_to(
    std::uint64_t step) const noexcept {
  // The bridge unrolled into one weighted sum of its nodes' normals (the
  // Lévy–Ciesielski form): every node on the way to the step enters S(step)
  // with its scale times its hat function at the step, so every pair of a
  // snapshot runs one flat loop over the same salts and weights.
  Path path;
  if (step == 0) return path;
  // 2^(m-1) < step <= 2^m (m = 0 for step 1).
  const int m = std::bit_width(step - 1);
  std::uint64_t hi = std::uint64_t{1} << m;
  for (int p = 0; p < m; ++p)
    path.add(std::uint64_t{1} << p, chain_scale_[p]);
  if (step == hi) {
    path.add(hi, chain_scale_[m]);
    return path;
  }
  // Inside (lo, hi] the bridge starts from the chord between S(lo) and
  // S(hi), then bisects toward the step; each midpoint's hat rises from
  // 0 at the ends of its interval to 1 at its middle.
  std::uint64_t lo = hi / 2;
  path.add(hi, chain_scale_[m] * static_cast<double>(step - lo) /
                   static_cast<double>(hi - lo));
  for (;;) {
    const std::uint64_t half = (hi - lo) / 2;
    const std::uint64_t mid = lo + half;
    const std::uint64_t off = step < mid ? mid - step : step - mid;
    path.add(mid, bridge_scale_[std::countr_zero(hi - lo)] *
                      static_cast<double>(half - off) /
                      static_cast<double>(half));
    if (mid == step) return path;
    (step < mid ? hi : lo) = mid;
  }
}

double DriftingDirectory::factor(const Path& path,
                                 std::uint64_t pair_key) const noexcept {
  double value = 0.0;
  for (int n = 0; n < path.size; ++n)
    value += path.weight[n] * normal_(wymix(pair_key + path.salt[n]));
  // Reflect into [-L, L]: with u = value + L, the fold of period 4L is
  // |u - 4L·round(u / 4L)| - L. Branch-free, because the free value lands
  // on either side of a bound at random. The clamps absorb rounding and,
  // min before max, a non-finite value from an absurdly large σ.
  const double bound = max_log_;
  if (bound == 0.0) return 1.0;
  const double period = 4.0 * bound;
  const double shifted = value + bound;
  const double turns = std::max(-0x1p50, std::min(0x1p50, shifted / period));
  const double nearest = (turns + 0x1.8p52) - 0x1.8p52;  // round to nearest
  const double folded = std::abs(shifted - period * nearest) - bound;
  return std::exp(std::max(-bound, std::min(bound, folded)));
}

std::uint64_t DriftingDirectory::pair_key(std::size_t src,
                                          std::size_t dst) const noexcept {
  return counter_hash(counter_hash(seed_, static_cast<std::uint64_t>(src) + 1),
                      static_cast<std::uint64_t>(dst) + 1);
}

LinkParams DriftingDirectory::query(std::size_t src, std::size_t dst,
                                    double now_s) const {
  LinkParams params = base_.link(src, dst);
  if (src == dst) return params;
  params.bandwidth_Bps *=
      factor(path_to(step_at(now_s)), pair_key(src, dst));
  return params;
}

NetworkModel DriftingDirectory::snapshot(double now_s) const {
  // Same entries as the per-pair default: base start-up, drifted
  // bandwidth, and a 0 s / 1 B/s diagonal. One path serves every pair.
  const std::size_t n = base_.processor_count();
  const Path path = path_to(step_at(now_s));
  Matrix<double> startup(n, n, 0.0);
  Matrix<double> bandwidth(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const LinkParams params = base_.link(i, j);
      startup(i, j) = params.startup_s;
      bandwidth(i, j) = params.bandwidth_Bps * factor(path, pair_key(i, j));
    }
  return NetworkModel{std::move(startup), std::move(bandwidth)};
}

TraceDirectory::TraceDirectory(std::map<double, NetworkModel> trace)
    : trace_(std::move(trace)) {
  if (trace_.empty()) throw InputError("TraceDirectory: empty trace");
  if (trace_.begin()->first > 0.0)
    throw InputError("TraceDirectory: trace must cover time 0");
  const std::size_t n = trace_.begin()->second.processor_count();
  for (const auto& [time, model] : trace_)
    if (model.processor_count() != n)
      throw InputError("TraceDirectory: inconsistent processor counts");
}

std::size_t TraceDirectory::processor_count() const {
  return trace_.begin()->second.processor_count();
}

const NetworkModel& TraceDirectory::active(double now_s) const {
  auto it = trace_.upper_bound(now_s);
  check(it != trace_.begin(), "TraceDirectory: query before trace start");
  return std::prev(it)->second;
}

LinkParams TraceDirectory::query(std::size_t src, std::size_t dst,
                                 double now_s) const {
  return active(now_s).link(src, dst);
}

NetworkModel TraceDirectory::snapshot(double now_s) const { return active(now_s); }

bool TraceDirectory::time_invariant() const { return trace_.size() == 1; }

std::unique_ptr<DirectoryService> make_live_directory(
    NetworkModel network, std::uint64_t seed,
    const DriftingDirectory::Options& drift) {
  if (drift.step_sigma > 0.0)
    return std::make_unique<DriftingDirectory>(std::move(network), seed * 97,
                                               drift);
  return std::make_unique<StaticDirectory>(std::move(network));
}

}  // namespace hcs
