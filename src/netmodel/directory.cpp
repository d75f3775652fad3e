#include "netmodel/directory.hpp"

#include <algorithm>
#include <cmath>

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

DriftingDirectory::DriftingDirectory(NetworkModel base, std::uint64_t seed,
                                     Options options)
    : base_(std::move(base)), seed_(seed), options_(options) {
  if (options_.update_period_s <= 0.0)
    throw InputError("DriftingDirectory: update period must be positive");
  if (options_.max_factor < 1.0)
    throw InputError("DriftingDirectory: max_factor must be >= 1");
  max_log_ = std::log(options_.max_factor);
}

std::size_t DriftingDirectory::processor_count() const {
  return base_.processor_count();
}

std::uint64_t DriftingDirectory::step_at(double now_s) const {
  return now_s <= 0.0
             ? 0
             : static_cast<std::uint64_t>(now_s / options_.update_period_s);
}

double DriftingDirectory::factor_locked(std::size_t src, std::size_t dst,
                                        std::uint64_t step) const {
  static_assert(sizeof(WalkCursor) <= 64, "walk cursor outgrew 64 bytes");
  const std::size_t n = base_.processor_count();
  const auto pair_seed = [this](std::size_t i, std::size_t j) {
    std::uint64_t mix = seed_;
    mix ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(i) + 1);
    mix ^= 0xC2B2AE3D27D4EB4FULL * (static_cast<std::uint64_t>(j) + 1);
    return mix;
  };
  if (walks_.empty()) {
    walks_.reserve(n * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        walks_.push_back({Rng{pair_seed(i, j)}, 0, 0.0});
  }
  WalkCursor& walk = walks_[src * n + dst];
  // Going back in time restarts the walk from its seed; the walk is a
  // fixed sequence, so moving forward from either point lands on the
  // value a replay from t = 0 would give.
  if (step < walk.step) walk = {Rng{pair_seed(src, dst)}, 0, 0.0};
  for (; walk.step < step; ++walk.step) {
    walk.log_factor += walk.rng.normal(0.0, options_.step_sigma);
    walk.log_factor = std::clamp(walk.log_factor, -max_log_, max_log_);
  }
  return std::exp(walk.log_factor);
}

LinkParams DriftingDirectory::query(std::size_t src, std::size_t dst,
                                    double now_s) const {
  LinkParams params = base_.link(src, dst);
  if (src == dst) return params;
  const std::uint64_t step = step_at(now_s);
  const std::lock_guard<std::mutex> lock(mutex_);
  params.bandwidth_Bps *= factor_locked(src, dst, step);
  return params;
}

NetworkModel DriftingDirectory::snapshot(double now_s) const {
  // Same entries as the per-pair default: base start-up, drifted
  // bandwidth, and a 0 s / 1 B/s diagonal.
  const std::size_t n = base_.processor_count();
  const std::uint64_t step = step_at(now_s);
  Matrix<double> startup(n, n, 0.0);
  Matrix<double> bandwidth(n, n, 1.0);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const LinkParams params = base_.link(i, j);
        startup(i, j) = params.startup_s;
        bandwidth(i, j) = params.bandwidth_Bps * factor_locked(i, j, step);
      }
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

}  // namespace hcs
