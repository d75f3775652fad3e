#include "fault/health.hpp"

#include <cmath>

#include "util/error.hpp"

namespace hcs {

void HealthOptions::validate() const {
  if (strike_limit == 0)
    throw InputError("HealthOptions: strike_limit must be >= 1");
  if (!(deviation_factor >= 1.0) || !std::isfinite(deviation_factor))
    throw InputError("HealthOptions: deviation_factor must be finite and >= 1");
  if (!(quarantine_bandwidth_factor > 0.0) ||
      !(quarantine_bandwidth_factor <= 1.0) ||
      !std::isfinite(quarantine_bandwidth_factor))
    throw InputError(
        "HealthOptions: quarantine_bandwidth_factor must be in (0, 1]");
}

HealthMonitor::HealthMonitor(std::size_t processor_count, HealthOptions options)
    : n_(processor_count), options_(options), pairs_(processor_count * processor_count) {
  options_.validate();
}

QuarantineDirectory::QuarantineDirectory(const DirectoryService& base,
                                         const HealthMonitor& health)
    : base_(base), health_(health) {
  check(health.processor_count() == 0 ||
            health.processor_count() == base.processor_count(),
        "QuarantineDirectory: monitor size does not match directory");
}

std::size_t QuarantineDirectory::processor_count() const {
  return base_.processor_count();
}

LinkParams QuarantineDirectory::query(std::size_t src, std::size_t dst,
                                      double now_s) const {
  LinkParams params = base_.query(src, dst, now_s);
  if (src != dst && health_.processor_count() > 0 && health_.quarantined(src, dst))
    params.bandwidth_Bps *= health_.options().quarantine_bandwidth_factor;
  return params;
}

NetworkModel QuarantineDirectory::snapshot(double now_s) const {
  NetworkModel model = base_.snapshot(now_s);
  const std::size_t n = model.processor_count();
  for (std::size_t p = 0; p < n; ++p) model.set_link(p, p, {0.0, 1.0});
  for (const std::size_t pair : health_.quarantined_pairs()) {
    const std::size_t src = pair / n;
    const std::size_t dst = pair % n;
    if (src == dst) continue;
    LinkParams params = model.link(src, dst);
    params.bandwidth_Bps *= health_.options().quarantine_bandwidth_factor;
    model.set_link(src, dst, params);
  }
  return model;
}

}  // namespace hcs
