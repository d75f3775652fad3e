// One run's result: the run record, human-readable lines, metrics, and
// the final JSON line that carries them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics, reported by every workload with tracing on; a layer
/// the workload does not reach reads 0.
extern const std::vector<MetricDef> kPerLayer;

class Report {
 public:
  void metric(const std::string& name, double value);
  /// A human-readable line, printed before the JSON line.
  void note(const std::string& line);
  /// Marks the run incorrect, with the reason.
  void fail(const std::string& why);

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  [[nodiscard]] double value(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints notes, errors and then the JSON line holding exactly the
  /// metrics of `defs` (missing ones read 0).
  void print(std::ostream& out, const std::vector<MetricDef>& defs) const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
};

/// Formats a value for the human-readable lines.
[[nodiscard]] std::string fmt(double value, int precision = 4);

}  // namespace perfbench
