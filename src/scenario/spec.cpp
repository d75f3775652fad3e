#include "scenario/spec.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

namespace hcs::scenario {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

struct Entry {
  std::string value;
  std::size_t line = 0;
};

/// One parsed file: every accepted `key = value`, plus where each section
/// header and key appeared, for line-numbered semantic diagnostics.
struct RawScenario {
  std::map<std::string, Entry, std::less<>> values;  // "section.key"
  std::map<std::string, std::size_t, std::less<>> sections;
};

constexpr std::array<std::string_view, 7> kSections = {
    "scenario", "topology", "workload", "scheduler",
    "qos",      "faults",   "expect"};

bool known_section(std::string_view name) {
  for (std::string_view s : kSections) {
    if (s == name) return true;
  }
  return false;
}

bool known_key(std::string_view section, std::string_view key) {
  static const std::map<std::string_view, std::vector<std::string_view>>
      kKeys = {
          {"scenario", {"name", "seed"}},
          {"topology",
           {"family", "processors", "sites", "drift_sigma",
            "drift_period_s"}},
          {"workload", {"kind", "bytes", "rows", "cols", "element_bytes"}},
          {"scheduler", {"algorithm", "ordering", "hierarchical"}},
          {"qos",
           {"deadline_factor", "tight_pairs", "tight_factor",
            "tight_priority"}},
          {"faults",
           {"crashes", "cuts", "loss", "restarts", "flaps", "brownouts",
            "brownout_factor", "replan"}},
          {"expect",
           {"complete", "max_ratio_to_lb", "deadlines_met", "golden"}},
      };
  auto it = kKeys.find(section);
  if (it == kKeys.end()) return false;
  for (std::string_view k : it->second) {
    if (k == key) return true;
  }
  return false;
}

RawScenario split_lines(std::string_view text) {
  RawScenario raw;
  std::string section;
  std::size_t line_no = 0;
  while (!text.empty() || line_no == 0) {
    std::string_view line = text;
    auto nl = text.find('\n');
    if (nl == std::string_view::npos) {
      text = {};
    } else {
      line = text.substr(0, nl);
      text.remove_prefix(nl + 1);
    }
    ++line_no;
    if (auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw ScenarioError(line_no, "malformed section header '" +
                                         std::string(line) +
                                         "' (expected [name])");
      }
      std::string name(trim(line.substr(1, line.size() - 2)));
      if (!known_section(name)) {
        throw ScenarioError(line_no, "unknown section [" + name + "]");
      }
      if (auto [it, inserted] = raw.sections.emplace(name, line_no);
          !inserted) {
        throw ScenarioError(line_no, "duplicate section [" + name +
                                         "] (first at line " +
                                         std::to_string(it->second) + ")");
      }
      section = std::move(name);
      continue;
    }
    auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ScenarioError(line_no, "expected 'key = value', got '" +
                                       std::string(line) + "'");
    }
    std::string key(trim(line.substr(0, eq)));
    std::string value(trim(line.substr(eq + 1)));
    if (section.empty()) {
      throw ScenarioError(line_no,
                          "key '" + key + "' outside any [section]");
    }
    if (key.empty()) {
      throw ScenarioError(line_no, "empty key before '='");
    }
    if (value.empty()) {
      throw ScenarioError(line_no, "empty value for key '" + key + "'");
    }
    if (!known_key(section, key)) {
      throw ScenarioError(line_no, "unknown key '" + key +
                                       "' in section [" + section + "]");
    }
    std::string full = section + "." + key;
    if (auto [it, inserted] =
            raw.values.emplace(std::move(full), Entry{value, line_no});
        !inserted) {
      throw ScenarioError(line_no, "duplicate key '" + key +
                                       "' in section [" + section +
                                       "] (first at line " +
                                       std::to_string(it->second.line) +
                                       ")");
    }
  }
  return raw;
}

[[noreturn]] void bad_value(const Entry& e, const std::string& what) {
  throw ScenarioError(e.line, what + ": '" + e.value + "'");
}

std::uint64_t parse_u64(const Entry& e) {
  std::uint64_t out = 0;
  const char* first = e.value.data();
  const char* last = first + e.value.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc{} || ptr != last) {
    bad_value(e, "expected a non-negative integer");
  }
  return out;
}

std::size_t parse_size(const Entry& e) {
  return static_cast<std::size_t>(parse_u64(e));
}

double parse_f64(const Entry& e) {
  double out = 0.0;
  const char* first = e.value.data();
  const char* last = first + e.value.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc{} || ptr != last) {
    bad_value(e, "expected a number");
  }
  return out;
}

bool parse_bool(const Entry& e) {
  if (e.value == "true") return true;
  if (e.value == "false") return false;
  bad_value(e, "expected true or false");
}

TopologyFamily parse_family(const Entry& e) {
  if (e.value == "flat") return TopologyFamily::kFlat;
  if (e.value == "clustered") return TopologyFamily::kClustered;
  if (e.value == "gusto") return TopologyFamily::kGusto;
  bad_value(e, "unknown topology family (flat|clustered|gusto)");
}

WorkloadKind parse_kind(const Entry& e) {
  if (e.value == "small") return WorkloadKind::kSmall;
  if (e.value == "large") return WorkloadKind::kLarge;
  if (e.value == "mixed") return WorkloadKind::kMixed;
  if (e.value == "servers") return WorkloadKind::kServers;
  if (e.value == "uniform") return WorkloadKind::kUniform;
  if (e.value == "transpose") return WorkloadKind::kTranspose;
  bad_value(e,
            "unknown workload kind "
            "(small|large|mixed|servers|uniform|transpose)");
}

QosOrdering parse_ordering(const Entry& e) {
  if (e.value == "edf") return QosOrdering::kEdf;
  if (e.value == "priority") return QosOrdering::kPriorityFirst;
  if (e.value == "laxity") return QosOrdering::kLeastLaxity;
  bad_value(e, "unknown qos ordering (edf|priority|laxity)");
}

constexpr std::array<SchedulerKind, 7> kAllKinds = {
    SchedulerKind::kBaseline, SchedulerKind::kBaselineBarrier,
    SchedulerKind::kMaxMatching, SchedulerKind::kMinMatching,
    SchedulerKind::kGreedy, SchedulerKind::kOpenShop,
    SchedulerKind::kRandom};

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Semantic validation helper: where to anchor a diagnostic about a key
/// that may or may not have been written.
class Lines {
 public:
  explicit Lines(const RawScenario& raw) : raw_(raw) {}

  [[nodiscard]] bool has(std::string_view full) const {
    return raw_.values.find(full) != raw_.values.end();
  }
  [[nodiscard]] std::size_t of(std::string_view full) const {
    if (auto it = raw_.values.find(full); it != raw_.values.end()) {
      return it->second.line;
    }
    auto dot = full.find('.');
    if (auto it = raw_.sections.find(full.substr(0, dot));
        it != raw_.sections.end()) {
      return it->second;
    }
    return 1;
  }
  [[nodiscard]] std::size_t section(std::string_view name) const {
    if (auto it = raw_.sections.find(name); it != raw_.sections.end()) {
      return it->second;
    }
    return 1;
  }

 private:
  const RawScenario& raw_;
};

void validate(const ScenarioSpec& spec, const RawScenario& raw) {
  const Lines at{raw};

  if (!at.has("scenario.name")) {
    throw ScenarioError(at.section("scenario"),
                        "[scenario] requires 'name'");
  }
  if (!valid_name(spec.name)) {
    throw ScenarioError(at.of("scenario.name"),
                        "scenario name must match [A-Za-z0-9_-]+, got '" +
                            spec.name + "'");
  }

  // Topology.
  if (spec.family == TopologyFamily::kGusto) {
    if (at.has("topology.processors") && spec.processors != 5) {
      throw ScenarioError(
          at.of("topology.processors"),
          "the gusto topology is fixed at 5 processors, got " +
              std::to_string(spec.processors));
    }
  } else if (!at.has("topology.processors")) {
    throw ScenarioError(at.section("topology"),
                        "[topology] requires 'processors'");
  }
  if (spec.processors < 2) {
    throw ScenarioError(at.of("topology.processors"),
                        "processors must be >= 2, got " +
                            std::to_string(spec.processors));
  }
  if (at.has("topology.sites") &&
      spec.family != TopologyFamily::kClustered) {
    throw ScenarioError(at.of("topology.sites"),
                        "'sites' is only valid with family = clustered");
  }
  if (spec.family == TopologyFamily::kClustered &&
      (spec.sites < 2 || spec.sites > spec.processors)) {
    throw ScenarioError(at.of("topology.sites"),
                        "sites must be in [2, processors], got " +
                            std::to_string(spec.sites));
  }
  if (!std::isfinite(spec.drift_sigma) || spec.drift_sigma < 0.0) {
    throw ScenarioError(at.of("topology.drift_sigma"),
                        "drift_sigma must be finite and >= 0");
  }
  if (at.has("topology.drift_period_s")) {
    if (spec.drift_sigma <= 0.0) {
      throw ScenarioError(
          at.of("topology.drift_period_s"),
          "'drift_period_s' requires drift_sigma > 0");
    }
    if (!std::isfinite(spec.drift_period_s) || spec.drift_period_s <= 0.0) {
      throw ScenarioError(at.of("topology.drift_period_s"),
                          "drift_period_s must be finite and > 0");
    }
  }

  // Workload.
  if (!at.has("workload.kind")) {
    throw ScenarioError(at.section("workload"),
                        "[workload] requires 'kind'");
  }
  if (at.has("workload.bytes") && spec.workload != WorkloadKind::kUniform) {
    throw ScenarioError(at.of("workload.bytes"),
                        "'bytes' is only valid with kind = uniform");
  }
  for (std::string_view key : {"rows", "cols", "element_bytes"}) {
    std::string full = "workload." + std::string(key);
    if (at.has(full) && spec.workload != WorkloadKind::kTranspose) {
      throw ScenarioError(at.of(full), "'" + std::string(key) +
                                           "' is only valid with kind = "
                                           "transpose");
    }
  }
  if (spec.uniform_bytes == 0) {
    throw ScenarioError(at.of("workload.bytes"), "bytes must be > 0");
  }
  if (spec.transpose_rows == 0 || spec.transpose_cols == 0 ||
      spec.element_bytes == 0) {
    throw ScenarioError(at.section("workload"),
                        "transpose rows, cols, and element_bytes must all "
                        "be > 0");
  }

  // Scheduler.
  if (at.has("scheduler.ordering") && !spec.qos_scheduler) {
    throw ScenarioError(at.of("scheduler.ordering"),
                        "'ordering' requires algorithm = qos");
  }
  if (spec.qos_scheduler && !spec.has_qos) {
    throw ScenarioError(at.of("scheduler.algorithm"),
                        "algorithm = qos requires a [qos] section");
  }
  if (spec.qos_scheduler && spec.hierarchical) {
    throw ScenarioError(
        at.of("scheduler.hierarchical"),
        "algorithm = qos cannot be combined with hierarchical = true");
  }
  if (spec.hierarchical && spec.processors < 4) {
    throw ScenarioError(at.of("scheduler.hierarchical"),
                        "hierarchical scheduling requires processors >= 4");
  }

  // QoS.
  if (spec.has_qos) {
    if (!std::isfinite(spec.deadline_factor) || spec.deadline_factor <= 0.0) {
      throw ScenarioError(at.of("qos.deadline_factor"),
                          "deadline_factor must be > 0 and finite");
    }
    const std::size_t pair_limit =
        spec.processors * (spec.processors - 1);
    if (spec.tight_pairs > pair_limit) {
      throw ScenarioError(at.of("qos.tight_pairs"),
                          "tight_pairs must be <= P*(P-1) = " +
                              std::to_string(pair_limit));
    }
    for (std::string_view key : {"tight_factor", "tight_priority"}) {
      std::string full = "qos." + std::string(key);
      if (at.has(full) && spec.tight_pairs == 0) {
        throw ScenarioError(at.of(full), "'" + std::string(key) +
                                             "' requires tight_pairs > 0");
      }
    }
    if (!std::isfinite(spec.tight_factor) || spec.tight_factor <= 0.0) {
      throw ScenarioError(at.of("qos.tight_factor"),
                          "tight_factor must be > 0 and finite");
    }
    if (!std::isfinite(spec.tight_priority) || spec.tight_priority <= 0.0) {
      throw ScenarioError(at.of("qos.tight_priority"),
                          "tight_priority must be > 0 and finite");
    }
  }

  // Faults.
  if (spec.has_faults) {
    if (spec.processors < 3) {
      throw ScenarioError(at.section("faults"),
                          "fault plans require processors >= 3 (relays "
                          "need an intermediate node)");
    }
    if (spec.crashes + spec.restarts > spec.processors - 2) {
      throw ScenarioError(
          at.section("faults"),
          "crashes + restarts must leave at least 2 healthy nodes "
          "(limit " +
              std::to_string(spec.processors - 2) + ")");
    }
    if (!std::isfinite(spec.loss) || spec.loss < 0.0 || spec.loss >= 1.0) {
      throw ScenarioError(at.of("faults.loss"),
                          "loss must be in [0, 1)");
    }
    if (at.has("faults.brownout_factor") && spec.brownouts == 0) {
      throw ScenarioError(at.of("faults.brownout_factor"),
                          "'brownout_factor' requires brownouts > 0");
    }
    if (!std::isfinite(spec.brownout_factor) ||
        spec.brownout_factor <= 0.0 || spec.brownout_factor > 1.0) {
      throw ScenarioError(at.of("faults.brownout_factor"),
                          "brownout_factor must be in (0, 1]");
    }
    if (spec.crashes > 0 && spec.expect_complete) {
      throw ScenarioError(at.section("faults"),
                          "crash-stop nodes make completion impossible; "
                          "set [expect] complete = false");
    }
  }

  // Expectations.
  if (at.has("expect.max_ratio_to_lb") &&
      (!std::isfinite(spec.expect_max_ratio) ||
       spec.expect_max_ratio <= 0.0)) {
    throw ScenarioError(at.of("expect.max_ratio_to_lb"),
                        "max_ratio_to_lb must be > 0 and finite");
  }
  if (spec.expect_deadlines_met && !spec.has_qos) {
    throw ScenarioError(at.of("expect.deadlines_met"),
                        "'deadlines_met' requires a [qos] section");
  }
  if (at.has("expect.golden") &&
      spec.golden.find('/') != std::string::npos) {
    throw ScenarioError(at.of("expect.golden"),
                        "golden must be a bare file name, got '" +
                            spec.golden + "'");
  }
}

std::string fmt(double v) {
  std::array<char, 64> buf{};
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  (void)ec;
  return std::string(buf.data(), ptr);
}

}  // namespace

ScenarioSpec parse_scenario(std::string_view text) {
  RawScenario raw = split_lines(text);
  ScenarioSpec spec;
  spec.has_qos = raw.sections.contains("qos");
  spec.has_faults = raw.sections.contains("faults");
  for (const auto& [full, entry] : raw.values) {
    if (full == "scenario.name") {
      spec.name = entry.value;
    } else if (full == "scenario.seed") {
      spec.seed = parse_u64(entry);
    } else if (full == "topology.family") {
      spec.family = parse_family(entry);
    } else if (full == "topology.processors") {
      spec.processors = parse_size(entry);
    } else if (full == "topology.sites") {
      spec.sites = parse_size(entry);
    } else if (full == "topology.drift_sigma") {
      spec.drift_sigma = parse_f64(entry);
    } else if (full == "topology.drift_period_s") {
      spec.drift_period_s = parse_f64(entry);
    } else if (full == "workload.kind") {
      spec.workload = parse_kind(entry);
    } else if (full == "workload.bytes") {
      spec.uniform_bytes = parse_u64(entry);
    } else if (full == "workload.rows") {
      spec.transpose_rows = parse_size(entry);
    } else if (full == "workload.cols") {
      spec.transpose_cols = parse_size(entry);
    } else if (full == "workload.element_bytes") {
      spec.element_bytes = parse_u64(entry);
    } else if (full == "scheduler.algorithm") {
      if (entry.value == "qos") {
        spec.qos_scheduler = true;
      } else {
        bool found = false;
        for (SchedulerKind kind : kAllKinds) {
          if (entry.value == scheduler_name(kind)) {
            spec.algorithm = kind;
            found = true;
            break;
          }
        }
        if (!found) {
          bad_value(entry, "unknown scheduler algorithm");
        }
      }
    } else if (full == "scheduler.ordering") {
      spec.ordering = parse_ordering(entry);
    } else if (full == "scheduler.hierarchical") {
      spec.hierarchical = parse_bool(entry);
    } else if (full == "qos.deadline_factor") {
      spec.deadline_factor = parse_f64(entry);
    } else if (full == "qos.tight_pairs") {
      spec.tight_pairs = parse_size(entry);
    } else if (full == "qos.tight_factor") {
      spec.tight_factor = parse_f64(entry);
    } else if (full == "qos.tight_priority") {
      spec.tight_priority = parse_f64(entry);
    } else if (full == "faults.crashes") {
      spec.crashes = parse_size(entry);
    } else if (full == "faults.cuts") {
      spec.cuts = parse_size(entry);
    } else if (full == "faults.loss") {
      spec.loss = parse_f64(entry);
    } else if (full == "faults.restarts") {
      spec.restarts = parse_size(entry);
    } else if (full == "faults.flaps") {
      spec.flaps = parse_size(entry);
    } else if (full == "faults.brownouts") {
      spec.brownouts = parse_size(entry);
    } else if (full == "faults.brownout_factor") {
      spec.brownout_factor = parse_f64(entry);
    } else if (full == "faults.replan") {
      spec.replan = parse_bool(entry);
    } else if (full == "expect.complete") {
      spec.expect_complete = parse_bool(entry);
    } else if (full == "expect.max_ratio_to_lb") {
      spec.expect_max_ratio = parse_f64(entry);
    } else if (full == "expect.deadlines_met") {
      spec.expect_deadlines_met = parse_bool(entry);
    } else if (full == "expect.golden") {
      spec.golden = entry.value;
    }
  }
  if (spec.family == TopologyFamily::kGusto &&
      !raw.values.contains("topology.processors")) {
    spec.processors = 5;
  }
  validate(spec, raw);
  return spec;
}

std::string emit_scenario(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "[scenario]\n";
  out << "name = " << spec.name << "\n";
  out << "seed = " << spec.seed << "\n";

  out << "\n[topology]\n";
  out << "family = " << topology_family_name(spec.family) << "\n";
  out << "processors = " << spec.processors << "\n";
  if (spec.family == TopologyFamily::kClustered) {
    out << "sites = " << spec.sites << "\n";
  }
  if (spec.drift_sigma > 0.0) {
    out << "drift_sigma = " << fmt(spec.drift_sigma) << "\n";
    out << "drift_period_s = " << fmt(spec.drift_period_s) << "\n";
  }

  out << "\n[workload]\n";
  out << "kind = " << workload_kind_name(spec.workload) << "\n";
  if (spec.workload == WorkloadKind::kUniform) {
    out << "bytes = " << spec.uniform_bytes << "\n";
  }
  if (spec.workload == WorkloadKind::kTranspose) {
    out << "rows = " << spec.transpose_rows << "\n";
    out << "cols = " << spec.transpose_cols << "\n";
    out << "element_bytes = " << spec.element_bytes << "\n";
  }

  out << "\n[scheduler]\n";
  if (spec.qos_scheduler) {
    out << "algorithm = qos\n";
    out << "ordering = " << qos_ordering_name(spec.ordering) << "\n";
  } else {
    out << "algorithm = " << scheduler_name(spec.algorithm) << "\n";
  }
  if (spec.hierarchical) {
    out << "hierarchical = true\n";
  }

  if (spec.has_qos) {
    out << "\n[qos]\n";
    out << "deadline_factor = " << fmt(spec.deadline_factor) << "\n";
    out << "tight_pairs = " << spec.tight_pairs << "\n";
    if (spec.tight_pairs > 0) {
      out << "tight_factor = " << fmt(spec.tight_factor) << "\n";
      out << "tight_priority = " << fmt(spec.tight_priority) << "\n";
    }
  }

  if (spec.has_faults) {
    out << "\n[faults]\n";
    if (spec.crashes > 0) out << "crashes = " << spec.crashes << "\n";
    if (spec.cuts > 0) out << "cuts = " << spec.cuts << "\n";
    if (spec.loss > 0.0) out << "loss = " << fmt(spec.loss) << "\n";
    if (spec.restarts > 0) out << "restarts = " << spec.restarts << "\n";
    if (spec.flaps > 0) out << "flaps = " << spec.flaps << "\n";
    if (spec.brownouts > 0) {
      out << "brownouts = " << spec.brownouts << "\n";
      out << "brownout_factor = " << fmt(spec.brownout_factor) << "\n";
    }
    if (spec.replan) out << "replan = true\n";
  }

  const bool expect_nondefault =
      !spec.expect_complete || spec.expect_max_ratio > 0.0 ||
      spec.expect_deadlines_met || !spec.golden.empty();
  if (expect_nondefault) {
    out << "\n[expect]\n";
    if (!spec.expect_complete) out << "complete = false\n";
    if (spec.expect_max_ratio > 0.0) {
      out << "max_ratio_to_lb = " << fmt(spec.expect_max_ratio) << "\n";
    }
    if (spec.expect_deadlines_met) out << "deadlines_met = true\n";
    if (!spec.golden.empty()) out << "golden = " << spec.golden << "\n";
  }
  return out.str();
}

std::string_view topology_family_name(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::kFlat: return "flat";
    case TopologyFamily::kClustered: return "clustered";
    case TopologyFamily::kGusto: return "gusto";
  }
  return "flat";
}

std::string_view workload_kind_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSmall: return "small";
    case WorkloadKind::kLarge: return "large";
    case WorkloadKind::kMixed: return "mixed";
    case WorkloadKind::kServers: return "servers";
    case WorkloadKind::kUniform: return "uniform";
    case WorkloadKind::kTranspose: return "transpose";
  }
  return "mixed";
}

std::string_view qos_ordering_name(QosOrdering ordering) {
  switch (ordering) {
    case QosOrdering::kEdf: return "edf";
    case QosOrdering::kPriorityFirst: return "priority";
    case QosOrdering::kLeastLaxity: return "laxity";
  }
  return "edf";
}

}  // namespace hcs::scenario
