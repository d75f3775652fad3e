// The hcs command-line tool, as a testable library.
//
// Subcommands (see `hcs help`):
//   generate   emit a random communication-matrix CSV for a scenario
//   schedule   read a communication-matrix CSV, schedule it, report
//   lowerbound read a communication-matrix CSV, print t_lb
//   broadcast  schedule a heterogeneous broadcast on a random network
//   replay     drive a running hcsd daemon with a request trace and
//              report schedules/sec and latency percentiles
//
// run_cli performs no process-level I/O beyond the supplied streams, so
// the whole tool is unit-testable; tools/hcs_main.cpp is the thin binary
// wrapper.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "netmodel/directory.hpp"

namespace hcs::cli {

/// Executes the tool. `args` excludes the program name. Returns the
/// process exit code (0 = success, 1 = input error, 2 = usage error).
int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err);

/// Minimal option parser: --key value pairs plus bare flags (--key).
/// Unknown keys are rejected by callers via `allowed`.
class Options {
 public:
  /// Parses args[from..]; throws InputError on a missing value (a --key
  /// at end of input followed by nothing) or on a key not in `allowed`.
  Options(const std::vector<std::string>& args, std::size_t from,
          const std::vector<std::string>& allowed);

  [[nodiscard]] bool has(const std::string& key) const;
  /// Value of --key, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] long get_long(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

/// Drift settings of --drift SIGMA (default `default_sigma`) and
/// --drift-period T (default 1 s), shared by `hcs simulate`, `hcs trace`
/// and hcsd. Only hcsd accepts --drift-period; simulate and trace always
/// step once per second. Throws InputError for a non-finite or negative
/// sigma and for a non-finite or non-positive period, also when sigma is 0.
[[nodiscard]] DriftingDirectory::Options drift_options(const Options& options,
                                                       double default_sigma);

}  // namespace hcs::cli
