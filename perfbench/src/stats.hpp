// Measurement helpers: clocks, percentiles, ratios, memory, and the span
// recorder of the traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kBeyondTail = 10;

/// Smallest sample count whose q-percentile has kBeyondTail samples
/// beyond it.
[[nodiscard]] std::size_t min_samples_for(double q);

/// Nearest-rank q-percentile, or nullopt when fewer than kBeyondTail
/// samples lie beyond it. q in (0, 1).
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> samples,
                                                    double q);

/// Median (mean of the middle pair for even counts); 0 for no samples.
[[nodiscard]] double median_of(std::vector<double> samples);

/// Arithmetic mean; 0 for no samples.
[[nodiscard]] double mean_of(const std::vector<double>& samples);

/// Geometric mean of positive values; 0 for no values.
[[nodiscard]] double geomean_of(const std::vector<double>& values);

/// Aggregate CPU time of the host's CPUs so far, in clock ticks.
struct CpuTicks {
  double steal = 0.0;  ///< the hypervisor ran something else on our CPUs
  double total = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Percentage of the CPU time between two readings that was stolen.
[[nodiscard]] double steal_pct(const CpuTicks& from, const CpuTicks& to);

/// Wall time of one run of a fixed, CPU-bound reference kernel, in ms:
/// a sort, a binary-heap event loop and hash-map inserts and lookups on
/// inputs that never change, the operations the scheduler and simulator
/// are built from. A shared host's speed moves by a third at minute scale
/// (another tenant on a vCPU's physical core); the kernel slows with it,
/// so a time divided by the kernel's time read beside it keeps only what
/// the program itself changed.
[[nodiscard]] double reference_kernel_ms();

/// The reference kernel run at once on every CPU this process may use,
/// one thread pinned to each; the median of their times, in ms. Work
/// spread over several threads runs on several vCPUs, whose speeds a
/// shared host moves apart.
[[nodiscard]] double reference_kernel_all_cpus_ms();

/// The reference kernel's median time on a quiet 4-vCPU Xeon VM; a time
/// divided by the kernel's time is multiplied by this to read in ms again.
inline constexpr double kReferenceKernelMs = 26.0;

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Resident set size of this process in MB (VmRSS), after returning the
/// allocator's free pages to the system, so it counts live data rather
/// than how the allocator's arenas happened to fragment.
[[nodiscard]] double trimmed_rss_mb();

/// Pass time not covered by the stage self times: what the traced pass
/// spent outside every recorded stage.
[[nodiscard]] double unattributed(double pass, const std::vector<double>& stage_self);

/// Client-observed mean latency minus the daemon's mean worker-busy time:
/// queue wait, socket and framing.
[[nodiscard]] double outside_worker(double client_mean, double worker_mean);

/// In-memory span recorder for the traced run. Spans nest through an
/// explicit parent id; op is the pass or request the span belongs to.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  /// Opens a span and returns its id.
  int open(std::string name, int parent, std::uint64_t op);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Per-op sums of each span name's self time.
  [[nodiscard]] std::map<std::string, std::map<std::uint64_t, double>>
  self_by_name() const;
  /// Writes the spans as JSON lines (name, start, end, parent, op).
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent, std::uint64_t op)
      : log_(log), id_(log.open(std::move(name), parent, op)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
