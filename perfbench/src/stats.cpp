#include "stats.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <latch>
#include <numeric>
#include <queue>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

std::size_t min_samples_for(double q) {
  // n - ceil(q * n) >= kBeyondTail; scan instead of solving, so rounding
  // matches tail_percentile exactly.
  std::size_t n = kBeyondTail;
  while (n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) <
         kBeyondTail)
    ++n;
  return n;
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  if (n - rank < kBeyondTail) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double geomean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

/// A "Vm...:  N kB" field of /proc/self/status, in MB.
double status_mb(const std::string& field) {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields{line.substr(field.size())};
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  return 0.0;
}

/// Keeps the reference kernel's result alive, so no part of it is
/// optimized away.
thread_local volatile double kernel_sink = 0.0;

}  // namespace

CpuTicks cpu_ticks() {
  // The first line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ...".
  std::ifstream stat{"/proc/stat"};
  std::string label;
  stat >> label;
  CpuTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_pct(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? 100.0 * (to.steal - from.steal) / total : 0.0;
}

double reference_kernel_ms() {
  const double t0 = now_s();
  std::mt19937_64 rng{11};
  const auto draw = [&rng] { return static_cast<double>(rng() >> 11); };

  std::vector<double> values(std::size_t{1} << 17);
  for (double& v : values) v = draw();
  std::sort(values.begin(), values.end());

  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (int i = 0; i < (1 << 15); ++i) events.push({draw(), i});
  double total = 0.0;
  for (int i = 0; i < (1 << 17); ++i) {
    const Event next = events.top();
    events.pop();
    total += next.first;
    events.push({next.first + static_cast<double>(rng() >> 40), next.second});
  }

  std::unordered_map<std::uint64_t, int> table;
  for (int i = 0; i < (1 << 15); ++i) table[rng()] = i;
  for (int i = 0; i < (1 << 16); ++i) total += static_cast<double>(table.count(rng()));

  kernel_sink = total + values[values.size() / 2];
  return (now_s() - t0) * 1e3;
}

double reference_kernel_all_cpus_ms() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(-1);  // unknown: run one thread, unpinned

  std::vector<double> times(cpus.size(), 0.0);
  std::latch start{static_cast<std::ptrdiff_t>(cpus.size())};
  std::vector<std::thread> threads;
  threads.reserve(cpus.size());
  try {
    for (std::size_t k = 0; k < cpus.size(); ++k)
      threads.emplace_back([&times, &start, &cpus, k] {
        if (cpus[k] >= 0) {
          // Best effort: an unpinned thread still runs at once with the
          // others.
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpus[k], &one);
          (void)::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
        }
        start.arrive_and_wait();
        times[k] = reference_kernel_ms();
      });
  } catch (...) {
    // Release the threads already waiting, then join them.
    start.count_down(static_cast<std::ptrdiff_t>(cpus.size() - threads.size()));
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();
  return median_of(times);
}

double peak_rss_mb() { return status_mb("VmHWM:"); }

double trimmed_rss_mb() {
  ::malloc_trim(0);
  return status_mb("VmRSS:");
}

double unattributed(double pass, const std::vector<double>& stage_self) {
  return pass - std::accumulate(stage_self.begin(), stage_self.end(), 0.0);
}

double outside_worker(double client_mean, double worker_mean) {
  return client_mean - worker_mean;
}

int SpanLog::open(std::string name, int parent, std::uint64_t op) {
  spans_.push_back({std::move(name), now_s(), 0.0, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now_s(); }

std::map<std::string, std::map<std::uint64_t, double>> SpanLog::self_by_name()
    const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      covered[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
  std::map<std::string, std::map<std::uint64_t, double>> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    out[span.name][span.op] += (span.end_s - span.start_s) - covered[k];
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  out.precision(9);
  out << std::fixed;
  for (const Span& span : spans_)
    out << "{\"name\": \"" << span.name << "\", \"start_s\": " << span.start_s
        << ", \"end_s\": " << span.end_s << ", \"parent\": " << span.parent
        << ", \"op\": " << span.op << "}\n";
}

}  // namespace perfbench
