#include "hcsd.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "core/comm_matrix.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "generators.hpp"
#include "netmodel/cluster_detect.hpp"
#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "service/client.hpp"
#include "service/schedule_cache.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace svc = hcs::service;

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSetups = 5;
/// Capacity ladder rungs, relative to the fixed rate (rung 0).
constexpr int kLadderLow = -16;
constexpr int kLadderHigh = 40;
constexpr std::size_t kRungRequests = 2000;
constexpr std::size_t kSaturationRuns = 5;
/// The latency window is run in parts; its p50s are medians over them.
constexpr std::size_t kLatencyParts = 3;
/// A latency part or saturation run is quiet when the hypervisor stole
/// at most this share of the CPU time while it ran.
constexpr double kQuietStealPct = 2.0;
/// Runs made beyond the kept count to replace ones that were not quiet.
constexpr std::size_t kExtraRuns = 2;
/// How long before a request's intended send time the generator stops
/// sleeping and spins.
constexpr double kSpinS = 200e-6;
constexpr std::size_t kProbeRequests = 2000;

/// Fixed per-workload load settings.
struct HcsdSettings {
  const char* name;
  bool drift;        ///< DriftingDirectory (else static clustered)
  double fixed_qps;  ///< the offered rate of the latency window
  double limit_ms;   ///< p99 latency limit of a capacity rung
  std::size_t warmup;  ///< closed-loop requests before timing
};

/// zipf warms up until its cache reaches the steady hit rate; drift warms
/// up over instants 0..49, snapshot builds and solves included.
const HcsdSettings kSettings[] = {
    {"hcsd_zipf", false, 500.0, 25.0, 2000},
    {"hcsd_drift", true, 450.0, 50.0, 1000},
};

/// The daemon's fabric is fixed configuration, like a deployment's; the
/// workload seed drives only the traffic.
constexpr std::uint64_t kFabricSeed = 42;

std::unique_ptr<hcs::DirectoryService> make_directory(bool drift) {
  const std::uint64_t network_seed = kFabricSeed;
  if (drift) {
    hcs::DriftingDirectory::Options options;
    options.step_sigma = 0.3;
    options.update_period_s = 1.0;
    return std::make_unique<hcs::DriftingDirectory>(
        hcs::generate_network(kHcsdProcessors, network_seed),
        network_seed * 97, options);
  }
  hcs::ClusteredNetworkOptions options;
  options.cluster_count = 4;
  return std::make_unique<hcs::StaticDirectory>(
      hcs::generate_clustered_network(kHcsdProcessors, network_seed, options));
}

svc::ScheduleRequest make_request(const RequestTrace& trace, std::size_t i) {
  const TraceRequest& r = trace.requests[i];
  svc::ScheduleRequest request;
  request.kind = r.kind;
  request.hierarchical = r.hierarchical;
  request.now_s = r.now_s;
  request.messages = trace.matrices[r.matrix];
  return request;
}

/// A daemon on a socket inside the working tree; stopped on destruction.
class Daemon {
 public:
  explicit Daemon(const hcs::DirectoryService& directory)
      : path_(next_path()), server_(directory, options(path_)) {
    server_.start();
  }
  ~Daemon() {
    server_.stop();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] svc::ScheduleServer& server() noexcept { return server_; }

 private:
  static std::string next_path() {
    static std::atomic<int> counter{0};
    return ".bench_build/hcsd-" + std::to_string(::getpid()) + "-" +
           std::to_string(counter++) + ".sock";
  }
  static svc::ServerOptions options(const std::string& path) {
    svc::ServerOptions options;
    options.socket_path = path;
    options.workers = kWorkers;
    return options;  // default cache: 256 entries, 8 shards
  }

  std::string path_;
  svc::ScheduleServer server_;
};

/// Checks every response against the requester's own matrix, off the
/// clock: client threads queue each (request, response) pair not seen
/// before, and drain() checks the queue between windows, so no check
/// competes with a timed window for CPU time. Repeats of a pair are
/// recognized by digest.
class Validator {
 public:
  Validator(const hcs::DirectoryService& directory, const RequestTrace& trace)
      : directory_(directory), trace_(trace) {}

  /// Offers a response from a client thread after its round trip is
  /// timed. Only a (request, response) pair not seen before is queued;
  /// a repeat is recognized by digest and costs one hash.
  void offer(int window, std::size_t index, svc::ScheduleResponse response) {
    const TraceRequest& r = trace_.requests[index];
    const auto& events = response.events;
    const std::uint64_t digest = svc::hash_bytes64(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(events.data()),
        events.size() * sizeof(hcs::ScheduledEvent)));
    const RequestKey key{window, r.matrix, static_cast<int>(r.kind),
                         r.hierarchical, r.now_s};
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++checked_;
      if (!seen_.insert({key, digest}).second) return;
      queue_.push_back({key, index, std::move(response)});
    }
  }

  /// Checks every queued response. Call between windows.
  void drain() {
    std::deque<Item> items;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      items.swap(queue_);
    }
    for (const Item& item : items) check(item);
  }

  struct Invalid {
    int window;
    std::size_t index;
    std::string why;
  };
  /// Call after drain().
  [[nodiscard]] const std::vector<Invalid>& invalid() const { return invalid_; }
  [[nodiscard]] std::size_t checked() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return checked_;
  }
  /// Geomean of served completion / t_lb over the distinct requests of
  /// `window`. Call after drain().
  [[nodiscard]] double quality(int window) const {
    std::vector<double> ratios;
    for (const auto& [key, ratio] : quality_)
      if (std::get<0>(key) == window) ratios.push_back(ratio);
    return geomean_of(ratios);
  }

 private:
  // (window, matrix, kind, hierarchical, now_s)
  using RequestKey = std::tuple<int, std::size_t, int, bool, double>;
  struct Item {
    RequestKey key;
    std::size_t index = 0;
    svc::ScheduleResponse response;
  };

  void check(const Item& item) {
    const TraceRequest& r = trace_.requests[item.index];
    const hcs::CommMatrix comm{snapshot(r.now_s), trace_.matrices[r.matrix]};
    const hcs::Schedule schedule{item.response.processors, item.response.events};
    if (const auto violation = schedule.first_violation(comm)) {
      invalid_.push_back({std::get<0>(item.key), item.index, *violation});
      return;
    }
    quality_.emplace(item.key, item.response.completion_s / comm.lower_bound());
  }

  const hcs::NetworkModel& snapshot(double now_s) {
    auto it = snapshots_.find(now_s);
    if (it == snapshots_.end()) {
      if (snapshots_.size() >= 8) snapshots_.erase(snapshots_.begin());
      it = snapshots_.emplace(now_s, directory_.snapshot(now_s)).first;
    }
    return it->second;
  }

  const hcs::DirectoryService& directory_;
  const RequestTrace& trace_;

  mutable std::mutex mutex_;  // guards queue_, seen_ and checked_
  std::deque<Item> queue_;
  std::set<std::pair<RequestKey, std::uint64_t>> seen_;
  std::size_t checked_ = 0;

  // Used by drain() only.
  std::map<RequestKey, double> quality_;
  std::map<double, hcs::NetworkModel> snapshots_;
  std::vector<Invalid> invalid_;
};

/// One request of an open-loop window, times in seconds.
struct Sample {
  double intended = 0.0;
  double sent = 0.0;
  double received = 0.0;
  double idle_from = 0.0;  ///< when its connection was free to send it
  bool done = false;       ///< answered with a schedule
  bool busy = false;       ///< refused with kBusy
  bool hit = false;        ///< served from the daemon's cache
  std::string error;
};

struct Window {
  std::vector<Sample> samples;
  std::vector<SpanLog> spans;  // one per connection (traced windows)

  [[nodiscard]] std::size_t failed() const {
    return static_cast<std::size_t>(std::count_if(
        samples.begin(), samples.end(), [](const Sample& s) { return !s.done; }));
  }
  /// Latency from the intended send time, microseconds; a request that
  /// was refused or failed counts as infinitely late.
  [[nodiscard]] std::vector<double> latencies_us() const {
    std::vector<double> out;
    for (const Sample& s : samples)
      out.push_back(s.done ? (s.received - s.intended) * 1e6
                           : std::numeric_limits<double>::infinity());
    return out;
  }
  /// Latency from the intended send time of the requests served from the
  /// daemon's cache, microseconds.
  [[nodiscard]] std::vector<double> hit_latencies_us() const {
    std::vector<double> out;
    for (const Sample& s : samples)
      if (s.hit) out.push_back((s.received - s.intended) * 1e6);
    return out;
  }
  /// Round trip from the actual send, microseconds (answered only).
  [[nodiscard]] std::vector<double> round_trips_us() const {
    std::vector<double> out;
    for (const Sample& s : samples)
      if (s.done) out.push_back((s.received - s.sent) * 1e6);
    return out;
  }
  /// How late sends left against their intended time, counting only the
  /// wait the generator itself added (not waiting for the connection).
  [[nodiscard]] std::vector<double> generator_late_us() const {
    std::vector<double> out;
    for (const Sample& s : samples)
      if (s.sent > 0.0)
        out.push_back((s.sent - std::max(s.intended, s.idle_from)) * 1e6);
    return out;
  }
};

/// Drives `count` requests, trace[first + j], at Poisson arrivals of
/// `rate` over a pool of kConnections connections: each request goes out
/// on the first connection free at or after its intended time, in
/// arrival order. Stops issuing once a request is later than
/// `abort_after_s` (a rung that is already lost).
Window run_window(const std::string& socket, const RequestTrace& trace,
                  std::size_t first, std::size_t count, double rate,
                  std::uint64_t arrival_seed, Validator& validator,
                  int window_id, bool traced, double abort_after_s) {
  Window window;
  window.samples.resize(count);
  window.spans.resize(traced ? kConnections : 0);
  const std::vector<double> offsets = poisson_offsets(arrival_seed, rate, count);
  std::atomic<bool> abort{false};
  std::atomic<std::size_t> next{0};
  const double t0 = now_s() + 0.02;

  const auto drive = [&](std::size_t c) {
    std::optional<svc::ServiceClient> client;
    double idle_from = t0;
    for (std::size_t j = next++; j < count; j = next++) {
      if (abort.load(std::memory_order_relaxed)) break;
      Sample& sample = window.samples[j];
      const svc::ScheduleRequest request = make_request(trace, first + j);
      sample.intended = t0 + offsets[j];
      sample.idle_from = idle_from;
      // Sleep to just before the intended time, then spin: a late
      // wake-up of the generator would be charged to the daemon.
      const double wait = sample.intended - kSpinS - now_s();
      if (wait > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      while (now_s() < sample.intended) {
      }
      int span = -1;
      if (traced)
        span = window.spans[c].open("client.request", -1, first + j);
      sample.sent = now_s();
      try {
        if (!client) client.emplace(socket, 10.0);
        svc::ScheduleResponse response = client->schedule(request);
        sample.received = now_s();
        sample.done = true;
        sample.hit = response.cache_hit;
        validator.offer(window_id, first + j, std::move(response));
      } catch (const svc::ServiceError& error) {
        sample.received = now_s();
        sample.busy = error.code() == svc::ErrorCode::kBusy;
        sample.error = error.what();
      } catch (const std::exception& error) {
        sample.received = now_s();
        sample.error = error.what();
        client.reset();  // the stream may be out of sync; reconnect
      }
      if (traced) window.spans[c].close(span);
      idle_from = sample.received;
      if (sample.received - sample.intended > abort_after_s)
        abort.store(true, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) threads.emplace_back(drive, c);
  for (std::thread& thread : threads) thread.join();
  return window;
}

struct Verdict {
  bool pass = false;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  bool backlog_grows = false;
  std::size_t failed = 0;
};

Verdict judge(const Window& window, double limit_ms) {
  Verdict v;
  v.failed = window.failed();
  const auto latencies = window.latencies_us();
  v.p99_ms = tail_percentile(latencies, 0.99).value_or(
                 std::numeric_limits<double>::infinity()) /
             1e3;
  v.late_p99_ms = tail_percentile(window.generator_late_us(), 0.99)
                      .value_or(std::numeric_limits<double>::infinity()) /
                  1e3;
  // Backlog: the last third's median latency is well above the first
  // third's.
  const std::size_t third = latencies.size() / 3;
  const double head = median_of({latencies.begin(), latencies.begin() + third});
  const double tail = median_of({latencies.end() - third, latencies.end()});
  v.backlog_grows = (tail - head) / 1e3 > 0.5 * limit_ms;
  v.pass = v.failed == 0 && v.p99_ms <= limit_ms &&
           v.late_p99_ms <= 0.2 * limit_ms && !v.backlog_grows;
  return v;
}

/// Scrape counters and histogram totals, differenced over a window.
struct ScrapeDelta {
  std::map<std::string, double> counters;
  double latency_sum_s = 0.0, latency_count = 0.0;
  double solve_sum_s = 0.0, solve_count = 0.0;
};

const std::vector<std::string> kScrapeCounters = {
    "service.requests",        "service.cache_hit",
    "service.solved",          "service.coalesced",
    "service.memo_hit",        "service.cache.evictions",
    "service.busy_rejections", "service.snapshot_builds",
    "service.snapshot_reuses",
};

ScrapeDelta scrape_totals(const svc::ScheduleServer& server) {
  hcs::MetricsRegistry registry = server.scrape();
  ScrapeDelta totals;
  for (const std::string& name : kScrapeCounters)
    totals.counters[name] = static_cast<double>(registry.counter(name).value());
  const hcs::Histogram& latency = registry.histogram("service.latency_s");
  totals.latency_sum_s = latency.sum();
  totals.latency_count = static_cast<double>(latency.count());
  const hcs::Histogram& solve = registry.histogram("service.solve_s");
  totals.solve_sum_s = solve.sum();
  totals.solve_count = static_cast<double>(solve.count());
  return totals;
}

void accumulate(ScrapeDelta& total, const ScrapeDelta& part) {
  for (const auto& [name, value] : part.counters) total.counters[name] += value;
  total.latency_sum_s += part.latency_sum_s;
  total.latency_count += part.latency_count;
  total.solve_sum_s += part.solve_sum_s;
  total.solve_count += part.solve_count;
}

ScrapeDelta difference(const ScrapeDelta& after, const ScrapeDelta& before) {
  ScrapeDelta d;
  for (const auto& [name, value] : after.counters)
    d.counters[name] = value - before.counters.at(name);
  d.latency_sum_s = after.latency_sum_s - before.latency_sum_s;
  d.latency_count = after.latency_count - before.latency_count;
  d.solve_sum_s = after.solve_sum_s - before.solve_sum_s;
  d.solve_count = after.solve_count - before.solve_count;
  return d;
}

/// Stage probe: the worker's path for each request, replayed in process
/// on one thread through the public functions, each call timed.
struct Probe {
  std::map<std::string, std::vector<double>> stage_us;
  double stage_sum_us = 0.0;
  std::size_t requests = 0;
};

Probe run_probe(const hcs::DirectoryService& directory,
                const RequestTrace& trace, std::size_t warm_first,
                std::size_t warm_count, std::size_t first,
                std::size_t count) {
  Probe probe;
  const svc::ServerOptions defaults;  // the daemon's cache, quantum, seed
  svc::ScheduleCache cache{defaults.cache};
  std::map<hcs::SchedulerKind, std::unique_ptr<hcs::Scheduler>> schedulers;
  std::optional<hcs::NetworkModel> network;
  double network_now = -1.0;

  const auto serve = [&](std::size_t i, bool timed) {
    const std::vector<std::uint8_t> payload =
        svc::encode_schedule_request(make_request(trace, i));
    double sum = 0.0;
    const auto stage = [&](const char* name, auto&& call) {
      const double t0 = now_s();
      call();
      const double us = (now_s() - t0) * 1e6;
      if (timed) {
        probe.stage_us[name].push_back(us);
        sum += us;
      }
      return us;
    };
    std::optional<svc::ScheduleRequest> request;
    stage("service.decode_us",
          [&] { request.emplace(svc::decode_schedule_request(payload)); });
    // The daemon snapshots a static directory once and a drifting one
    // once per instant; so does the probe.
    if (!network || (!directory.time_invariant() && request->now_s != network_now)) {
      stage("netmodel.snapshot_us",
            [&] { network.emplace(directory.snapshot(request->now_s)); });
      network_now = request->now_s;
    }
    std::optional<hcs::CommMatrix> comm;
    stage("core.comm_build_us",
          [&] { comm.emplace(*network, request->messages); });
    std::optional<svc::ScheduleKey> key;
    stage("service.key_us", [&] {
      key.emplace(svc::make_schedule_key(request->kind, request->hierarchical,
                                         comm->times(), defaults.quantum));
    });
    svc::ScheduleCache::Lookup lookup;
    double lookup_us =
        stage("service.cache_lookup_us", [&] { lookup = cache.acquire(*key); });
    if (lookup.leader) {
      std::optional<hcs::Schedule> schedule;
      if (request->hierarchical) {
        std::optional<hcs::Clustering> clusters;
        stage("netmodel.cluster_detect_us",
              [&] { clusters.emplace(hcs::detect_clusters(*network)); });
        stage("core.solve_us", [&] {
          hcs::HierarchicalScheduler::Options options;
          options.inner = request->kind;
          options.seed = defaults.seed;
          schedule.emplace(
              hcs::HierarchicalScheduler{*clusters, options}.schedule(*comm));
        });
      } else {
        auto& scheduler = schedulers[request->kind];
        if (!scheduler)
          scheduler = hcs::make_scheduler(request->kind, defaults.seed);
        stage("core.solve_us",
              [&] { schedule.emplace(scheduler->schedule(*comm)); });
      }
      auto shared = std::make_shared<const hcs::Schedule>(std::move(*schedule));
      svc::ScheduleCache::EncodedPayload body;
      stage("service.encode_us", [&] {
        svc::ScheduleResponse response;
        response.completion_s = shared->completion_time();
        response.processors = shared->processor_count();
        response.events = shared->events();
        body = std::make_shared<const std::vector<std::uint8_t>>(
            svc::encode_schedule_response(response));
      });
      // acquire + publish are one cache-layer cost for a miss.
      const double t0 = now_s();
      cache.publish(*key, lookup.flight, shared, body);
      const double publish_us = (now_s() - t0) * 1e6;
      if (timed) {
        probe.stage_us["service.cache_lookup_us"].back() = lookup_us + publish_us;
        sum += publish_us;
      }
    }
    if (timed) {
      probe.stage_sum_us += sum;
      ++probe.requests;
    }
  };
  for (std::size_t j = 0; j < warm_count; ++j) serve(warm_first + j, false);
  for (std::size_t j = 0; j < count; ++j) serve(first + j, true);
  return probe;
}

/// Runs `run(k)` for k = 0, 1, ... until `keep` runs were quiet or
/// `keep + kExtraRuns` were made. Keeps the `keep` runs with the least
/// steal, in run order. A sub-millisecond latency can triple while the
/// hypervisor steals a few percent of the CPUs; such a run measures the
/// host, not the daemon. `record` lists each run's steal, dropped ones
/// marked with '*'.
template <class Run>
auto quietest(std::size_t keep, Run&& run, std::string& record) {
  using Result = decltype(run(std::size_t{0}));
  std::vector<Result> results;
  std::vector<double> steals;
  std::size_t quiet = 0;
  while (quiet < keep && results.size() < keep + kExtraRuns) {
    const CpuTicks before = cpu_ticks();
    results.push_back(run(results.size()));
    steals.push_back(steal_pct(before, cpu_ticks()));
    if (steals.back() <= kQuietStealPct) ++quiet;
  }
  std::vector<std::size_t> order(results.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steals[a] < steals[b]; });
  std::vector<bool> kept(results.size(), false);
  for (std::size_t k = 0; k < keep && k < order.size(); ++k)
    kept[order[k]] = true;
  std::vector<Result> out;
  record = "steal %";
  for (std::size_t k = 0; k < results.size(); ++k) {
    record.append(" ").append(fmt(steals[k], 2)).append(kept[k] ? "" : "*");
    if (kept[k]) out.push_back(std::move(results[k]));
  }
  return out;
}

/// Warm-up: the first `count` requests of the trace, closed loop over one
/// connection, before timing.
void warm_up(const Daemon& daemon, const RequestTrace& trace,
             std::size_t count) {
  svc::ServiceClient client{daemon.path(), 10.0};
  for (std::size_t j = 0; j < count; ++j)
    (void)client.schedule(make_request(trace, j));
}

const HcsdSettings* find_settings(const std::string& workload) {
  for (const HcsdSettings& settings : kSettings)
    if (workload == settings.name) return &settings;
  return nullptr;
}

/// Capacity ladder rung k: fixed_qps * 2^(k/8).
double ladder_rate(const HcsdSettings& settings, int rung) {
  return settings.fixed_qps * std::exp2(rung / 8.0);
}

}  // namespace

bool is_hcsd_workload(const std::string& workload) {
  return find_settings(workload) != nullptr;
}

void run_hcsd(const std::string& workload, std::uint64_t seed, double seconds,
              bool trace, Report& report) {
  const HcsdSettings& settings = *find_settings(workload);
  std::filesystem::create_directories(".bench_build");
  // A zipf latency window holds about seconds/2 of requests at the fixed
  // rate. A drift window part is a replay of the first kRungRequests
  // requests, so its snapshot costs do not depend on the run length.
  const std::size_t part_count =
      settings.drift ? kRungRequests
                     : static_cast<std::size_t>(std::llround(
                           settings.fixed_qps * seconds / 2.0 / kLatencyParts));
  const std::size_t fixed_count = kLatencyParts * part_count;
  // The zipf trace is the warm-up, then a fresh segment for every window
  // part and trial: latency parts of the untimed and traced windows, at
  // most ceil(log2(kLadderHigh - kLadderLow + 2)) ladder trials and the
  // saturation runs. Drift windows all replay from instant 0.
  const std::size_t parts = 2 * (kLatencyParts + kExtraRuns);
  const std::size_t segments = 6 + kSaturationRuns + kExtraRuns;
  const std::size_t trace_length =
      settings.drift
          ? std::max(kRungRequests, settings.warmup)
          : settings.warmup + parts * part_count + segments * kRungRequests;
  std::size_t next_segment = settings.warmup;
  const auto segment = [&](std::size_t count) {
    if (settings.drift) return std::size_t{0};
    next_segment += count;
    return next_segment - count;
  };

  // Set-up: inputs, directory, daemon and warm-up; the median of the
  // quietest kSetups set-ups is reported, and the last one made is kept.
  // Each is also read at reference speed, with the all-CPU kernel run
  // before and after it, as the daemon's threads use every vCPU.
  // The resident set before the daemon starts is the benchmark's own
  // (trace, matrices, directory); rss_mb is what serving adds to it.
  struct Setup {
    double seconds = 0.0;
    double at_reference_s = 0.0;
  };
  std::optional<RequestTrace> requests;
  std::unique_ptr<hcs::DirectoryService> directory;
  std::unique_ptr<Daemon> daemon;
  double rss_base_mb = 0.0;
  std::string setup_steal;
  const std::vector<Setup> setups = quietest(
      kSetups,
      [&](std::size_t) {
        daemon.reset();
        const double kernel_before = reference_kernel_all_cpus_ms();
        const double t0 = now_s();
        requests.emplace(settings.drift ? drift_trace(seed, trace_length)
                                        : zipf_trace(seed, trace_length));
        directory = make_directory(settings.drift);
        rss_base_mb = trimmed_rss_mb();
        daemon = std::make_unique<Daemon>(*directory);
        warm_up(*daemon, *requests, settings.warmup);
        const double seconds = now_s() - t0;
        const double kernel_after = reference_kernel_all_cpus_ms();
        return Setup{seconds, seconds * kReferenceKernelMs /
                                  (0.5 * (kernel_before + kernel_after))};
      },
      setup_steal);
  std::vector<double> setup_s, setup_at_reference_s;
  for (const Setup& setup : setups) {
    setup_s.push_back(setup.seconds);
    setup_at_reference_s.push_back(setup.at_reference_s);
  }
  report.metric("setup_s", median_of(setup_at_reference_s));
  report.note(std::string(settings.name) + " set-up: " +
              fmt(median_of(setup_s)) + " s; " +
              fmt(median_of(setup_at_reference_s)) +
              " s at reference speed (" + setup_steal + ")");
  // Every drift window runs on a fresh daemon.
  if (settings.drift) daemon.reset();

  Validator validator{*directory, *requests};
  const double abort_after_s = 4.0 * settings.limit_ms / 1e3;

  // A latency window at the fixed offered rate, run as the quietest
  // kLatencyParts parts, with the daemon's scrape differenced over each:
  // zipf parts on the warm daemon, drift parts as replays from now_s = 0,
  // each on a fresh daemon.
  struct Part {
    Window window;
    ScrapeDelta delta;
    double rss_mb = 0.0;  ///< resident-set growth right after the part
  };
  struct Served {
    Window window;
    ScrapeDelta delta;
    double rss_mb = 0.0;  ///< largest resident-set growth after a part
    std::vector<double> part_p50_us;      ///< every request
    std::vector<double> part_hit_p50_us;  ///< cache hits only
    std::string steal;                    ///< quietest()'s record
  };
  const auto latency_window = [&](int window_id, bool traced) {
    Served out;
    const auto run_part = [&](std::size_t k) {
      std::unique_ptr<Daemon> fresh;
      if (settings.drift) fresh = std::make_unique<Daemon>(*directory);
      Daemon& target = fresh ? *fresh : *daemon;
      const ScrapeDelta before = scrape_totals(target.server());
      Part part;
      part.window = run_window(target.path(), *requests, segment(part_count),
                               part_count, settings.fixed_qps,
                               seed + 97 * window_id + k, validator, window_id,
                               traced, 1e9);
      part.delta = difference(scrape_totals(target.server()), before);
      validator.drain();
      part.rss_mb = trimmed_rss_mb() - rss_base_mb;
      return part;
    };
    for (Part& part : quietest(kLatencyParts, run_part, out.steal)) {
      Window& w = part.window;
      accumulate(out.delta, part.delta);
      out.rss_mb = std::max(out.rss_mb, part.rss_mb);
      out.part_p50_us.push_back(median_of(w.latencies_us()));
      out.part_hit_p50_us.push_back(median_of(w.hit_latencies_us()));
      out.window.samples.insert(out.window.samples.end(), w.samples.begin(),
                                w.samples.end());
      for (SpanLog& spans : w.spans)
        out.window.spans.push_back(std::move(spans));
    }
    return out;
  };
  const Served served = latency_window(0, false);
  const auto& [fixed, delta, rss_mb, part_p50_us, part_hit_p50_us, steal] =
      served;

  // Medians of the parts' p50s, so one disturbed part cannot move them.
  const double p50_us = median_of(part_p50_us);
  const double hit_p50_us = median_of(part_hit_p50_us);
  const auto latencies = fixed.latencies_us();
  const auto p99_us = tail_percentile(latencies, 0.99);
  const auto late_us = tail_percentile(fixed.generator_late_us(), 0.99);
  std::vector<double> finite;
  for (const double l : latencies)
    if (std::isfinite(l)) finite.push_back(l);
  const double mean_us = mean_of(finite);

  report.note(std::string(settings.name) + ": " + std::to_string(fixed_count) +
              " requests at " + fmt(settings.fixed_qps) + " req/s (Poisson, " +
              std::to_string(kConnections) + " connections, " +
              std::to_string(kWorkers) + " workers)");
  const auto list = [](const std::vector<double>& values) {
    std::string out;
    for (const double v : values) out.append(" ").append(fmt(v));
    return out;
  };
  report.note("  latency parts: " + steal);
  const auto hits = std::count_if(fixed.samples.begin(), fixed.samples.end(),
                                  [](const Sample& s) { return s.hit; });
  report.note("  latency_p50_us = " + fmt(p50_us) + " us (median of part p50s" +
              list(part_p50_us) + ")");
  report.note("  hit_latency_p50_us = " + fmt(hit_p50_us) +
              " us (median of part p50s" + list(part_hit_p50_us) +
              "); cache hits " +
              fmt(100.0 * static_cast<double>(hits) /
                  static_cast<double>(fixed_count)) +
              "% of requests");
  report.note("  latency_p99_us = " +
              (p99_us ? fmt(*p99_us) + " us" : std::string("n/a")));
  report.note("  latency_mean_us = " + fmt(mean_us) + " us");
  report.note("  bench.generator_late_us (p99) = " +
              (late_us ? fmt(*late_us) : std::string("n/a")) + " us");

  std::size_t failed = fixed.failed();
  for (const Sample& s : fixed.samples)
    if (!s.done && !s.busy && !s.error.empty()) {
      report.fail("request error: " + s.error);
      break;
    }

  // One trial of kRungRequests requests: a fresh segment of the zipf
  // trace on the warm daemon, or the drift trace from instant 0 on a
  // fresh daemon.
  std::size_t trials = 0;
  const auto trial_window = [&](double rate, int window_id, double abort_s) {
    std::unique_ptr<Daemon> fresh;
    if (settings.drift) fresh = std::make_unique<Daemon>(*directory);
    Window w = run_window((fresh ? *fresh : *daemon).path(), *requests,
                          segment(kRungRequests), kRungRequests, rate,
                          seed + 1 + trials++, validator, window_id, false,
                          abort_s);
    validator.drain();  // validation never overlaps the next window
    return w;
  };

  double saturation = 0.0;
  if (!trace) {
    // Capacity: binary search over the fixed ladder for the highest rung
    // that meets the p99 limit with no failures, generator lag or
    // growing backlog. The latency window is rung 0's trial.
    const bool fixed_meets = judge(fixed, settings.limit_ms).pass;
    int lo = fixed_meets ? 0 : kLadderLow - 1;
    int hi = fixed_meets ? kLadderHigh + 1 : 0;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate = ladder_rate(settings, mid);
      const Verdict v =
          judge(trial_window(rate, 2, abort_after_s), settings.limit_ms);
      report.note("  rung " + fmt(rate) + " req/s: p99 " + fmt(v.p99_ms) +
                  " ms, generator late p99 " + fmt(v.late_p99_ms) +
                  " ms, failed " + std::to_string(v.failed) +
                  (v.backlog_grows ? ", backlog grows" : "") +
                  (v.pass ? " -> meets" : " -> misses"));
      (v.pass ? lo : hi) = mid;
    }
    const double capacity = lo >= kLadderLow ? ladder_rate(settings, lo)
                                : ladder_rate(settings, kLadderLow) / 2.0;
    report.note("  capacity_qps = " + fmt(capacity) + " req/s (p99 limit " +
                fmt(settings.limit_ms) + " ms)");

    // Saturation throughput: the same two connections in a closed loop,
    // each sending its next request as soon as the last is answered; the
    // median of the quietest kSaturationRuns trials. The reference kernel
    // runs on every CPU before and after each trial, and the trial's rate
    // is also read at the kernel's nominal speed.
    struct Saturation {
      double qps = 0.0;
      double kernel_ms = 0.0;  ///< all-CPU kernel, mean of before and after
    };
    std::string saturation_steal;
    const std::vector<Saturation> runs = quietest(
        kSaturationRuns,
        [&](std::size_t) {
          const double kernel_before = reference_kernel_all_cpus_ms();
          const Window w =
              trial_window(std::numeric_limits<double>::infinity(), 3, 1e9);
          const double kernel_after = reference_kernel_all_cpus_ms();
          if (w.failed() > 0) report.fail("closed-loop request failed");
          double last = 0.0;
          for (const Sample& s : w.samples) last = std::max(last, s.received);
          return Saturation{static_cast<double>(kRungRequests) /
                                (last - w.samples.front().intended),
                            0.5 * (kernel_before + kernel_after)};
        },
        saturation_steal);
    std::vector<double> raw, kernel, at_reference;
    for (const Saturation& run : runs) {
      raw.push_back(run.qps);
      kernel.push_back(run.kernel_ms);
      at_reference.push_back(run.qps * run.kernel_ms / kReferenceKernelMs);
    }
    saturation = median_of(at_reference);
    report.note("  saturation_qps = " + fmt(median_of(raw)) +
                " req/s (closed loop, median of" + list(raw) + "; " +
                saturation_steal + ")");
    report.note("  saturation_qps at reference speed = " + fmt(saturation) +
                " req/s (median of" + list(at_reference) +
                "; all-CPU reference kernel" + list(kernel) + " ms)");
  }

  validator.drain();
  std::size_t invalid_fixed = 0;
  for (const auto& bad : validator.invalid()) {
    report.note("  invalid response: window " + std::to_string(bad.window) +
                " request " + std::to_string(bad.index) + ": " + bad.why);
    if (bad.window == 0) ++invalid_fixed;
  }
  if (!validator.invalid().empty())
    report.fail(std::to_string(validator.invalid().size()) +
                " response(s) fail validation against their own request");
  failed += invalid_fixed;
  report.attempted = fixed_count;
  report.failed = failed;
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(fixed_count);
  report.note("  failed_frac = " + fmt(failed_frac) + " (" +
              std::to_string(failed) + " / " + std::to_string(fixed_count) +
              "); service.invalid_hits = " +
              std::to_string(validator.invalid().size()) + " of " +
              std::to_string(validator.checked()) + " responses checked");
  const double quality = validator.quality(0);
  report.note("  makespan_ratio = " + fmt(quality, 6) +
              " (served completion / t_lb, geomean over distinct requests)");

  if (!trace) {
    report.metric("op_p50_ms", hit_p50_us / 1e3);
    report.metric("op_rate_per_s", saturation);
    report.metric("quality_ratio", quality);
    report.metric("ok_frac", 1.0 - failed_frac);
    report.metric("rss_mb", rss_mb);
    return;
  }

  // Traced window: the same load, one span per request.
  const Served traced = latency_window(1, true);
  const double traced_p50 = median_of(traced.part_hit_p50_us);
  report.metric("bench.trace_overhead_pct",
                100.0 * (traced_p50 / hit_p50_us - 1.0));
  for (std::size_t c = 0; c < traced.window.spans.size(); ++c)
    traced.window.spans[c].write(".bench_build/spans-" + std::string(settings.name) +
                          "-" + std::to_string(seed) + "-c" +
                          std::to_string(c) + ".jsonl");

  // Scrape of the untraced window.
  const double requests_n = delta.counters.at("service.requests");
  const double worker_us =
      delta.latency_count > 0 ? 1e6 * delta.latency_sum_s / delta.latency_count : 0.0;
  const double client_rt_us = mean_of(fixed.round_trips_us());
  report.metric("service.worker_busy_us", worker_us);
  report.metric("service.solve_us", delta.solve_count > 0
                                        ? 1e6 * delta.solve_sum_s / delta.solve_count
                                        : 0.0);
  report.metric("service.outside_worker_us", outside_worker(client_rt_us, worker_us));
  report.metric("service.requests", requests_n);
  report.metric("service.cache_hits", delta.counters.at("service.cache_hit"));
  report.metric("service.solved", delta.counters.at("service.solved"));
  report.metric("service.coalesced", delta.counters.at("service.coalesced"));
  report.metric("service.memo_hits", delta.counters.at("service.memo_hit"));
  report.metric("service.evictions", delta.counters.at("service.cache.evictions"));
  report.metric("service.busy_rejections",
                delta.counters.at("service.busy_rejections"));
  report.metric("service.snapshot_builds",
                delta.counters.at("service.snapshot_builds"));
  report.metric("service.snapshot_reuses",
                delta.counters.at("service.snapshot_reuses"));
  report.metric("service.hit_rate",
                requests_n > 0 ? delta.counters.at("service.cache_hit") / requests_n
                               : 0.0);
  report.metric("service.invalid_hits",
                static_cast<double>(validator.invalid().size()));
  report.metric("bench.latency_p50_us", p50_us);
  if (p99_us) report.metric("bench.latency_p99_us", *p99_us);
  if (late_us) report.metric("bench.generator_late_us", *late_us);

  // Stage probe over the untraced window's requests.
  const std::size_t probe_count =
      std::min(settings.drift ? kRungRequests : fixed_count, kProbeRequests);
  const Probe probe =
      settings.drift
          ? run_probe(*directory, *requests, 0, 0, 0, probe_count)
          : run_probe(*directory, *requests, 0, settings.warmup,
                      settings.warmup, probe_count);
  for (const auto& [name, values] : probe.stage_us)
    report.metric(name, median_of(values));
  const double probe_mean_us =
      probe.requests > 0 ? probe.stage_sum_us / static_cast<double>(probe.requests)
                         : 0.0;
  if (worker_us > 0.0)
    report.metric("service.probe_vs_worker", probe_mean_us / worker_us);
  report.note("  outside view: probe stage sum " + fmt(probe_mean_us) +
              " us/request vs worker busy " + fmt(worker_us) +
              " us/request; client round trip " + fmt(client_rt_us) + " us");
  report.note("  trace overhead = " +
              fmt(report.value("bench.trace_overhead_pct")) +
              "% (traced vs untraced cache-hit latency p50)");
}

}  // namespace perfbench
