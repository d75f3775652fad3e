// hcsd core: a multi-threaded schedule-serving daemon.
//
// Threading model (DESIGN.md §service has the diagram):
//
//   acceptor ──► one reader thread per connection ──► bounded request
//   queue ──► N worker threads ──► response written straight to the
//   connection (per-connection write mutex keeps frames whole)
//
// The acceptor listens on a UNIX-domain socket, a TCP socket, or both —
// same framing, same queue, same drain semantics either way. Readers
// only parse frames off the socket; all decode and scheduling work
// happens on the worker pool, so the compute concurrency is capped
// at `workers` regardless of connection count. When the queue is full the
// reader answers kError/kBusy immediately instead of enqueueing —
// backpressure the client sees synchronously, never an unbounded buffer.
// Workers serve two request families: schedule solves (kScheduleRequest,
// cached) and sweep shards (kSweepRequest — opaque blocks of a
// distributed experiment sweep, executed by experiment/sweep_shard.hpp).
// Admin traffic (metrics scrape, shutdown) bypasses the queue: it must
// stay answerable exactly when the queue is the thing you want to look
// at.
//
// Each worker owns warm scheduler instances — the PR 1/5 workspace
// refactors mean a MatchingScheduler/GreedyScheduler/... instance reuses
// its LapSolver/SchedulerWorkspace across requests, so the steady state
// allocates nothing in the solve hot path. Solved schedules land in the
// shared ScheduleCache (quantized cost signatures, single-flight,
// drift-invalidated — see schedule_cache.hpp); identical request bursts
// solve once.
//
// Observability: per-worker MetricsRegistry slots in a MetricsHub,
// merged with cache and queue statistics on every scrape. The scrape is
// served over the same wire protocol (kMetricsRequest, JSON or text).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "netmodel/cluster_detect.hpp"
#include "netmodel/directory.hpp"
#include "service/schedule_cache.hpp"
#include "service/wire.hpp"
#include "trace/metrics_hub.hpp"

namespace hcs::service {

/// Bounded MPMC queue with non-blocking producers (backpressure) and
/// blocking consumers. Thread-safe; close() wakes every blocked pop.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// False when the queue is full or closed — the producer's cue to shed
  /// load instead of buffering it.
  bool try_push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks for the next item; nullopt once closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Daemon configuration.
struct ServerOptions {
  /// Filesystem path of the UNIX-domain listening socket. An existing
  /// socket file at the path is replaced. May be empty when a TCP
  /// listener is configured; at least one listener is required.
  std::string socket_path;
  /// TCP listening port: -1 disables the TCP listener, 0 binds an
  /// ephemeral port (read it back via tcp_listen_port()). Both listeners
  /// speak the identical framing and share the queue, workers, and drain
  /// semantics.
  int tcp_port = -1;
  /// Address the TCP listener binds. Loopback by default: exposing the
  /// daemon beyond the host is an explicit decision (hcsd --tcp-bind).
  std::string tcp_bind = "127.0.0.1";
  /// Work requests (schedule + sweep) a single connection may submit
  /// before the server answers kBusy and hangs up; 0 = unlimited. A
  /// fairness valve: one greedy client cannot monopolize the daemon
  /// forever, and sweep drivers reconnect transparently.
  std::size_t max_requests_per_connection = 0;
  /// Worker threads (0 = one per allowed CPU).
  std::size_t workers = 0;
  /// Request-queue depth shared by all connections; producers beyond it
  /// receive kBusy.
  std::size_t queue_capacity = 1024;
  /// Schedule-cache shape.
  ScheduleCache::Options cache;
  /// Log-quantization of cost-matrix signatures (the drift tolerance:
  /// entries survive directory drift up to ~a factor exp(quantum/2) per
  /// pair). Matches ClusterOptions::quantum semantics.
  double quantum = 0.25;
  /// Seed handed to schedulers (consumed only by kRandom).
  std::uint64_t seed = 1;
};

/// The daemon. Construct with a directory service (borrowed; must
/// outlive the server and answer queries from any thread — Static,
/// Drifting, and Trace directories all qualify), start(), then wait()
/// for a client-initiated shutdown or call stop().
class ScheduleServer {
 public:
  ScheduleServer(const DirectoryService& directory, ServerOptions options);
  ~ScheduleServer();

  ScheduleServer(const ScheduleServer&) = delete;
  ScheduleServer& operator=(const ScheduleServer&) = delete;

  /// Binds the socket and spawns acceptor + workers. Throws InputError on
  /// bind/listen failure. Idempotence is not supported: start once.
  void start();

  /// Blocks until a kShutdown frame arrives or stop() is called.
  void wait();

  /// Stops accepting, drains readers and workers, closes connections.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Graceful drain (hcsd's SIGTERM path). Immediately stops accepting —
  /// the listen socket closes and its path is unlinked, so new connects
  /// fail fast — and answers further schedule requests on existing
  /// connections with kBusy ("draining"), while the workers finish every
  /// request already queued and deliver those responses. Once the backlog
  /// is empty it performs a full stop(). Blocks until stopped; idempotent
  /// (a second call, or a call after stop(), just stops).
  void drain();

  /// The admin scrape: per-worker metrics merged with cache and server
  /// counters (same registry the kMetricsRequest endpoint serializes).
  [[nodiscard]] MetricsRegistry scrape() const;

  [[nodiscard]] const ScheduleCache& cache() const noexcept { return cache_; }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }
  /// The bound TCP port (the ephemeral one when tcp_port was 0); 0 when
  /// no TCP listener is configured. Valid after start().
  [[nodiscard]] std::uint16_t tcp_listen_port() const noexcept {
    return tcp_listen_port_;
  }

 private:
  struct Connection;
  struct Job {
    std::shared_ptr<Connection> connection;
    FrameType type = FrameType::kScheduleRequest;
    std::vector<std::uint8_t> payload;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& connection);
  void worker_loop(std::size_t worker);
  /// One directory snapshot and, detected on first need, its clusters:
  /// every hierarchical solve against the same snapshot shares one
  /// detect_clusters run.
  struct Snapshot {
    explicit Snapshot(NetworkModel view) : network(std::move(view)) {}
    const NetworkModel network;
    /// detect_clusters(network), computed once. Thread-safe.
    [[nodiscard]] const Clustering& clusters() const;

   private:
    mutable std::once_flag detect_once_;
    mutable std::optional<Clustering> clusters_;
  };

  /// Memoized directory view: time-invariant directories snapshot once
  /// ever; time-varying ones reuse the last snapshot while requests keep
  /// asking for the same now_s (replay traces and request bursts do),
  /// regenerating only when the instant changes. Each instant is built
  /// by one worker; workers asking for it meanwhile wait for that build.
  /// Thread-safe.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot_at(double now_s);
  void handle_admin(const std::shared_ptr<Connection>& connection,
                    const Frame& frame);
  void write_frame_to(Connection& connection, FrameType type,
                      std::span<const std::uint8_t> payload);
  /// Schedule-response fast path: frames a cached canonical encoding and
  /// patches the per-response flags byte (cache_hit/coalesced) in place.
  void write_response_frame(Connection& connection,
                            std::span<const std::uint8_t> payload,
                            std::uint8_t flags);
  void request_stop();

  const DirectoryService& directory_;
  ServerOptions options_;
  ScheduleCache cache_;
  MetricsHub metrics_;

  int listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  std::uint16_t tcp_listen_port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  BoundedQueue<Job> queue_;

  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> draining_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  std::mutex snapshot_mutex_;
  double snapshot_now_ = -1.0;
  std::shared_ptr<const Snapshot> snapshot_;
  /// The instant a worker is building now, if any; guarded by
  /// snapshot_mutex_.
  double pending_now_ = -1.0;
  std::shared_future<std::shared_ptr<const Snapshot>> pending_;

  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> drain_rejections_{0};
  std::atomic<std::uint64_t> request_limit_closes_{0};
  std::atomic<std::uint64_t> accepted_connections_{0};
  /// Failed accept calls; each costs the acceptor one poll interval.
  std::atomic<std::uint64_t> accept_errors_{0};
  std::atomic<std::uint64_t> snapshot_reuses_{0};
  std::atomic<std::uint64_t> snapshot_builds_{0};
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace hcs::service
