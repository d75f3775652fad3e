#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <exception>
#include <future>
#include <sstream>
#include <utility>

#include "core/comm_matrix.hpp"
#include "core/hierarchical_scheduler.hpp"
#include "experiment/sweep_shard.hpp"
#include "netmodel/cluster_detect.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hcs::service {
namespace {

/// Poll interval for the accept and read loops: every blocking wait wakes
/// at least this often to check the stop flag, so shutdown needs no
/// cross-thread wakeup trickery and completes within one tick.
constexpr int kPollMillis = 100;

/// Writes the whole buffer, restarting on EINTR and short writes.
/// Returns false on any hard error (peer gone, timeout).
bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

/// One accepted client. The reader thread lives here; writes from any
/// worker serialize on write_mutex so frames are never interleaved.
struct ScheduleServer::Connection {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> open{true};
  std::thread reader;
  /// Work requests seen so far (reader-thread only; the per-connection
  /// request limit compares against this).
  std::uint64_t work_requests = 0;
};

ScheduleServer::ScheduleServer(const DirectoryService& directory,
                               ServerOptions options)
    : directory_(directory),
      options_(std::move(options)),
      cache_(options_.cache),
      metrics_(options_.workers == 0 ? ThreadPool::allowed_cpu_count()
                                     : options_.workers),
      queue_(options_.queue_capacity) {
  if (options_.socket_path.empty() && options_.tcp_port < 0)
    throw InputError(
        "ScheduleServer: need at least one listener (socket_path or "
        "tcp_port)");
  if (options_.tcp_port > 65535)
    throw InputError("ScheduleServer: tcp_port must be in [0, 65535]");
  if (!(options_.quantum > 0.0))
    throw InputError("ScheduleServer: quantum must be positive");
}

ScheduleServer::~ScheduleServer() { stop(); }

void ScheduleServer::start() {
  if (!options_.socket_path.empty()) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(address.sun_path))
      throw InputError("ScheduleServer: socket path too long: " +
                       options_.socket_path);
    std::memcpy(address.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      throw InputError("ScheduleServer: socket() failed: " +
                       std::string(std::strerror(errno)));
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0) {
      const int saved = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw InputError("ScheduleServer: bind(" + options_.socket_path +
                       ") failed: " + std::string(std::strerror(saved)));
    }
    if (::listen(listen_fd_, 128) != 0) {
      const int saved = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw InputError("ScheduleServer: listen failed: " +
                       std::string(std::strerror(saved)));
    }
  }

  if (options_.tcp_port >= 0) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port =
        htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_bind.c_str(),
                    &address.sin_addr) != 1)
      throw InputError("ScheduleServer: bad tcp_bind address: " +
                       options_.tcp_bind);

    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0)
      throw InputError("ScheduleServer: tcp socket() failed: " +
                       std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(tcp_listen_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0 ||
        ::listen(tcp_listen_fd_, 128) != 0) {
      const int saved = errno;
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
      throw InputError("ScheduleServer: tcp bind(" + options_.tcp_bind +
                       ":" + std::to_string(options_.tcp_port) +
                       ") failed: " + std::string(std::strerror(saved)));
    }
    // Read the bound port back — with tcp_port = 0 the kernel picked an
    // ephemeral one, and callers (tests, multi-daemon launchers) need it.
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(tcp_listen_fd_,
                      reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0)
      tcp_listen_port_ = ntohs(bound.sin_port);
  }

  started_at_ = std::chrono::steady_clock::now();
  const std::size_t worker_count = metrics_.worker_count();
  workers_.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
  acceptor_ = std::thread([this] { accept_loop(); });
}

void ScheduleServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         accepting_.load(std::memory_order_acquire)) {
    std::array<pollfd, 2> pfds{};
    nfds_t nfds = 0;
    if (listen_fd_ >= 0) pfds[nfds++] = pollfd{listen_fd_, POLLIN, 0};
    if (tcp_listen_fd_ >= 0)
      pfds[nfds++] = pollfd{tcp_listen_fd_, POLLIN, 0};
    const int ready = ::poll(pfds.data(), nfds, kPollMillis);
    if (ready <= 0) continue;  // timeout, EINTR, or transient error
    for (nfds_t k = 0; k < nfds; ++k) {
      if ((pfds[k].revents & POLLIN) == 0) continue;
      const int fd = ::accept(pfds[k].fd, nullptr, nullptr);
      if (fd < 0) {
        // When accept fails (out of descriptors or memory), the pending
        // connection stays queued and the socket stays readable, so
        // polling again at once would spin. Back off one tick instead.
        accept_errors_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
        break;
      }
      // Bound worker writes to unresponsive clients so a dead peer can
      // never wedge the pool (or stop()).
      timeval timeout{5, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
      if (pfds[k].fd == tcp_listen_fd_) {
        // Same latency-bound request/response traffic as the client side.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      auto connection = std::make_shared<Connection>();
      connection->fd = fd;
      accepted_connections_.fetch_add(1, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(connections_mutex_);
        connections_.push_back(connection);
      }
      connection->reader =
          std::thread([this, connection] { reader_loop(connection); });
    }
  }
}

void ScheduleServer::reader_loop(const std::shared_ptr<Connection>& connection) {
  FrameReader reader;
  std::array<std::uint8_t, 64 * 1024> chunk;
  while (!stopping_.load(std::memory_order_acquire) &&
         connection->open.load(std::memory_order_acquire)) {
    pollfd pfd{connection->fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(connection->fd, chunk.data(), chunk.size(), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    try {
      reader.feed({chunk.data(), static_cast<std::size_t>(n)});
      while (auto frame = reader.next()) {
        switch (frame->type) {
          case FrameType::kScheduleRequest:
          case FrameType::kSweepRequest: {
            if (options_.max_requests_per_connection > 0 &&
                ++connection->work_requests >
                    options_.max_requests_per_connection) {
              // The fairness valve: refuse and hang up; a well-behaved
              // client (the sweep driver) reconnects and carries on.
              request_limit_closes_.fetch_add(1, std::memory_order_relaxed);
              const auto body = encode_error(
                  {ErrorCode::kBusy,
                   "per-connection request limit reached; reconnect"});
              write_frame_to(*connection, FrameType::kError, body);
              connection->open.store(false, std::memory_order_release);
              break;
            }
            if (draining_.load(std::memory_order_acquire)) {
              // Mid-drain: queued work still completes, but new work is
              // refused synchronously so the client can fail over
              // instead of waiting on a daemon that is going away.
              drain_rejections_.fetch_add(1, std::memory_order_relaxed);
              const auto body = encode_error(
                  {ErrorCode::kBusy, "daemon is draining; retry elsewhere"});
              write_frame_to(*connection, FrameType::kError, body);
              break;
            }
            Job job;
            job.connection = connection;
            job.type = frame->type;
            job.payload = std::move(frame->payload);
            job.enqueued_at = std::chrono::steady_clock::now();
            if (!queue_.try_push(std::move(job))) {
              busy_rejections_.fetch_add(1, std::memory_order_relaxed);
              const auto body = encode_error(
                  {ErrorCode::kBusy, "request queue full; retry later"});
              write_frame_to(*connection, FrameType::kError, body);
            }
            break;
          }
          case FrameType::kMetricsRequest:
          case FrameType::kShutdown:
            handle_admin(connection, *frame);
            break;
          default: {
            // Server-to-client frame types arriving here mean the peer is
            // not speaking the client side of the protocol; drop it.
            const auto body = encode_error(
                {ErrorCode::kBadRequest, "unexpected frame type from client"});
            write_frame_to(*connection, FrameType::kError, body);
            connection->open.store(false, std::memory_order_release);
            break;
          }
        }
      }
    } catch (const WireError& error) {
      // The stream cannot be resynchronized after a malformed header;
      // tell the peer why and hang up.
      const auto body = encode_error({ErrorCode::kBadRequest, error.what()});
      write_frame_to(*connection, FrameType::kError, body);
      break;
    }
  }
  connection->open.store(false, std::memory_order_release);
}

void ScheduleServer::worker_loop(std::size_t worker) {
  // Warm per-worker scheduler instances: index = SchedulerKind. The
  // workspace refactors make reuse the whole point — a worker's solver
  // allocates on its first request of each kind and never again.
  std::array<std::unique_ptr<Scheduler>, 8> schedulers;
  const auto scheduler_for = [&](SchedulerKind kind) -> Scheduler& {
    auto& slot = schedulers[static_cast<std::size_t>(kind)];
    if (!slot) slot = make_scheduler(kind, options_.seed);
    return *slot;
  };

  // Request-digest memo: byte-identical request payloads map to the same
  // schedule key (a directory's snapshot is a pure function of now_s, and
  // now_s is part of the payload), so a repeated payload skips decode,
  // cost-matrix build, and key quantization — the expensive part of a
  // warm hit. Worker-local, so no locks; only payloads that survived full
  // validation are memoized. LRU by tick, small and bounded.
  struct MemoEntry {
    std::uint64_t hash = 0;
    std::vector<std::uint8_t> payload;
    ScheduleKey key;
    std::uint64_t tick = 0;
  };
  constexpr std::size_t kMemoCapacity = 32;
  std::vector<MemoEntry> memo;
  std::uint64_t memo_tick = 0;

  while (auto job = queue_.pop()) {
    const auto t0 = std::chrono::steady_clock::now();
    if (job->type == FrameType::kSweepRequest) {
      // A sweep shard: opaque to the service layer — decode, execute,
      // and encode all live in experiment/sweep_shard.hpp. Shards run
      // serially in this worker slot, so a daemon's sweep concurrency is
      // its worker count, same as schedule solves.
      bool failed = false;
      std::size_t units = 0;
      FrameType out_type = FrameType::kSweepResult;
      std::vector<std::uint8_t> out;
      try {
        out = handle_sweep_shard(job->payload, &units);
      } catch (const InputError& error) {
        out = encode_error({ErrorCode::kBadRequest, error.what()});
        out_type = FrameType::kError;
        failed = true;
      } catch (const std::exception& error) {
        out = encode_error({ErrorCode::kInternal, error.what()});
        out_type = FrameType::kError;
        failed = true;
      }
      const double shard_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      // Record before writing the response: a client that scrapes right
      // after its answer arrives sees its own shard counted.
      metrics_.record(worker, [&](MetricsRegistry& registry) {
        registry.counter("service.requests").add();
        registry.counter("service.sweep_shards").add();
        registry.counter("service.sweep_units").add(units);
        if (failed) registry.counter("service.errors").add();
        registry.histogram("service.sweep_s").observe(shard_s);
        registry.histogram("service.latency_s").observe(shard_s);
      });
      write_frame_to(*job->connection, out_type, out);
      continue;
    }
    bool hit = false, coalesced = false, solved = false, failed = false;
    bool memo_hit = false;
    double solve_s = 0.0;
    try {
      const std::uint64_t payload_hash = hash_bytes64(job->payload);
      ScheduleKey built_key;
      const ScheduleKey* key = nullptr;
      for (auto& entry : memo)
        if (entry.hash == payload_hash && entry.payload == job->payload) {
          entry.tick = ++memo_tick;
          key = &entry.key;
          memo_hit = true;
          break;
        }
      std::optional<ScheduleRequest> request;
      std::shared_ptr<const Snapshot> view;
      if (!memo_hit) {
        request.emplace(decode_schedule_request(job->payload));
        if (request->messages.rows() != directory_.processor_count()) {
          const auto body = encode_error(
              {ErrorCode::kBadRequest,
               "request is for " + std::to_string(request->messages.rows()) +
                   " processors; this daemon serves " +
                   std::to_string(directory_.processor_count())});
          write_frame_to(*job->connection, FrameType::kError, body);
          failed = true;
        } else {
          view = snapshot_at(request->now_s);
          const CommMatrix comm{view->network, request->messages};
          built_key = make_schedule_key(request->kind, request->hierarchical,
                                        comm.times(), options_.quantum);
          key = &built_key;
        }
      }
      if (key != nullptr) {
        ScheduleCache::Lookup lookup = cache_.acquire(*key);
        std::shared_ptr<const Schedule> schedule;
        ScheduleCache::EncodedPayload body;
        if (lookup.leader) {
          try {
            if (!request) {
              // Memo hit that must solve anyway (entry was evicted or
              // invalidated): pay the decode after all.
              request.emplace(decode_schedule_request(job->payload));
              view = snapshot_at(request->now_s);
            }
            const CommMatrix comm{view->network, request->messages};
            const auto s0 = std::chrono::steady_clock::now();
            Schedule planned = [&] {
              if (request->hierarchical) {
                HierarchicalScheduler::Options hier;
                hier.inner = request->kind;
                hier.seed = options_.seed;
                return HierarchicalScheduler{view->clusters(), hier}
                    .schedule(comm);
              }
              return scheduler_for(request->kind).schedule(comm);
            }();
            solve_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - s0)
                          .count();
            schedule = std::make_shared<const Schedule>(std::move(planned));
            // Publish the canonical encoding (flags zero) next to the
            // schedule: later hits serve these bytes verbatim — no
            // per-event re-serialization on the warm path — patching only
            // the flags byte per response.
            ScheduleResponse response;
            response.completion_s = schedule->completion_time();
            response.processors = schedule->processor_count();
            response.events = schedule->events();
            body = std::make_shared<const std::vector<std::uint8_t>>(
                encode_schedule_response(response));
            cache_.publish(*key, lookup.flight, schedule, body);
            solved = true;
          } catch (...) {
            cache_.abort(*key, lookup.flight, "scheduler threw");
            throw;
          }
        } else {
          schedule = lookup.schedule;
          body = lookup.encoded;
          hit = lookup.hit;
          coalesced = lookup.coalesced;
          if (!schedule)
            throw InputError("coalesced solve failed: " + lookup.error);
        }
        const auto flags = static_cast<std::uint8_t>((hit ? 1 : 0) |
                                                     (coalesced ? 2 : 0));
        if (body) {
          write_response_frame(*job->connection, *body, flags);
        } else {
          // Entry published before encoded payloads existed (defensive —
          // publish always stores one today).
          ScheduleResponse response;
          response.cache_hit = hit;
          response.coalesced = coalesced;
          response.completion_s = schedule->completion_time();
          response.processors = schedule->processor_count();
          response.events = schedule->events();
          const auto encoded = encode_schedule_response(response);
          write_frame_to(*job->connection, FrameType::kScheduleResponse,
                         encoded);
        }
        if (!memo_hit) {
          // Memoize only after the request served end to end; the payload
          // is not needed again, so it moves instead of copying.
          MemoEntry entry;
          entry.hash = payload_hash;
          entry.payload = std::move(job->payload);
          entry.key = std::move(built_key);
          entry.tick = ++memo_tick;
          if (memo.size() < kMemoCapacity) {
            memo.push_back(std::move(entry));
          } else {
            auto victim = memo.begin();
            for (auto it = memo.begin(); it != memo.end(); ++it)
              if (it->tick < victim->tick) victim = it;
            *victim = std::move(entry);
          }
        }
      }
    } catch (const WireError& error) {
      const auto body = encode_error({ErrorCode::kBadRequest, error.what()});
      write_frame_to(*job->connection, FrameType::kError, body);
      failed = true;
    } catch (const std::exception& error) {
      const auto body = encode_error({ErrorCode::kInternal, error.what()});
      write_frame_to(*job->connection, FrameType::kError, body);
      failed = true;
    }
    const double latency_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    metrics_.record(worker, [&](MetricsRegistry& registry) {
      registry.counter("service.requests").add();
      if (failed) registry.counter("service.errors").add();
      if (hit) registry.counter("service.cache_hit").add();
      if (coalesced) registry.counter("service.coalesced").add();
      if (memo_hit) registry.counter("service.memo_hit").add();
      if (solved) {
        registry.counter("service.solved").add();
        registry.histogram("service.solve_s").observe(solve_s);
      }
      registry.histogram("service.latency_s").observe(latency_s);
    });
  }
}

const Clustering& ScheduleServer::Snapshot::clusters() const {
  std::call_once(detect_once_, [this] { clusters_ = detect_clusters(network); });
  return *clusters_;
}

std::shared_ptr<const ScheduleServer::Snapshot> ScheduleServer::snapshot_at(
    double now_s) {
  const bool invariant = directory_.time_invariant();
  std::unique_lock<std::mutex> lock(snapshot_mutex_);
  if (snapshot_ && (invariant || snapshot_now_ == now_s)) {
    snapshot_reuses_.fetch_add(1, std::memory_order_relaxed);
    return snapshot_;
  }
  // Each instant is built once, outside the lock: a snapshot costs P^2
  // directory entries, so workers asking for an instant already being
  // built wait for that build instead of repeating it.
  if (pending_.valid() && (invariant || pending_now_ == now_s)) {
    const auto pending = pending_;
    lock.unlock();
    snapshot_reuses_.fetch_add(1, std::memory_order_relaxed);
    return pending.get();
  }
  std::promise<std::shared_ptr<const Snapshot>> built;
  pending_ = built.get_future().share();
  pending_now_ = now_s;
  lock.unlock();
  std::shared_ptr<const Snapshot> fresh;
  try {
    fresh = std::make_shared<const Snapshot>(directory_.snapshot(now_s));
  } catch (...) {
    built.set_exception(std::current_exception());
    lock.lock();
    if (pending_now_ == now_s) pending_ = {};
    throw;
  }
  snapshot_builds_.fetch_add(1, std::memory_order_relaxed);
  lock.lock();
  snapshot_now_ = now_s;
  snapshot_ = fresh;
  if (pending_now_ == now_s) pending_ = {};
  lock.unlock();
  built.set_value(fresh);
  return fresh;
}

void ScheduleServer::handle_admin(const std::shared_ptr<Connection>& connection,
                                  const Frame& frame) {
  if (frame.type == FrameType::kShutdown) {
    write_frame_to(*connection, FrameType::kShutdown, {});
    request_stop();
    return;
  }
  const bool text = !frame.payload.empty() && frame.payload[0] == 1;
  const MetricsRegistry merged = scrape();
  std::ostringstream body;
  if (text)
    merged.write_text(body);
  else
    merged.write_json(body);
  const std::string& text_body = body.str();
  write_frame_to(*connection, FrameType::kMetricsResponse,
                 {reinterpret_cast<const std::uint8_t*>(text_body.data()),
                  text_body.size()});
}

void ScheduleServer::write_frame_to(Connection& connection, FrameType type,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kFrameHeaderBytes + payload.size());
  append_frame(bytes, type, payload);
  const std::lock_guard<std::mutex> lock(connection.write_mutex);
  if (!connection.open.load(std::memory_order_acquire)) return;
  if (!send_all(connection.fd, bytes.data(), bytes.size()))
    connection.open.store(false, std::memory_order_release);
}

void ScheduleServer::write_response_frame(Connection& connection,
                                          std::span<const std::uint8_t> payload,
                                          std::uint8_t flags) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kFrameHeaderBytes + payload.size());
  append_frame(bytes, FrameType::kScheduleResponse, payload);
  // The canonical cached encoding carries flags = 0; per-response state
  // (cache_hit / coalesced) lives in exactly one byte, patched after the
  // copy instead of re-serializing the whole event list.
  bytes[kFrameHeaderBytes + 1] = flags;
  const std::lock_guard<std::mutex> lock(connection.write_mutex);
  if (!connection.open.load(std::memory_order_acquire)) return;
  if (!send_all(connection.fd, bytes.data(), bytes.size()))
    connection.open.store(false, std::memory_order_release);
}

MetricsRegistry ScheduleServer::scrape() const {
  MetricsRegistry merged = metrics_.scrape();
  const ScheduleCache::Stats stats = cache_.stats();
  merged.counter("service.cache.hits").add(stats.hits);
  merged.counter("service.cache.misses").add(stats.misses);
  merged.counter("service.cache.coalesced").add(stats.coalesced);
  merged.counter("service.cache.evictions").add(stats.evictions);
  merged.counter("service.cache.invalidations").add(stats.invalidations);
  merged.gauge("service.cache.entries")
      .set(static_cast<double>(stats.entries));
  merged.counter("service.busy_rejections")
      .add(busy_rejections_.load(std::memory_order_relaxed));
  merged.counter("service.drain_rejections")
      .add(drain_rejections_.load(std::memory_order_relaxed));
  merged.counter("service.request_limit_closes")
      .add(request_limit_closes_.load(std::memory_order_relaxed));
  merged.gauge("service.draining")
      .set(draining_.load(std::memory_order_relaxed) ? 1.0 : 0.0);
  merged.counter("service.connections")
      .add(accepted_connections_.load(std::memory_order_relaxed));
  merged.counter("service.accept_errors")
      .add(accept_errors_.load(std::memory_order_relaxed));
  merged.counter("service.snapshot_reuses")
      .add(snapshot_reuses_.load(std::memory_order_relaxed));
  merged.counter("service.snapshot_builds")
      .add(snapshot_builds_.load(std::memory_order_relaxed));
  merged.gauge("service.queue_depth").set(static_cast<double>(queue_.size()));
  merged.gauge("service.queue_capacity")
      .set(static_cast<double>(queue_.capacity()));
  merged.gauge("service.workers").set(static_cast<double>(workers_.size()));
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  merged.gauge("service.uptime_s").set(uptime_s);
  if (uptime_s > 0.0)
    merged.gauge("service.qps")
        .set(static_cast<double>(merged.counter("service.requests").value()) /
             uptime_s);
  return merged;
}

void ScheduleServer::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
  lock.unlock();
  stop();
}

void ScheduleServer::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void ScheduleServer::drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) {
    stop();
    return;
  }
  // Refuse new connections first: retire the acceptor and unlink the
  // socket path so fresh connects fail fast (ENOENT) instead of queueing
  // behind a daemon that is going away. Established connections stay up —
  // their queued responses must still be delivered, and their readers now
  // answer new schedule requests with kBusy.
  accepting_.store(false, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  // Close the queue to producers and wait for the backlog to empty; the
  // workers keep popping (and writing responses to the open connections)
  // until it is. In-flight jobs are covered by stop()'s worker join.
  queue_.close();
  while (queue_.size() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stop();
}

void ScheduleServer::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) {
      // Still wake any wait()er that raced the first stop.
      stop_requested_ = true;
      stop_cv_.notify_all();
      return;
    }
    stopped_ = true;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();

  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();

  // Readers exit on the next poll tick; join them before touching fds so
  // no thread reads a closed descriptor.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections = connections_;
  }
  for (const auto& connection : connections)
    if (connection->reader.joinable()) connection->reader.join();

  // Workers drain whatever was queued (responses still reach open
  // connections), then see the closed queue and exit.
  queue_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  for (const auto& connection : connections) {
    connection->open.store(false, std::memory_order_release);
    if (connection->fd >= 0) ::close(connection->fd);
    connection->fd = -1;
  }
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
}

}  // namespace hcs::service
