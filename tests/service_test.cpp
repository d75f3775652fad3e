// Tests for the hcsd service layer: wire protocol codecs (round-trip +
// malformed-input rejection), the schedule cache (bit-identical hits,
// quantization-tolerance invalidation, single-flight), the bounded
// request queue, the MetricsHub (concurrent record/scrape — run under
// tsan in CI), and the daemon end to end over real UNIX and TCP
// sockets, including sweep-shard service and the per-connection
// request limit.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstring>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/scheduler.hpp"
#include "experiment/sweep_shard.hpp"
#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "service/client.hpp"
#include "service/replay.hpp"
#include "service/schedule_cache.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "trace/metrics_hub.hpp"
#include "workload/scenario.hpp"

namespace hcs::service {
namespace {

ScheduleRequest sample_request(std::uint64_t seed, std::size_t p) {
  ScheduleRequest request;
  request.kind = SchedulerKind::kGreedy;
  request.hierarchical = (seed % 2) == 1;
  request.now_s = static_cast<double>(seed % 17) * 0.5;
  request.messages = MessageMatrix(p, p);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j < p; ++j)
      request.messages(i, j) = i == j ? 0 : rng() % (1u << 20);
  return request;
}

// --- wire codec: round-trip property ------------------------------------

TEST(Wire, RequestRoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t p = 2 + seed % 31;
    const ScheduleRequest request = sample_request(seed, p);
    const ScheduleRequest decoded =
        decode_schedule_request(encode_schedule_request(request));
    EXPECT_EQ(decoded.kind, request.kind);
    EXPECT_EQ(decoded.hierarchical, request.hierarchical);
    EXPECT_EQ(decoded.now_s, request.now_s);
    ASSERT_EQ(decoded.messages.rows(), p);
    EXPECT_EQ(decoded.messages, request.messages);
  }
}

TEST(Wire, ResponseRoundTripsExactly) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    ScheduleResponse response;
    response.cache_hit = (round % 2) == 0;
    response.coalesced = (round % 3) == 0;
    response.processors = 2 + rng() % 62;
    response.completion_s = static_cast<double>(rng() % 1000) / 7.0;
    const std::size_t events = rng() % 40;
    for (std::size_t k = 0; k < events; ++k) {
      ScheduledEvent event;
      event.src = rng() % response.processors;
      event.dst = rng() % response.processors;
      event.start_s = static_cast<double>(rng() % 100) / 3.0;
      event.finish_s = event.start_s + static_cast<double>(rng() % 10);
      response.events.push_back(event);
    }
    const ScheduleResponse decoded =
        decode_schedule_response(encode_schedule_response(response));
    EXPECT_EQ(decoded.cache_hit, response.cache_hit);
    EXPECT_EQ(decoded.coalesced, response.coalesced);
    EXPECT_EQ(decoded.processors, response.processors);
    EXPECT_EQ(decoded.completion_s, response.completion_s);
    EXPECT_EQ(decoded.events, response.events);
  }
}

TEST(Wire, ErrorRoundTrips) {
  const ErrorFrame error{ErrorCode::kBusy, "queue full"};
  const ErrorFrame decoded = decode_error(encode_error(error));
  EXPECT_EQ(decoded.code, ErrorCode::kBusy);
  EXPECT_EQ(decoded.message, "queue full");
}

// --- wire codec: malformed-input rejection ------------------------------

TEST(Wire, EveryTruncatedRequestPayloadThrows) {
  const auto payload = encode_schedule_request(sample_request(3, 5));
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(payload.data(), cut);
    EXPECT_THROW((void)decode_schedule_request(prefix), WireError)
        << "prefix length " << cut;
  }
}

TEST(Wire, EveryTruncatedResponsePayloadThrows) {
  ScheduleResponse response;
  response.processors = 4;
  response.completion_s = 1.5;
  for (std::size_t k = 0; k < 12; ++k)
    response.events.push_back({k % 4, (k + 1) % 4, 0.1 * k, 0.1 * k + 1});
  const auto payload = encode_schedule_response(response);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(payload.data(), cut);
    EXPECT_THROW((void)decode_schedule_response(prefix), WireError)
        << "prefix length " << cut;
  }
}

TEST(Wire, TrailingBytesRejected) {
  auto payload = encode_schedule_request(sample_request(4, 3));
  payload.push_back(0);
  EXPECT_THROW((void)decode_schedule_request(payload), WireError);
}

TEST(Wire, GarbagePayloadsNeverCrash) {
  // Random bytes must either decode (vanishingly unlikely) or throw
  // WireError — never crash, hang, or over-allocate.
  std::mt19937_64 rng(99);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(rng() % 512);
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng());
    try {
      (void)decode_schedule_request(garbage);
    } catch (const WireError&) {
    }
    try {
      (void)decode_schedule_response(garbage);
    } catch (const WireError&) {
    }
    try {
      (void)decode_error(garbage);
    } catch (const WireError&) {
    }
  }
}

TEST(Wire, RejectsBadEnumsAndRanges) {
  // Unknown scheduler kind.
  auto payload = encode_schedule_request(sample_request(1, 4));
  payload[1] = 200;
  EXPECT_THROW((void)decode_schedule_request(payload), WireError);
  // Unknown flag bits.
  payload = encode_schedule_request(sample_request(1, 4));
  payload[2] = 0x80;
  EXPECT_THROW((void)decode_schedule_request(payload), WireError);
  // Unsupported version.
  payload = encode_schedule_request(sample_request(1, 4));
  payload[0] = 9;
  EXPECT_THROW((void)decode_schedule_request(payload), WireError);
  // Processor count out of range (P = 1).
  payload = encode_schedule_request(sample_request(1, 4));
  payload[4] = 1;
  payload[5] = payload[6] = payload[7] = 0;
  EXPECT_THROW((void)decode_schedule_request(payload), WireError);
  // Event endpoint out of range.
  ScheduleResponse response;
  response.processors = 4;
  response.events.push_back({9, 0, 0.0, 1.0});
  EXPECT_THROW((void)decode_schedule_response(encode_schedule_response(response)),
               WireError);
}

TEST(Wire, NonFiniteNowRejected) {
  ScheduleRequest request = sample_request(1, 4);
  request.now_s = std::numeric_limits<double>::infinity();
  const auto payload = encode_schedule_request(request);
  EXPECT_THROW((void)decode_schedule_request(payload), WireError);
}

// --- framing ------------------------------------------------------------

TEST(FrameReader, ReassemblesByteByByte) {
  const auto request_payload = encode_schedule_request(sample_request(5, 4));
  std::vector<std::uint8_t> stream;
  append_frame(stream, FrameType::kScheduleRequest, request_payload);
  const std::uint8_t format = 1;
  append_frame(stream, FrameType::kMetricsRequest, {&format, 1});
  append_frame(stream, FrameType::kShutdown, {});

  FrameReader reader;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    reader.feed({&byte, 1});
    while (auto frame = reader.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kScheduleRequest);
  EXPECT_EQ(frames[0].payload, request_payload);
  EXPECT_EQ(frames[1].type, FrameType::kMetricsRequest);
  EXPECT_EQ(frames[2].type, FrameType::kShutdown);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, RejectsOversizedAndUnknownHeaders) {
  {
    FrameReader reader;
    // Length u32 = kMaxPayloadBytes + 1, any type.
    const std::uint32_t length = kMaxPayloadBytes + 1;
    std::vector<std::uint8_t> header;
    for (int k = 0; k < 4; ++k)
      header.push_back(static_cast<std::uint8_t>(length >> (8 * k)));
    header.push_back(1);
    reader.feed(header);
    EXPECT_THROW((void)reader.next(), WireError);
  }
  {
    FrameReader reader;
    const std::vector<std::uint8_t> header = {0, 0, 0, 0, 99};  // type 99
    reader.feed(header);
    EXPECT_THROW((void)reader.next(), WireError);
  }
}

// --- schedule cache -----------------------------------------------------

Matrix<double> cost_matrix_for(std::uint64_t seed, std::size_t p) {
  const ProblemInstance instance =
      make_instance(Scenario::kMixedMessages, p, seed);
  return CommMatrix{instance.network, instance.messages}.times();
}

TEST(ScheduleKeyTest, WithinQuantumPerturbationSharesKey) {
  const Matrix<double> cost = cost_matrix_for(11, 12);
  Matrix<double> nudged = cost;
  for (std::size_t i = 0; i < nudged.rows(); ++i)
    for (std::size_t j = 0; j < nudged.cols(); ++j)
      if (nudged(i, j) > 0) nudged(i, j) *= 1.0001;
  // A multiplicative nudge this small moves ln(c)/quantum by 4e-4 — only
  // entries within that distance of a level boundary can flip. Check the
  // keys agree on >= 95% of levels and, when no entry straddles a
  // boundary, exactly.
  const ScheduleKey a =
      make_schedule_key(SchedulerKind::kGreedy, false, cost, 0.25);
  const ScheduleKey b =
      make_schedule_key(SchedulerKind::kGreedy, false, nudged, 0.25);
  std::size_t agree = 0;
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t k = 0; k < a.levels.size(); ++k)
    agree += a.levels[k] == b.levels[k] ? 1 : 0;
  EXPECT_GE(agree * 100, a.levels.size() * 95);
}

TEST(ScheduleKeyTest, DriftPastToleranceChangesKey) {
  const Matrix<double> cost = cost_matrix_for(12, 12);
  Matrix<double> drifted = cost;
  for (std::size_t i = 0; i < drifted.rows(); ++i)
    for (std::size_t j = 0; j < drifted.cols(); ++j)
      if (drifted(i, j) > 0)
        drifted(i, j) *= 2.0;  // ln(2)/0.25 ≈ 2.8 levels — every entry moves
  const ScheduleKey a =
      make_schedule_key(SchedulerKind::kGreedy, false, cost, 0.25);
  const ScheduleKey b =
      make_schedule_key(SchedulerKind::kGreedy, false, drifted, 0.25);
  EXPECT_NE(a, b);
  EXPECT_NE(make_schedule_key(SchedulerKind::kGreedy, true, cost, 0.25), a)
      << "hierarchical flag must split keys";
  EXPECT_NE(make_schedule_key(SchedulerKind::kOpenShop, false, cost, 0.25), a)
      << "algorithm must split keys";
}

TEST(ScheduleCacheTest, HitReturnsBitIdenticalSchedule) {
  const Matrix<double> cost = cost_matrix_for(13, 16);
  const CommMatrix comm{cost};
  const auto scheduler = make_scheduler(SchedulerKind::kMaxMatching);
  const Schedule cold = scheduler->schedule(comm);

  ScheduleCache cache({.shards = 4, .capacity = 16});
  const ScheduleKey key =
      make_schedule_key(SchedulerKind::kMaxMatching, false, cost, 0.25);

  ScheduleCache::Lookup first = cache.acquire(key);
  ASSERT_TRUE(first.leader);
  cache.publish(key, first.flight,
                std::make_shared<const Schedule>(scheduler->schedule(comm)));

  ScheduleCache::Lookup second = cache.acquire(key);
  ASSERT_TRUE(second.hit);
  ASSERT_NE(second.schedule, nullptr);
  // The cached schedule must be indistinguishable from a cold solve:
  // identical event list (order included), identical completion.
  EXPECT_EQ(second.schedule->events(), cold.events());
  EXPECT_EQ(second.schedule->completion_time(), cold.completion_time());

  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ScheduleCacheTest, SingleFlightCoalescesConcurrentMisses) {
  ScheduleCache cache({.shards = 2, .capacity = 8});
  const Matrix<double> cost = cost_matrix_for(14, 8);
  const ScheduleKey key =
      make_schedule_key(SchedulerKind::kGreedy, false, cost, 0.25);

  ScheduleCache::Lookup leader = cache.acquire(key);
  ASSERT_TRUE(leader.leader);

  std::atomic<int> coalesced{0};
  std::vector<std::thread> followers;
  for (int t = 0; t < 4; ++t)
    followers.emplace_back([&] {
      ScheduleCache::Lookup lookup = cache.acquire(key);
      if (lookup.coalesced && lookup.schedule) coalesced.fetch_add(1);
    });

  const CommMatrix comm{cost};
  cache.publish(
      key, leader.flight,
      std::make_shared<const Schedule>(
          make_scheduler(SchedulerKind::kGreedy)->schedule(comm)));
  for (std::thread& thread : followers) thread.join();

  // Followers either coalesced onto the in-flight solve or (if they
  // arrived after publish) hit the fresh entry; the solver ran once.
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(coalesced.load()), stats.coalesced);
  EXPECT_EQ(stats.coalesced + stats.hits, 4u);
}

TEST(ScheduleCacheTest, AbortWakesFollowersWithError) {
  ScheduleCache cache({.shards = 1, .capacity = 4});
  const Matrix<double> cost = cost_matrix_for(15, 6);
  const ScheduleKey key =
      make_schedule_key(SchedulerKind::kGreedy, false, cost, 0.25);
  // A sleep cannot promise that the follower parks on the flight before
  // the abort. A follower that arrives after it leads a flight of its own,
  // aborts that flight, and the round is tried again.
  bool coalesced = false;
  for (int round = 0; round < 50 && !coalesced; ++round) {
    ScheduleCache::Lookup leader = cache.acquire(key);
    ASSERT_TRUE(leader.leader);
    ScheduleCache::Lookup followed;
    std::thread follower([&] {
      followed = cache.acquire(key);
      if (followed.leader) cache.abort(key, followed.flight, "");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cache.abort(key, leader.flight, "solver exploded");
    follower.join();
    if (followed.leader) continue;
    coalesced = true;
    EXPECT_TRUE(followed.coalesced);
    EXPECT_EQ(followed.schedule, nullptr);
    EXPECT_FALSE(followed.error.empty());
  }
  EXPECT_TRUE(coalesced) << "no follower parked on the flight in 50 rounds";
  // Nothing cached: the next acquire leads again.
  ScheduleCache::Lookup retry = cache.acquire(key);
  EXPECT_TRUE(retry.leader);
  cache.abort(key, retry.flight, "");
}

TEST(ScheduleCacheTest, LruEvictsAndInvalidateClears) {
  ScheduleCache cache({.shards = 1, .capacity = 2});
  const CommMatrix comm{cost_matrix_for(16, 4)};
  const auto publish_one = [&](std::uint64_t seed) {
    const ScheduleKey key = make_schedule_key(
        SchedulerKind::kGreedy, false, cost_matrix_for(seed, 4), 0.25);
    ScheduleCache::Lookup lookup = cache.acquire(key);
    if (lookup.leader)
      cache.publish(key, lookup.flight,
                    std::make_shared<const Schedule>(
                        make_scheduler(SchedulerKind::kGreedy)->schedule(comm)));
  };
  for (std::uint64_t seed = 50; seed < 55; ++seed) publish_one(seed);
  ScheduleCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GE(stats.evictions, 3u);
  cache.invalidate_all();
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.invalidations, 1u);
}

// --- bounded queue ------------------------------------------------------

TEST(BoundedQueueTest, BackpressureAndDrain) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3)) << "full queue must shed";
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_TRUE(queue.try_push(3));
  queue.close();
  EXPECT_FALSE(queue.try_push(4)) << "closed queue must shed";
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
  EXPECT_EQ(queue.pop(), std::nullopt) << "closed and drained";
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> queue(4);
  std::thread consumer([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  consumer.join();
}

// --- metrics hub (run under tsan in CI) ---------------------------------

TEST(MetricsHubTest, ConcurrentRecordAndScrapeIsExact) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint64_t kPerWorker = 20'000;
  MetricsHub hub(kWorkers);
  std::atomic<bool> done{false};

  std::thread scraper([&] {
    // Scrape continuously while producers write: any torn read or data
    // race here is what tsan is pointed at.
    while (!done.load(std::memory_order_acquire)) {
      const MetricsRegistry merged = hub.scrape();
      std::ostringstream sink;
      merged.write_text(sink);  // exercises the full serialize path
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t w = 0; w < kWorkers; ++w)
    producers.emplace_back([&hub, w] {
      for (std::uint64_t i = 0; i < kPerWorker; ++i)
        hub.record(w, [&](MetricsRegistry& registry) {
          registry.counter("test.ops").add();
          registry.histogram("test.latency").observe(1e-6 * (1 + i % 7));
          registry.gauge("test.depth").set(static_cast<double>(i));
        });
    });
  for (std::thread& producer : producers) producer.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  MetricsRegistry merged = hub.scrape();
  EXPECT_EQ(merged.counter("test.ops").value(), kWorkers * kPerWorker);
  EXPECT_EQ(merged.histogram("test.latency").count(), kWorkers * kPerWorker);
  EXPECT_EQ(merged.gauge("test.depth").value(),
            static_cast<double>(kPerWorker - 1));
}

// --- daemon end to end --------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/hcs_service_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(ScheduleServerTest, ServesCachesAndShutsDownCleanly) {
  const std::size_t p = 16;
  const StaticDirectory directory{generate_network(p, 21)};
  ServerOptions options;
  options.socket_path = test_socket_path("e2e");
  options.workers = 2;
  ScheduleServer server(directory, options);
  server.start();

  ScheduleRequest request;
  request.kind = SchedulerKind::kOpenShop;
  request.messages = make_instance(Scenario::kSmallMessages, p, 3).messages;

  ServiceClient client(options.socket_path);
  const ScheduleResponse cold = client.schedule(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.processors, p);
  EXPECT_EQ(cold.events.size(), p * (p - 1));

  // Same request again: cache hit, byte-identical schedule. This pins the
  // acceptance criterion — a hit is indistinguishable from a cold solve.
  const ScheduleResponse warm = client.schedule(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.events, cold.events);
  EXPECT_EQ(warm.completion_s, cold.completion_s);

  // The response materializes into a schedule that passes full validation
  // against the same comm matrix the server solved.
  const CommMatrix comm{directory.snapshot(0.0), request.messages};
  warm.to_schedule().validate(comm);

  // Wrong processor count is a bad request, not a dropped connection.
  ScheduleRequest wrong = request;
  wrong.messages = MessageMatrix(4, 4);
  try {
    (void)client.schedule(wrong);
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kBadRequest);
  }

  // The connection survives the error; metrics are scrapeable over it.
  const std::string scrape = client.scrape_metrics(/*text=*/true);
  EXPECT_NE(scrape.find("service_cache_hits 1"), std::string::npos) << scrape;
  EXPECT_NE(scrape.find("service_requests"), std::string::npos);

  client.shutdown_server();
  server.wait();  // returns because the client requested shutdown
}

TEST(ScheduleServerTest, ConcurrentIdenticalBurstSolvesOnce) {
  const std::size_t p = 12;
  const StaticDirectory directory{generate_network(p, 22)};
  ServerOptions options;
  options.socket_path = test_socket_path("burst");
  options.workers = 4;
  ScheduleServer server(directory, options);
  server.start();

  ReplayConfig config;
  config.socket_path = options.socket_path;
  config.requests = 64;
  config.connections = 8;
  config.processors = p;
  config.kind = SchedulerKind::kGreedy;
  config.distinct_workloads = 1;
  const ReplayStats stats = run_replay(config);

  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.errors, 0u);
  // One workload, one key: exactly one request solved cold; every other
  // request either hit the cache or coalesced onto the in-flight solve.
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 63u);
  server.stop();
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ScheduleServerTest, DrainUnderLoadFinishesQueuedWorkAndRefusesNew) {
  const std::size_t p = 16;
  const StaticDirectory directory{generate_network(p, 24)};
  ServerOptions options;
  options.socket_path = test_socket_path("drain");
  options.workers = 1;  // serialize solves so a real backlog can form
  ScheduleServer server(directory, options);
  server.start();

  // Pipeline distinct workloads (distinct cache keys — every one is a
  // cold solve) on one raw connection, without reading any responses.
  constexpr std::size_t kRequests = 8;
  const int fd = connect_unix(options.socket_path);
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> wire;
  for (std::size_t k = 0; k < kRequests; ++k) {
    ScheduleRequest request = sample_request(1000 + k, p);
    request.hierarchical = false;
    request.now_s = 0.0;
    append_frame(wire, FrameType::kScheduleRequest,
                 encode_schedule_request(request));
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  // Wait for the backlog to be visibly in flight, then drain. drain()
  // blocks until the queue is empty and the server has fully stopped.
  while (server.scrape().counter("service.requests").value() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.drain();

  // New connections are refused outright: the socket path is gone.
  EXPECT_LT(connect_unix(options.socket_path), 0);

  // Every pipelined request was answered before the connection closed: a
  // schedule response if it was queued before the drain, kBusy if it
  // arrived during it. Nothing vanished silently.
  FrameReader reader;
  std::array<std::uint8_t, 4096> chunk;
  std::size_t schedules = 0;
  std::size_t busy = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (n <= 0) break;
    reader.feed({chunk.data(), static_cast<std::size_t>(n)});
    while (auto frame = reader.next()) {
      if (frame->type == FrameType::kScheduleResponse) {
        ++schedules;
      } else {
        ASSERT_EQ(frame->type, FrameType::kError);
        EXPECT_EQ(decode_error(frame->payload).code, ErrorCode::kBusy);
        ++busy;
      }
    }
  }
  ::close(fd);
  EXPECT_EQ(schedules + busy, kRequests);
  EXPECT_GE(schedules, 2u) << "the pre-drain backlog must complete";

  MetricsRegistry metrics = server.scrape();
  EXPECT_EQ(metrics.gauge("service.draining").value(), 1.0);
  EXPECT_EQ(static_cast<std::size_t>(
                metrics.counter("service.drain_rejections").value()),
            busy);
}

TEST(ScheduleServerTest, DriftingDirectoryInvalidatesByKeyRotation) {
  const std::size_t p = 8;
  DriftingDirectory::Options drift;
  drift.step_sigma = 0.8;  // violent drift: keys rotate every step
  drift.update_period_s = 1.0;
  const DriftingDirectory directory{generate_network(p, 23), 5, drift};
  ServerOptions options;
  options.socket_path = test_socket_path("drift");
  options.workers = 2;
  ScheduleServer server(directory, options);
  server.start();

  ServiceClient client(options.socket_path);
  ScheduleRequest request;
  request.kind = SchedulerKind::kGreedy;
  request.messages = make_instance(Scenario::kLargeMessages, p, 9).messages;

  // Same workload at the same instant: hits. At a drifted instant: the
  // quantized signature moved, so the cache must re-solve.
  request.now_s = 0.0;
  (void)client.schedule(request);
  EXPECT_TRUE(client.schedule(request).cache_hit);
  request.now_s = 60.0;
  const ScheduleResponse drifted = client.schedule(request);
  EXPECT_FALSE(drifted.cache_hit)
      << "drift past quantization tolerance must miss";
  server.stop();
}

// A directory whose snapshots are slow enough that every request of a
// concurrent burst arrives while the first build runs.
class SlowDirectory final : public DirectoryService {
 public:
  explicit SlowDirectory(std::unique_ptr<DirectoryService> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::size_t processor_count() const override {
    return inner_->processor_count();
  }
  [[nodiscard]] LinkParams query(std::size_t src, std::size_t dst,
                                 double now_s) const override {
    return inner_->query(src, dst, now_s);
  }
  [[nodiscard]] NetworkModel snapshot(double now_s) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return inner_->snapshot(now_s);
  }
  [[nodiscard]] bool time_invariant() const override {
    return inner_->time_invariant();
  }

 private:
  std::unique_ptr<DirectoryService> inner_;
};

// Snapshot builds made by four concurrent requests for instant 7 s, after
// one request at 0 s when `warm`.
std::uint64_t burst_builds(const DirectoryService& directory, bool warm,
                           const char* socket_name) {
  const std::size_t p = directory.processor_count();
  ServerOptions options;
  options.socket_path = test_socket_path(socket_name);
  options.workers = 4;
  ScheduleServer server(directory, options);
  server.start();
  const auto builds = [&] {
    return server.scrape().counter("service.snapshot_builds").value();
  };

  // Distinct matrices, so no request is answered from the payload memo
  // without a snapshot.
  const auto request_for = [&](std::uint64_t seed, double now_s) {
    ScheduleRequest request;
    request.kind = SchedulerKind::kGreedy;
    request.now_s = now_s;
    request.messages = make_instance(Scenario::kMixedMessages, p, seed).messages;
    return request;
  };
  if (warm) {
    ServiceClient client(options.socket_path);
    (void)client.schedule(request_for(1, 0.0));
  }
  const auto before = builds();

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      ServiceClient client(options.socket_path);
      const ScheduleResponse response =
          client.schedule(request_for(10 + static_cast<std::uint64_t>(c), 7.0));
      if (response.processors == p) answered.fetch_add(1);
    });
  for (auto& client : clients) client.join();
  EXPECT_EQ(answered.load(), kClients);
  const auto made = builds() - before;
  server.stop();
  return made;
}

TEST(ScheduleServerTest, ConcurrentRequestsForOneInstantBuildItOnce) {
  const SlowDirectory directory{std::make_unique<DriftingDirectory>(
      generate_network(6, 3), 5, DriftingDirectory::Options{})};
  EXPECT_EQ(burst_builds(directory, true, "snapshot-once"), 1u)
      << "each new instant is built once, however many workers ask for it";
}

TEST(ScheduleServerTest, ConcurrentFirstRequestsBuildAStaticViewOnce) {
  const SlowDirectory directory{
      std::make_unique<StaticDirectory>(generate_network(6, 3))};
  EXPECT_EQ(burst_builds(directory, false, "static-once"), 1u)
      << "a time-invariant directory is built once, however many workers "
         "ask for it first";
}

// --- TCP listener -------------------------------------------------------

TEST(ScheduleServerTest, TcpOnlyListenerSpeaksTheSameProtocol) {
  const std::size_t p = 12;
  const StaticDirectory directory{generate_network(p, 31)};
  ServerOptions options;
  options.socket_path.clear();  // no UNIX socket at all
  options.tcp_port = 0;         // ephemeral; the bound port is queryable
  options.workers = 2;
  ScheduleServer server(directory, options);
  server.start();
  ASSERT_GT(server.tcp_listen_port(), 0);

  ServiceClient client("tcp:127.0.0.1:" +
                       std::to_string(server.tcp_listen_port()));
  ScheduleRequest request;
  request.kind = SchedulerKind::kGreedy;
  request.messages = make_instance(Scenario::kMixedMessages, p, 4).messages;
  const ScheduleResponse cold = client.schedule(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.processors, p);
  // Same request, same connection: cache hit — framing, caching, and
  // metrics behave exactly as over a UNIX socket.
  EXPECT_TRUE(client.schedule(request).cache_hit);
  const std::string scrape = client.scrape_metrics(/*text=*/true);
  EXPECT_NE(scrape.find("service_cache_hits 1"), std::string::npos) << scrape;
  server.stop();
}

TEST(ScheduleServerTest, RefusesToStartWithNoListenerConfigured) {
  const StaticDirectory directory{generate_network(4, 31)};
  ServerOptions options;
  options.socket_path.clear();
  options.tcp_port = -1;
  EXPECT_THROW(ScheduleServer(directory, options), InputError);
}

// --- sweep shards over the wire -----------------------------------------

TEST(ScheduleServerTest, SweepShardsOverUnixAndTcpMatchLocalBytes) {
  const StaticDirectory directory{generate_network(8, 32)};
  ServerOptions options;
  options.socket_path = test_socket_path("shard");
  options.tcp_port = 0;  // dual listeners on one daemon
  options.workers = 2;
  ScheduleServer server(directory, options);
  server.start();

  SweepShardRequest shard;
  shard.kind = SweepKind::kFigure;
  shard.figure.processor_counts = {4, 6};
  shard.figure.repetitions = 2;
  shard.figure.schedulers = {SchedulerKind::kOpenShop};
  shard.figure.threads = 0;
  shard.unit_begin = 1;
  shard.unit_end = 3;
  const auto request = encode_sweep_shard_request(shard);
  // The contract that makes remote workers interchangeable with local
  // ones: the daemon returns exactly handle_sweep_shard's bytes.
  const auto local = handle_sweep_shard(request);

  ServiceClient unix_client(options.socket_path);
  EXPECT_EQ(unix_client.sweep_shard(request), local);
  ServiceClient tcp_client("tcp:127.0.0.1:" +
                           std::to_string(server.tcp_listen_port()));
  EXPECT_EQ(tcp_client.sweep_shard(request), local);

  // A malformed shard payload is a bad request on a surviving
  // connection, not a dropped one.
  const std::vector<std::uint8_t> garbage{1, 2, 3};
  try {
    (void)unix_client.sweep_shard(garbage);
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kBadRequest);
  }
  EXPECT_EQ(unix_client.sweep_shard(request), local);

  MetricsRegistry metrics = server.scrape();
  EXPECT_EQ(metrics.counter("service.sweep_shards").value(), 4u);
  EXPECT_EQ(metrics.counter("service.sweep_units").value(), 6u);
  EXPECT_EQ(metrics.counter("service.errors").value(), 1u);
  server.stop();
}

// --- per-connection request limit ---------------------------------------

TEST(ScheduleServerTest, PerConnectionLimitAnswersBusyAndHangsUp) {
  const std::size_t p = 8;
  const StaticDirectory directory{generate_network(p, 33)};
  ServerOptions options;
  options.socket_path = test_socket_path("limit");
  options.workers = 1;
  options.max_requests_per_connection = 2;
  ScheduleServer server(directory, options);
  server.start();

  ScheduleRequest request;
  request.kind = SchedulerKind::kGreedy;
  request.messages = make_instance(Scenario::kSmallMessages, p, 5).messages;

  ServiceClient client(options.socket_path);
  (void)client.schedule(request);
  (void)client.schedule(request);
  try {
    (void)client.schedule(request);
    FAIL() << "expected ServiceError after the per-connection budget";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kBusy);
  }

  // Reconnecting resets the budget — exactly what the sweep driver's
  // socket endpoint does after any failure.
  ServiceClient fresh(options.socket_path);
  EXPECT_TRUE(fresh.schedule(request).cache_hit);
  EXPECT_EQ(server.scrape().counter("service.request_limit_closes").value(),
            1u);
  server.stop();
}

/// CPU time this process has used so far, in seconds.
double process_cpu_s() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

// With the descriptor table full, accept fails while the pending
// connection keeps the listen socket readable. The acceptor must back
// off a poll interval per failure, count it, and serve again once
// descriptors free up. The descriptor limit is process-wide, so the test
// restores it before returning (ctest runs each case in its own process).
TEST(ScheduleServerTest, AcceptFailureBacksOffInsteadOfSpinning) {
  const std::size_t p = 8;
  const StaticDirectory directory{generate_network(p, 36)};
  ServerOptions options;
  options.socket_path = test_socket_path("emfile");
  options.workers = 1;
  ScheduleServer server(directory, options);
  server.start();

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 256);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> filler;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) filler.push_back(fd);
  ASSERT_FALSE(filler.empty());
  // One slot for the client; the queued connection then has none.
  ::close(filler.back());
  filler.pop_back();
  const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, options.socket_path.c_str(),
               sizeof(address.sun_path) - 1);
  ASSERT_EQ(::connect(client, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const double cpu_before = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double idle_cpu_s = process_cpu_s() - cpu_before;
  const std::uint64_t errors =
      server.scrape().counter("service.accept_errors").value();

  for (const int fd : filler) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_GT(errors, 0u);
  EXPECT_LT(idle_cpu_s, 0.05) << "the acceptor spins on a full table";

  // Descriptors are back: the queued connection and a fresh client are
  // both served.
  ScheduleRequest request;
  request.kind = SchedulerKind::kGreedy;
  request.messages = make_instance(Scenario::kSmallMessages, p, 6).messages;
  ServiceClient fresh(options.socket_path);
  EXPECT_EQ(fresh.schedule(request).processors, p);
  ::close(client);
  EXPECT_GE(server.scrape().counter("service.connections").value(), 2u);
  server.stop();
}

// --- open-loop replay ---------------------------------------------------

TEST(ReplayTest, OpenLoopArrivalsCompleteAndReportOfferedLoad) {
  const std::size_t p = 8;
  const StaticDirectory directory{generate_network(p, 34)};
  ServerOptions options;
  options.socket_path = test_socket_path("openloop");
  options.workers = 2;
  ScheduleServer server(directory, options);
  server.start();

  ReplayConfig config;
  config.socket_path = options.socket_path;
  config.requests = 32;
  config.connections = 2;
  config.processors = p;
  config.kind = SchedulerKind::kGreedy;
  config.arrival = Arrival::kPoisson;
  config.offered_qps = 2000.0;  // fast enough that the test stays quick
  const ReplayStats poisson = run_replay(config);
  EXPECT_EQ(poisson.completed, 32u);
  EXPECT_EQ(poisson.errors, 0u);
  EXPECT_EQ(poisson.offered_qps, 2000.0);

  config.arrival = Arrival::kBurst;
  config.burst_size = 4;
  const ReplayStats burst = run_replay(config);
  EXPECT_EQ(burst.completed, 32u);
  EXPECT_EQ(burst.errors, 0u);
  server.stop();
}

TEST(ReplayTest, OpenLoopConfigIsValidated) {
  ReplayConfig config;
  config.socket_path = "/tmp/never-connects.sock";
  config.arrival = Arrival::kPoisson;
  config.offered_qps = 0.0;  // open-loop needs a rate
  EXPECT_THROW((void)run_replay(config), InputError);
  config.arrival = Arrival::kBurst;
  config.offered_qps = 100.0;
  config.burst_size = 0;
  EXPECT_THROW((void)run_replay(config), InputError);
}

}  // namespace
}  // namespace hcs::service
