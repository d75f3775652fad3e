// hcsd — the scheduling daemon binary.
//
// Owns the directory service (a generated fabric: flat, clustered, or
// drifting) and serves schedule requests and sweep shards over a
// UNIX-domain socket, a TCP socket, or both, using the wire protocol in
// src/service/wire.hpp. Clients: `hcs replay` (load generation and
// admin scrape), `hcs sweep --workers` (distributed sweeps), or
// anything speaking the protocol.
//
// Runs until SIGINT/SIGTERM or a client kShutdown frame; exits 0 on any
// clean shutdown. SIGTERM drains gracefully: the listen socket closes
// immediately (new connects fail fast), in-flight and queued requests
// finish and their responses are delivered, and further requests on open
// connections get kBusy. SIGINT and kShutdown stop promptly (queued work
// still completes before connections close). The "listening on" line is
// printed (and flushed) only after the socket accepts connections, so
// scripts can poll for it as the readiness signal.
#include <unistd.h>

#include <csignal>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "netmodel/directory.hpp"
#include "netmodel/generator.hpp"
#include "service/server.hpp"
#include "tools/cli.hpp"
#include "util/error.hpp"

namespace {

constexpr const char* kUsage =
    R"(hcsd — heterogeneous communication scheduling daemon

usage:
  hcsd [--socket PATH] [--tcp-port PORT] [--tcp-bind ADDR]
       [--processors P] [--seed S] [--clusters K]
       [--drift SIGMA] [--drift-period T] [--workers W]
       [--cache-capacity N] [--cache-shards N] [--quantum Q]
       [--queue-depth N] [--max-requests-per-conn N]

  --socket PATH      UNIX-domain socket to listen on
  --tcp-port PORT    TCP port to listen on (0 = ephemeral; the bound
                     port is printed in the readiness line). Same
                     framing and drain semantics as the UNIX socket.
                     At least one of --socket / --tcp-port is required.
  --tcp-bind ADDR    TCP bind address (default 127.0.0.1)
  --processors P     fabric size served by the daemon (default 64)
  --seed S           fabric generation seed (default 1)
  --clusters K       clustered site/WAN fabric with K sites (0 = flat)
  --drift SIGMA      per-step log-bandwidth drift sigma (0 = static)
  --drift-period T   seconds between drift steps (default 1.0)
  --workers W        scheduling worker threads (0 = one per allowed CPU)
  --cache-capacity N schedule-cache entries across all shards (default 256)
  --cache-shards N   schedule-cache shards (default 8)
  --quantum Q        cost-signature log-quantization (default 0.25)
  --queue-depth N    request queue bound; beyond it clients get kBusy
                     (default 1024)
  --max-requests-per-conn N
                     work requests one connection may submit before the
                     daemon answers kBusy and hangs up (0 = unlimited)

signals: SIGTERM drains gracefully (stop accepting, finish queued work,
         answer new requests with kBusy); SIGINT stops promptly.
)";

// Self-pipe: the handler only writes a byte (async-signal-safe); a
// watcher thread turns it into an orderly shutdown. The byte encodes
// which signal fired: SIGTERM asks for a graceful drain, anything else
// for a prompt stop.
int g_signal_fd = -1;

void on_signal(int sig) {
  if (g_signal_fd >= 0) {
    const char byte = sig == SIGTERM ? 2 : 1;
    [[maybe_unused]] const ssize_t n = ::write(g_signal_fd, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && (args[0] == "--help" || args[0] == "help")) {
      std::cout << kUsage;
      return 0;
    }
    const hcs::cli::Options options(
        args, 0,
        {"socket", "tcp-port", "tcp-bind", "processors", "seed", "clusters",
         "drift", "drift-period", "workers", "cache-capacity", "cache-shards",
         "quantum", "queue-depth", "max-requests-per-conn"});

    const std::string socket_path = options.get("socket", "");
    const long tcp_port = options.get_long("tcp-port", -1);
    if (tcp_port < -1 || tcp_port > 65535)
      throw hcs::InputError("--tcp-port must be in [0, 65535]");
    if (socket_path.empty() && tcp_port < 0) {
      std::cerr << "hcsd: need --socket PATH and/or --tcp-port PORT\n"
                << kUsage;
      return 2;
    }
    const long processors = options.get_long("processors", 64);
    if (processors < 2) throw hcs::InputError("--processors must be >= 2");
    const auto p = static_cast<std::size_t>(processors);
    const auto seed = static_cast<std::uint64_t>(options.get_long("seed", 1));
    const auto clusters =
        static_cast<std::size_t>(options.get_long("clusters", 0));
    const hcs::DriftingDirectory::Options drift =
        hcs::cli::drift_options(options, 0.0);

    hcs::NetworkModel base = [&] {
      if (clusters > 0) {
        hcs::ClusteredNetworkOptions clustered;
        clustered.cluster_count = clusters;
        return hcs::generate_clustered_network(p, seed, clustered);
      }
      return hcs::generate_network(p, seed);
    }();

    std::unique_ptr<hcs::DirectoryService> directory =
        hcs::make_live_directory(std::move(base), seed, drift);

    hcs::service::ServerOptions server_options;
    server_options.socket_path = socket_path;
    server_options.tcp_port = static_cast<int>(tcp_port);
    server_options.tcp_bind = options.get("tcp-bind", "127.0.0.1");
    const long max_requests = options.get_long("max-requests-per-conn", 0);
    if (max_requests < 0)
      throw hcs::InputError("--max-requests-per-conn must be >= 0");
    server_options.max_requests_per_connection =
        static_cast<std::size_t>(max_requests);
    server_options.workers =
        static_cast<std::size_t>(options.get_long("workers", 0));
    server_options.queue_capacity =
        static_cast<std::size_t>(options.get_long("queue-depth", 1024));
    server_options.cache.capacity =
        static_cast<std::size_t>(options.get_long("cache-capacity", 256));
    server_options.cache.shards =
        static_cast<std::size_t>(options.get_long("cache-shards", 8));
    server_options.quantum = options.get_double("quantum", 0.25);
    server_options.seed = seed;

    hcs::service::ScheduleServer server(*directory, server_options);
    server.start();

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
      throw hcs::InputError("hcsd: pipe() failed");
    g_signal_fd = pipe_fds[1];
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::thread signal_watcher([&server, read_fd = pipe_fds[0]] {
      char byte = 0;
      if (::read(read_fd, &byte, 1) > 0) {
        if (byte == 2)
          server.drain();  // SIGTERM: finish queued work, refuse new
        else
          server.stop();
      }
    });

    // Readiness line: printed only once every listener accepts. Scripts
    // poll for "listening on" and, for an ephemeral TCP port, parse the
    // "tcp:ADDR:PORT" token.
    std::cout << "hcsd: listening on ";
    if (!socket_path.empty()) std::cout << socket_path;
    if (tcp_port >= 0) {
      if (!socket_path.empty()) std::cout << " and ";
      std::cout << "tcp:" << server_options.tcp_bind << ":"
                << server.tcp_listen_port();
    }
    std::cout << " (P=" << p << ", workers=" << server.worker_count()
              << ", cache=" << server_options.cache.capacity << "x"
              << server_options.cache.shards
              << " shards, quantum=" << server_options.quantum
              << (drift.step_sigma > 0.0 ? ", drifting" : ", static") << ")"
              << std::endl;

    server.wait();

    // Wake the watcher if a client shutdown (not a signal) ended the run.
    g_signal_fd = -1;
    ::close(pipe_fds[1]);
    signal_watcher.join();
    ::close(pipe_fds[0]);
    std::cout << "hcsd: stopped" << std::endl;
    return 0;
  } catch (const hcs::InputError& error) {
    std::cerr << "hcsd: " << error.what() << '\n';
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "hcsd: internal error: " << error.what() << '\n';
    return 1;
  }
}
