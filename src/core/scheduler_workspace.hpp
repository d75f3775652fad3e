// Reusable scheduler workspace.
//
// Schedule construction is a hot path just like schedule execution: every
// checkpoint round of run_resilient and every repetition of the
// experiment sweeps re-runs a scheduler, and §6.2's economics only
// work if computing a schedule stays cheap next to the exchange it saves.
// A SchedulerWorkspace owns all the scratch the greedy and open-shop
// schedulers (and the step executor behind the baseline and random
// schedulers) need — per-sender rank lists, flat bitsets, indexed time
// heaps, availability arrays — as flat structures cleared, never shrunk,
// between runs. After the first schedule at a given processor count a
// scheduler performs zero heap allocation outside its returned result.
// This is the same warm-workspace pattern LapSolver applies to the
// matching schedulers and SimWorkspace to the simulator.
//
// The workspace is pure scratch: it carries no results and no semantics,
// and any call may be handed a freshly constructed workspace with
// bit-identical output. Not thread-safe: one workspace per thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcs {

class CommMatrix;
class StepSchedule;
class Schedule;
class SchedulerWorkspace;
class OpenShopScheduler;

StepSchedule greedy_steps(const CommMatrix& comm, SchedulerWorkspace& workspace);
Schedule execute_async(const StepSchedule& steps, const CommMatrix& comm,
                       SchedulerWorkspace& workspace);
Schedule execute_barrier(const StepSchedule& steps, const CommMatrix& comm,
                         SchedulerWorkspace& workspace);

namespace detail {

/// Flat word-backed bitset, cleared (never shrunk) between uses. The
/// greedy scheduler tracks per-step claimed receivers and per-sender
/// not-yet-sent rank positions this way: testing membership is one word
/// probe, and scanning for the next candidate walks set bits with a
/// count-trailing-zeros per word instead of re-scanning a list.
class FlatBitset {
 public:
  /// Sizes for n bits and clears them all.
  void reset(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
  }

  /// Clears all bits, keeping the current size.
  void clear_all() {
    for (std::uint64_t& word : words_) word = 0;
  }

  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return words_[w]; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return words_.capacity() * 64;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace detail

/// All scratch storage one schedule construction needs, reusable across
/// runs and across scheduler kinds. See the file comment for the contract.
class SchedulerWorkspace {
 public:
  SchedulerWorkspace() = default;

  /// High-water marks of the warmed scratch storage, for observability.
  /// Capacities, not sizes; reading them costs nothing on the hot path.
  struct Footprint {
    std::size_t rank_entries = 0;      ///< flat per-sender rank lists
    std::size_t bitset_bits = 0;       ///< candidate/claimed/avail bitsets
    std::size_t scalar_entries = 0;    ///< availability and order arrays
  };

  [[nodiscard]] Footprint footprint() const noexcept {
    Footprint f;
    f.rank_entries = ranked.capacity();
    f.bitset_bits = claimed.capacity() +
                    (avail_bits.capacity() + cand_bits.capacity() +
                     active_words.capacity() + mask_scratch.capacity()) *
                        64;
    f.scalar_entries = send_avail.capacity() + recv_avail.capacity() +
                       time_rows.capacity() + remaining.capacity() +
                       remaining32.capacity() + order.capacity() +
                       next_order.capacity() + idled.capacity();
    return f;
  }

 private:
  friend class OpenShopScheduler;
  friend StepSchedule greedy_steps(const CommMatrix& comm,
                                   SchedulerWorkspace& workspace);
  friend Schedule execute_async(const StepSchedule& steps,
                                const CommMatrix& comm,
                                SchedulerWorkspace& workspace);
  friend Schedule execute_barrier(const StepSchedule& steps,
                                  const CommMatrix& comm,
                                  SchedulerWorkspace& workspace);

  // Greedy: flat rank lists (sender-major, n-1 entries per sender),
  // per-sender not-yet-sent bitsets over rank positions (word-aligned per
  // sender), the per-step claimed-receiver bitset, and the rotating
  // traversal order with its scratch.
  std::vector<std::uint32_t> ranked;
  std::vector<std::uint64_t> avail_bits;
  detail::FlatBitset claimed;
  std::vector<std::size_t> remaining;
  std::vector<std::size_t> order;
  std::vector<std::size_t> next_order;
  std::vector<std::size_t> idled;

  // Open shop: sender-major candidate-receiver bitsets (bit (s, r) set =
  // s has not yet sent to r), the active-sender word mask, and scratch
  // words for building the masked argmin inputs of one selection.
  std::vector<std::uint64_t> cand_bits;
  std::vector<std::uint64_t> active_words;
  std::vector<std::uint64_t> mask_scratch;
  std::vector<std::uint32_t> remaining32;

  // Shared: per-port availability arrays (greedy executor + open shop;
  // the open-shop SIMD path pads them to a 64-lane multiple), and the
  // lane-padded copy of C's rows the greedy SIMD path scans when the
  // processor count is not itself a lane multiple.
  std::vector<double> send_avail;
  std::vector<double> recv_avail;
  std::vector<double> time_rows;
};

}  // namespace hcs
