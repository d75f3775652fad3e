// The communication matrix: per-pair event times for one total exchange.
//
// Entry (src, dst) is the time, in seconds, of the communication event
// from P_src to P_dst — computed as T_ij + m/B_ij from a network snapshot
// and a message-size matrix, or supplied directly. The diagonal is zero
// (paper §4.2: local copies are negligible).
//
// Note on indexing: the paper's matrix C uses C[i][j] = time of the event
// from P_j to P_i (receiver-major). This library uses sender-major
// (src, dst) indexing throughout; `row sums` are therefore send totals and
// `column sums` receive totals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netmodel/network_model.hpp"
#include "util/matrix.hpp"
#include "workload/generators.hpp"

namespace hcs {

/// Times of all P x P communication events of a total exchange.
class CommMatrix {
 public:
  /// From an explicit (src, dst)-indexed time matrix. Must be square, with
  /// non-negative entries and a zero diagonal.
  explicit CommMatrix(Matrix<double> times);

  /// From a network snapshot and per-pair message sizes:
  /// time(i, j) = T_ij + bytes(i, j) / B_ij for i != j, 0 on the diagonal.
  CommMatrix(const NetworkModel& network, const MessageMatrix& messages);

  [[nodiscard]] std::size_t processor_count() const noexcept {
    return times_.rows();
  }

  /// Duration of the event src -> dst, in seconds.
  [[nodiscard]] double time(std::size_t src, std::size_t dst) const {
    return times_(src, dst);
  }

  /// Total send time of processor i (sum of its outgoing events).
  [[nodiscard]] double send_total(std::size_t src) const {
    return times_.row_sum(src);
  }

  /// Total receive time of every processor j (sum of its incoming
  /// events), from one row-major pass over the matrix.
  [[nodiscard]] std::vector<double> recv_totals() const {
    return times_.col_sums();
  }

  /// The paper's lower bound t_lb on any schedule's completion time: the
  /// largest per-processor send or receive total. No schedule can finish
  /// earlier, because each processor sends (receives) serially.
  [[nodiscard]] double lower_bound() const;

  /// Underlying (src, dst)-indexed time matrix.
  [[nodiscard]] const Matrix<double>& times() const noexcept { return times_; }

 private:
  Matrix<double> times_;
};

}  // namespace hcs
