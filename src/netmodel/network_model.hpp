// P-processor network performance model: a LinkParams entry per ordered
// processor pair, plus the cost function used to build communication
// matrices.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netmodel/link_params.hpp"
#include "util/matrix.hpp"

namespace hcs {

/// Network performance between every ordered pair of P processors.
///
/// The diagonal is conventionally zero-cost (paper §4.2: local memory
/// copies are negligible next to network transfers); `cost()` returns 0
/// for i == j regardless of the stored diagonal parameters.
class NetworkModel {
 public:
  /// A degenerate empty model; usable only after assignment.
  NetworkModel() = default;

  /// Homogeneous network: every off-diagonal pair has `params`.
  NetworkModel(std::size_t processor_count, LinkParams params);

  /// Fully general network from per-pair startup (seconds) and bandwidth
  /// (bytes/second) matrices. Both must be square with equal dimensions.
  NetworkModel(Matrix<double> startup_s, Matrix<double> bandwidth_Bps);

  [[nodiscard]] std::size_t processor_count() const noexcept {
    return startup_s_.rows();
  }

  /// Performance parameters of the ordered pair (src -> dst). Inline:
  /// detection and instance builds call it once per pair at wide P.
  [[nodiscard]] LinkParams link(std::size_t src, std::size_t dst) const {
    return {startup_s_(src, dst), bandwidth_Bps_(src, dst)};
  }

  /// Replaces the parameters for one ordered pair (used by drifting
  /// directories and topology re-evaluation).
  void set_link(std::size_t src, std::size_t dst, LinkParams params);

  /// Time in seconds to send `bytes` from `src` to `dst`; zero when
  /// src == dst.
  [[nodiscard]] double cost(std::size_t src, std::size_t dst,
                            std::uint64_t bytes) const;

  /// Full P×P table of cost(i, j, bytes(i, j)) — the T_ij + m_ij/B_ij
  /// matrix every scheduler consumes. The diagonal is zero.
  [[nodiscard]] Matrix<double> cost_matrix(
      const Matrix<std::uint64_t>& bytes) const;

  /// Masked variant: entries where mask(i, j) == 0 cost zero. Used by the
  /// adaptive executors to price only the still-outstanding pairs.
  [[nodiscard]] Matrix<double> cost_matrix(
      const Matrix<std::uint64_t>& bytes,
      const Matrix<unsigned char>& mask) const;

  /// Uniform-payload table of cost(i, j, bytes) for every ordered pair —
  /// what the rooted collectives scan repeatedly.
  [[nodiscard]] Matrix<double> cost_matrix(std::uint64_t bytes) const;

  /// True when both parameter matrices are symmetric (the GUSTO tables
  /// are; generated networks may choose not to be).
  [[nodiscard]] bool symmetric() const;

 private:
  Matrix<double> startup_s_;
  Matrix<double> bandwidth_Bps_;
};

}  // namespace hcs
