#include "netmodel/network_model.hpp"

#include <span>

namespace hcs {

NetworkModel::NetworkModel(std::size_t processor_count, LinkParams params)
    : startup_s_(processor_count, processor_count, params.startup_s),
      bandwidth_Bps_(processor_count, processor_count, params.bandwidth_Bps) {}

NetworkModel::NetworkModel(Matrix<double> startup_s,
                           Matrix<double> bandwidth_Bps)
    : startup_s_(std::move(startup_s)),
      bandwidth_Bps_(std::move(bandwidth_Bps)) {
  if (!startup_s_.square() || !bandwidth_Bps_.square() ||
      startup_s_.rows() != bandwidth_Bps_.rows())
    throw InputError("NetworkModel: parameter matrices must be square and equal-sized");
  // One flat pass per matrix; flat index k is on the diagonal when
  // k % (n + 1) == 0, which is asked only of a non-positive bandwidth.
  const std::size_t n = startup_s_.rows();
  const std::span<const double> bandwidth = bandwidth_Bps_.data();
  for (std::size_t k = 0; k < bandwidth.size(); ++k)
    if (bandwidth[k] <= 0.0 && k % (n + 1) != 0)
      throw InputError("NetworkModel: off-diagonal bandwidth must be positive");
  for (const double t : startup_s_.data())
    if (t < 0.0) throw InputError("NetworkModel: negative startup");
}

void NetworkModel::set_link(std::size_t src, std::size_t dst, LinkParams params) {
  if (src != dst && params.bandwidth_Bps <= 0.0)
    throw InputError("NetworkModel: off-diagonal bandwidth must be positive");
  if (params.startup_s < 0.0) throw InputError("NetworkModel: negative startup");
  startup_s_(src, dst) = params.startup_s;
  bandwidth_Bps_(src, dst) = params.bandwidth_Bps;
}

double NetworkModel::cost(std::size_t src, std::size_t dst,
                          std::uint64_t bytes) const {
  check(src < processor_count() && dst < processor_count(),
        "NetworkModel: processor index out of range");
  if (src == dst) return 0.0;
  return link(src, dst).transfer_time(bytes);
}

Matrix<double> NetworkModel::cost_matrix(
    const Matrix<std::uint64_t>& bytes) const {
  const std::size_t n = processor_count();
  if (bytes.rows() != n || bytes.cols() != n)
    throw InputError("NetworkModel: byte matrix does not match network size");
  Matrix<double> times(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) times(i, j) = link(i, j).transfer_time(bytes(i, j));
  return times;
}

Matrix<double> NetworkModel::cost_matrix(const Matrix<std::uint64_t>& bytes,
                                         const Matrix<unsigned char>& mask) const {
  const std::size_t n = processor_count();
  if (bytes.rows() != n || bytes.cols() != n || mask.rows() != n ||
      mask.cols() != n)
    throw InputError("NetworkModel: byte/mask matrices do not match network size");
  Matrix<double> times(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && mask(i, j) != 0)
        times(i, j) = link(i, j).transfer_time(bytes(i, j));
  return times;
}

Matrix<double> NetworkModel::cost_matrix(std::uint64_t bytes) const {
  const std::size_t n = processor_count();
  Matrix<double> times(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) times(i, j) = link(i, j).transfer_time(bytes);
  return times;
}

bool NetworkModel::symmetric() const {
  const std::size_t n = processor_count();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (startup_s_(i, j) != startup_s_(j, i) ||
          bandwidth_Bps_(i, j) != bandwidth_Bps_(j, i))
        return false;
  return true;
}

}  // namespace hcs
