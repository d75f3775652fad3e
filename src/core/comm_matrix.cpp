#include "core/comm_matrix.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hcs {

CommMatrix::CommMatrix(Matrix<double> times) : times_(std::move(times)) {
  if (!times_.square() || times_.empty())
    throw InputError("CommMatrix: time matrix must be square and non-empty");
  times_.for_each([](std::size_t r, std::size_t c, double& t) {
    if (t < 0.0) throw InputError("CommMatrix: negative event time");
    if (r == c && t != 0.0)
      throw InputError("CommMatrix: diagonal must be zero");
  });
}

namespace {

Matrix<double> build_times(const NetworkModel& network,
                           const MessageMatrix& messages) {
  if (messages.rows() != network.processor_count() ||
      messages.cols() != network.processor_count())
    throw InputError("CommMatrix: message matrix does not match network size");
  return network.cost_matrix(messages);
}

}  // namespace

CommMatrix::CommMatrix(const NetworkModel& network, const MessageMatrix& messages)
    : CommMatrix(build_times(network, messages)) {}

double CommMatrix::lower_bound() const {
  const std::vector<double> recv = recv_totals();
  double bound = 0.0;
  for (std::size_t p = 0; p < processor_count(); ++p)
    bound = std::max({bound, send_total(p), recv[p]});
  return bound;
}

}  // namespace hcs
