// Dense row-major matrix used for communication matrices, message-size
// matrices, and network-parameter tables.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace hcs {

/// Dense row-major matrix with bounds-checked access.
///
/// The library's matrices are small (P <= a few hundred), so safety is
/// preferred over raw speed: operator() checks indices in all build types.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, value-initialized.
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construction from nested initializer lists; all rows must have equal
  /// length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      if (row.size() != cols_) throw InputError("Matrix: ragged initializer");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    check(r < rows_ && c < cols_, "Matrix: index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    check(r < rows_ && c < cols_, "Matrix: index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked element access for validated inner loops (LAP scans, bulk
  /// copies) where the bounds check defeats vectorization. Callers must
  /// have established r < rows() && c < cols(); checked operator() stays
  /// the default everywhere else.
  [[nodiscard]] T& unchecked(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& unchecked(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    check(r < rows_, "Matrix: row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  /// Sum of row r.
  [[nodiscard]] T row_sum(std::size_t r) const {
    T total{};
    for (const T& value : row(r)) total += value;
    return total;
  }

  /// Sum of column c.
  [[nodiscard]] T col_sum(std::size_t c) const {
    check(c < cols_, "Matrix: column out of range");
    T total{};
    for (std::size_t r = 0; r < rows_; ++r) total += data_[r * cols_ + c];
    return total;
  }

  /// Every column's sum from one row-major pass; each column adds its
  /// rows in ascending order, so entry c equals col_sum(c) bit for bit.
  [[nodiscard]] std::vector<T> col_sums() const {
    std::vector<T> totals(cols_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      const T* values = data_.data() + r * cols_;
      for (std::size_t c = 0; c < cols_; ++c) totals[c] += values[c];
    }
    return totals;
  }

  /// Applies `fn(r, c, value&)` to every element, row-major.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) fn(r, c, data_[r * cols_ + c]);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) fn(r, c, data_[r * cols_ + c]);
  }

  /// Element-wise transform into a new matrix of possibly different type.
  template <typename Fn>
  [[nodiscard]] auto map(Fn&& fn) const {
    using U = std::invoke_result_t<Fn, T>;
    Matrix<U> out(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c)
        out(r, c) = fn(data_[r * cols_ + c]);
    return out;
  }

  [[nodiscard]] Matrix transposed() const {
    Matrix out(cols_, rows_);
    for_each([&](std::size_t r, std::size_t c, const T& v) { out(c, r) = v; });
    return out;
  }

  [[nodiscard]] bool operator==(const Matrix& other) const = default;

  /// Underlying storage; row-major, rows()*cols() elements.
  [[nodiscard]] std::span<const T> data() const noexcept { return data_; }

  /// Writable view of the underlying storage, for bulk fills (wire
  /// decode, kernel scatter) where per-element operator() would dominate.
  [[nodiscard]] std::span<T> mutable_data() noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace hcs
