#ifndef TASFAR_TENSOR_TENSOR_H_
#define TASFAR_TENSOR_TENSOR_H_

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/buffer.h"
#include "util/check.h"

namespace tasfar {

class Rng;
class Workspace;

namespace detail {

/// Element count of a shape with overflow-checked products. A rank-0 shape
/// has zero elements (this library's convention for "empty"), matching the
/// default-constructed Tensor.
size_t CheckedElementCount(const std::vector<size_t>& shape);

}  // namespace detail

/// Dense row-major tensor of doubles with arbitrary rank.
///
/// This is the numeric substrate of the library: the nn/ layers, the
/// simulators, and the TASFAR core all operate on Tensor. Storage is a
/// shared, refcounted buffer (detail::TensorBuffer) plus an (offset, shape)
/// window: copies, `Reshape`, `Row` and `SliceRows` are zero-copy views of
/// the same block, and any mutation through a sharing tensor first detaches
/// it onto its own copy (copy-on-write), so value semantics are preserved
/// exactly — see docs/MEMORY.md for the ownership rules.
///
/// All views are contiguous (full-buffer reshapes and first-dimension row
/// ranges); `data()` therefore always points at `size()` consecutive
/// doubles, and kernels may stream it directly.
///
/// MatMul uses a cache-blocked kernel with a row-sharded parallel outer
/// loop on the global thread pool (util/thread_pool.h); its results are
/// bit-identical at every thread count. The other hot spot, convolution,
/// has its own sharded kernel in nn/conv_kernel.h. `MatMulInto` and the
/// other *Into kernels write into caller-provided tensors (typically drawn
/// from a per-thread Workspace) so steady-state hot loops allocate nothing.
///
/// The rank-2 case (matrix of shape {rows, cols}) is the workhorse; batch
/// image tensors use rank 4 ({batch, channels, height, width}) and batch
/// sequence tensors rank 3 ({batch, channels, time}).
class Tensor {
 public:
  /// An empty (rank-0, zero-element) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Zero-size dimensions are
  /// allowed (total element count may be 0).
  explicit Tensor(std::vector<size_t> shape);

  /// Tensor with the given shape and data; data.size() must equal the shape
  /// element count.
  Tensor(std::vector<size_t> shape, std::vector<double> data);

  /// Copies share the buffer; the first mutation through either side
  /// detaches it (copy-on-write).
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  // --- Factories -----------------------------------------------------------

  static Tensor Zeros(std::vector<size_t> shape);
  static Tensor Ones(std::vector<size_t> shape);
  static Tensor Full(std::vector<size_t> shape, double value);

  /// Rank-1 tensor from values.
  static Tensor FromVector(const std::vector<double>& values);

  /// Rank-2 tensor from nested rows; all rows must have equal length.
  /// An empty row list yields a {0, 0} tensor.
  static Tensor FromRows(const std::vector<std::vector<double>>& rows);

  /// i.i.d. N(mean, stddev) entries drawn from `rng`.
  static Tensor RandomNormal(std::vector<size_t> shape, Rng* rng,
                             double mean = 0.0, double stddev = 1.0);

  /// i.i.d. U[lo, hi) entries drawn from `rng`.
  static Tensor RandomUniform(std::vector<size_t> shape, Rng* rng, double lo,
                              double hi);

  // --- Shape ---------------------------------------------------------------

  const std::vector<size_t>& shape() const { return shape_; }
  size_t rank() const { return shape_.size(); }
  size_t size() const { return size_; }

  /// Dimension `axis`; requires axis < rank().
  size_t dim(size_t axis) const {
    TASFAR_CHECK(axis < shape_.size());
    return shape_[axis];
  }

  /// Returns a zero-copy view of the same data with a new shape of equal
  /// element count.
  Tensor Reshape(std::vector<size_t> new_shape) const;

  /// True when shapes match exactly.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// "[2, 3]"-style shape string for diagnostics.
  std::string ShapeString() const;

  // --- Aliasing ------------------------------------------------------------

  /// True when both tensors view the same underlying buffer (regardless of
  /// offset or shape). A freshly detached or freshly constructed tensor
  /// shares with nothing.
  bool SharesBufferWith(const Tensor& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  // --- Element access ------------------------------------------------------

  /// Mutable data pointer; detaches from any sharing tensors first.
  double* data() {
    EnsureUnique();
    return buf_ ? buf_->data() + offset_ : nullptr;
  }
  const double* data() const {
    return buf_ ? buf_->data() + offset_ : nullptr;
  }

  /// Flat accessors (row-major order).
  double& operator[](size_t i) {
    TASFAR_CHECK(i < size_);
    EnsureUnique();
    return buf_->data()[offset_ + i];
  }
  double operator[](size_t i) const {
    TASFAR_CHECK(i < size_);
    return buf_->data()[offset_ + i];
  }

  /// Rank-2 accessors.
  double& At(size_t r, size_t c) {
    TASFAR_CHECK(rank() == 2 && r < shape_[0] && c < shape_[1]);
    EnsureUnique();
    return buf_->data()[offset_ + r * shape_[1] + c];
  }
  double At(size_t r, size_t c) const {
    TASFAR_CHECK(rank() == 2 && r < shape_[0] && c < shape_[1]);
    return buf_->data()[offset_ + r * shape_[1] + c];
  }

  /// Rank-3 accessors ({batch, channels, time}).
  double& At(size_t b, size_t c, size_t t) {
    TASFAR_CHECK(rank() == 3 && b < shape_[0] && c < shape_[1] &&
                 t < shape_[2]);
    EnsureUnique();
    return buf_->data()[offset_ + (b * shape_[1] + c) * shape_[2] + t];
  }
  double At(size_t b, size_t c, size_t t) const {
    TASFAR_CHECK(rank() == 3 && b < shape_[0] && c < shape_[1] &&
                 t < shape_[2]);
    return buf_->data()[offset_ + (b * shape_[1] + c) * shape_[2] + t];
  }

  /// Rank-4 accessors ({batch, channels, height, width}).
  double& At(size_t b, size_t c, size_t h, size_t w) {
    TASFAR_CHECK(rank() == 4 && b < shape_[0] && c < shape_[1] &&
                 h < shape_[2] && w < shape_[3]);
    EnsureUnique();
    return buf_->data()[offset_ +
                        ((b * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  double At(size_t b, size_t c, size_t h, size_t w) const {
    TASFAR_CHECK(rank() == 4 && b < shape_[0] && c < shape_[1] &&
                 h < shape_[2] && w < shape_[3]);
    return buf_->data()[offset_ +
                        ((b * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  // --- Elementwise arithmetic ----------------------------------------------

  Tensor operator+(const Tensor& other) const;
  Tensor operator-(const Tensor& other) const;
  Tensor operator*(const Tensor& other) const;  ///< Hadamard product.
  Tensor operator/(const Tensor& other) const;

  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);

  Tensor operator+(double s) const;
  Tensor operator-(double s) const;
  Tensor operator*(double s) const;
  Tensor operator/(double s) const;
  Tensor& operator*=(double s);
  Tensor& operator+=(double s);

  Tensor operator-() const;

  /// Applies fn to each element, returning a new tensor.
  Tensor Map(const std::function<double(double)>& fn) const;

  /// Applies fn to each element in place.
  void MapInPlace(const std::function<double(double)>& fn);

  /// Fills every element with `value`.
  void Fill(double value);

  // --- Linear algebra (rank-2) ---------------------------------------------

  /// Matrix product; requires rank-2 operands with matching inner dim.
  /// Cache-blocked, and parallelized over row shards once the product is
  /// large enough to amortize dispatch; per-element accumulation order is
  /// fixed (ascending inner index), so the result is bit-identical for
  /// any thread count.
  Tensor MatMul(const Tensor& other) const;

  /// Transpose of a rank-2 tensor.
  Tensor Transposed() const;

  /// Adds a rank-1 bias (length = cols) to every row of a rank-2 tensor.
  Tensor AddRowBroadcast(const Tensor& row) const;

  /// Returns row `r` of a rank-2 tensor as a rank-1 zero-copy view.
  Tensor Row(size_t r) const;

  /// Returns rows [begin, end) of a rank >= 1 tensor as a zero-copy view
  /// sharing this tensor's buffer (first dimension becomes end - begin).
  Tensor SliceRows(size_t begin, size_t end) const;

  /// Copies rank-1 `row` (length = cols) into row `r`.
  void SetRow(size_t r, const Tensor& row);

  /// Stacks rank-1 tensors of equal length into a rank-2 tensor.
  static Tensor StackRows(const std::vector<Tensor>& rows);

  /// Gathers the given rows of a rank-2 tensor into a new rank-2 tensor.
  Tensor GatherRows(const std::vector<size_t>& indices) const;

  // --- Reductions ----------------------------------------------------------

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;

  /// Sum of squared elements.
  double SquaredNorm() const;

  /// Column means of a rank-2 tensor (rank-1 result of length cols).
  Tensor ColMean() const;

  /// Column population standard deviations of a rank-2 tensor.
  Tensor ColStd() const;

  /// True when all elements are finite.
  bool AllFinite() const;

  /// Maximum absolute elementwise difference; shapes must match.
  double MaxAbsDiff(const Tensor& other) const;

 private:
  friend class Workspace;

  /// View of `buf` at `offset` with the given shape; adds a tensor ref.
  /// The window [offset, offset + elements(shape)) must fit the buffer.
  Tensor(std::shared_ptr<detail::TensorBuffer> buf, size_t offset,
         std::vector<size_t> shape);

  /// Detaches onto a private copy of the visible window when the buffer is
  /// shared with any other tensor, so the caller may mutate in place.
  void EnsureUnique() {
    if (buf_ != nullptr && buf_->TensorRefs() > 1) DetachSlow();
  }
  void DetachSlow();

  /// Drops this tensor's reference on its buffer (leaves members stale;
  /// callers reassign or destruct immediately after).
  void Release() {
    if (buf_ != nullptr) buf_->DropTensorRef();
  }

  std::shared_ptr<detail::TensorBuffer> buf_;
  size_t offset_ = 0;
  size_t size_ = 0;
  std::vector<size_t> shape_;
};

/// Scalar * tensor.
Tensor operator*(double s, const Tensor& t);

// --- Out-parameter kernels --------------------------------------------------
//
// Each writes its result into `*out`, which must already have the result
// shape (typically a Workspace tensor); none of them allocate when `out` is
// unshared. If `out` shares a buffer with any other tensor it detaches
// first, so cross-object aliasing is always safe; passing the *same object*
// as both an input and `out` is allowed only where noted.

/// *out = src, elementwise. out == &src is a no-op.
void CopyInto(const Tensor& src, Tensor* out);

/// *out = a + b, elementwise. out may be &a or &b.
void AddInto(const Tensor& a, const Tensor& b, Tensor* out);

/// *out = a * b (Hadamard), elementwise. out may be &a or &b.
void MulInto(const Tensor& a, const Tensor& b, Tensor* out);

/// *out = fn(in), elementwise. out may be &in.
void ApplyInto(const Tensor& in, const std::function<double(double)>& fn,
               Tensor* out);

/// *out = m with rank-1 `row` added to every row. out may be &m.
void AddRowBroadcastInto(const Tensor& m, const Tensor& row, Tensor* out);

/// *out = a.MatMul(b), bit-identical to MatMul at any thread count.
/// out must not be &a or &b.
void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out);

/// *out = a.Transposed(). out must not be &a.
void TransposedInto(const Tensor& a, Tensor* out);

/// *out = src.GatherRows(indices); out shape {indices.size(), cols}.
/// out must not be &src.
void GatherRowsInto(const Tensor& src, const std::vector<size_t>& indices,
                    Tensor* out);

}  // namespace tasfar

#endif  // TASFAR_TENSOR_TENSOR_H_
