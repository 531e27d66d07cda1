#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {

namespace detail {

size_t CheckedElementCount(const std::vector<size_t>& shape) {
  if (shape.empty()) return 0;
  size_t n = 1;
  for (size_t d : shape) {
    if (d == 0) return 0;
    TASFAR_CHECK_MSG(n <= SIZE_MAX / d,
                     "shape element count overflows size_t");
    n *= d;
  }
  return n;
}

}  // namespace detail

namespace {

/// Chaos injection: corrupt one element of a MatMul product, as a bad
/// SIMD kernel or flaky hardware would. Downstream guards must catch it.
void MaybePoisonMatMul(Tensor& out) {
  if (TASFAR_FAILPOINT("tensor.matmul.poison") && out.size() > 0) {
    out[0] = std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace

// --- Construction, sharing, copy-on-write -----------------------------------

Tensor::Tensor(std::vector<size_t> shape)
    : size_(detail::CheckedElementCount(shape)), shape_(std::move(shape)) {
  if (size_ > 0) {
    buf_ = std::make_shared<detail::TensorBuffer>(size_);
    buf_->AddTensorRef();
  }
}

Tensor::Tensor(std::vector<size_t> shape, std::vector<double> data)
    : size_(detail::CheckedElementCount(shape)), shape_(std::move(shape)) {
  TASFAR_CHECK_MSG(data.size() == size_,
                   "data size must match shape element count");
  if (size_ > 0) {
    buf_ = std::make_shared<detail::TensorBuffer>(std::move(data));
    buf_->AddTensorRef();
  }
}

Tensor::Tensor(std::shared_ptr<detail::TensorBuffer> buf, size_t offset,
               std::vector<size_t> shape)
    : buf_(std::move(buf)),
      offset_(offset),
      size_(detail::CheckedElementCount(shape)),
      shape_(std::move(shape)) {
  if (size_ == 0) {
    buf_ = nullptr;
    offset_ = 0;
    return;
  }
  TASFAR_CHECK(buf_ != nullptr && offset_ + size_ <= buf_->capacity());
  buf_->AddTensorRef();
}

Tensor::Tensor(const Tensor& other)
    : buf_(other.buf_),
      offset_(other.offset_),
      size_(other.size_),
      shape_(other.shape_) {
  if (buf_ != nullptr) buf_->AddTensorRef();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (other.buf_ != nullptr) other.buf_->AddTensorRef();
  Release();
  buf_ = other.buf_;
  offset_ = other.offset_;
  size_ = other.size_;
  shape_ = other.shape_;
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : buf_(std::move(other.buf_)),
      offset_(other.offset_),
      size_(other.size_),
      shape_(std::move(other.shape_)) {
  other.buf_ = nullptr;
  other.offset_ = 0;
  other.size_ = 0;
  other.shape_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  Release();
  buf_ = std::move(other.buf_);
  offset_ = other.offset_;
  size_ = other.size_;
  shape_ = std::move(other.shape_);
  other.buf_ = nullptr;
  other.offset_ = 0;
  other.size_ = 0;
  other.shape_.clear();
  return *this;
}

Tensor::~Tensor() { Release(); }

void Tensor::DetachSlow() {
  // Copy only the visible window; a row view of a large batch detaches onto
  // a buffer of exactly its own size.
  const double* src = buf_->data() + offset_;
  auto fresh = std::make_shared<detail::TensorBuffer>(
      std::vector<double>(src, src + size_));
  fresh->AddTensorRef();
  buf_->DropTensorRef();
  buf_ = std::move(fresh);
  offset_ = 0;
}

// --- Factories ---------------------------------------------------------------

Tensor Tensor::Zeros(std::vector<size_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Ones(std::vector<size_t> shape) {
  return Full(std::move(shape), 1.0);
}

Tensor Tensor::Full(std::vector<size_t> shape, double value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(const std::vector<double>& values) {
  return Tensor({values.size()}, values);
}

Tensor Tensor::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Tensor({0, 0});
  const size_t cols = rows[0].size();
  std::vector<double> data;
  data.reserve(rows.size() * cols);
  for (const auto& row : rows) {
    TASFAR_CHECK_MSG(row.size() == cols, "ragged rows in FromRows");
    data.insert(data.end(), row.begin(), row.end());
  }
  return Tensor({rows.size(), cols}, std::move(data));
}

Tensor Tensor::RandomNormal(std::vector<size_t> shape, Rng* rng, double mean,
                            double stddev) {
  TASFAR_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  double* p = t.data();
  for (size_t i = 0; i < t.size(); ++i) p[i] = rng->Normal(mean, stddev);
  return t;
}

Tensor Tensor::RandomUniform(std::vector<size_t> shape, Rng* rng, double lo,
                             double hi) {
  TASFAR_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  double* p = t.data();
  for (size_t i = 0; i < t.size(); ++i) p[i] = rng->Uniform(lo, hi);
  return t;
}

// --- Shape and views ---------------------------------------------------------

Tensor Tensor::Reshape(std::vector<size_t> new_shape) const {
  TASFAR_CHECK_MSG(detail::CheckedElementCount(new_shape) == size_,
                   "Reshape must preserve element count");
  return Tensor(buf_, offset_, std::move(new_shape));
}

Tensor Tensor::Row(size_t r) const {
  TASFAR_CHECK(rank() == 2 && r < shape_[0]);
  const size_t c = shape_[1];
  return Tensor(buf_, offset_ + r * c, {c});
}

Tensor Tensor::SliceRows(size_t begin, size_t end) const {
  TASFAR_CHECK(rank() >= 1);
  TASFAR_CHECK(begin <= end && end <= shape_[0]);
  size_t row = 1;
  for (size_t i = 1; i < shape_.size(); ++i) row *= shape_[i];
  std::vector<size_t> s = shape_;
  s[0] = end - begin;
  return Tensor(buf_, offset_ + begin * row, std::move(s));
}

std::string Tensor::ShapeString() const {
  std::string out = "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%zu", shape_[i]);
    out += buf;
  }
  out += "]";
  return out;
}

// --- Elementwise arithmetic --------------------------------------------------

#define TASFAR_DEFINE_ELEMENTWISE(op)                                  \
  Tensor Tensor::operator op(const Tensor& other) const {              \
    TASFAR_CHECK_MSG(SameShape(other), "shape mismatch in elementwise" \
                                       " operator" #op);               \
    Tensor out(shape_);                                                \
    const double* a = data();                                          \
    const double* b = other.data();                                    \
    double* o = out.data();                                            \
    for (size_t i = 0; i < size_; ++i) o[i] = a[i] op b[i];            \
    return out;                                                        \
  }

TASFAR_DEFINE_ELEMENTWISE(+)
TASFAR_DEFINE_ELEMENTWISE(-)
TASFAR_DEFINE_ELEMENTWISE(*)
TASFAR_DEFINE_ELEMENTWISE(/)
#undef TASFAR_DEFINE_ELEMENTWISE

Tensor& Tensor::operator+=(const Tensor& other) {
  TASFAR_CHECK(SameShape(other));
  const double* b = other.data();
  double* p = data();
  for (size_t i = 0; i < size_; ++i) p[i] += b[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  TASFAR_CHECK(SameShape(other));
  const double* b = other.data();
  double* p = data();
  for (size_t i = 0; i < size_; ++i) p[i] -= b[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& other) {
  TASFAR_CHECK(SameShape(other));
  const double* b = other.data();
  double* p = data();
  for (size_t i = 0; i < size_; ++i) p[i] *= b[i];
  return *this;
}

Tensor Tensor::operator+(double s) const {
  Tensor out(shape_);
  const double* a = data();
  double* o = out.data();
  for (size_t i = 0; i < size_; ++i) o[i] = a[i] + s;
  return out;
}

Tensor Tensor::operator-(double s) const { return *this + (-s); }

Tensor Tensor::operator*(double s) const {
  Tensor out(shape_);
  const double* a = data();
  double* o = out.data();
  for (size_t i = 0; i < size_; ++i) o[i] = a[i] * s;
  return out;
}

Tensor Tensor::operator/(double s) const {
  TASFAR_CHECK(s != 0.0);
  return *this * (1.0 / s);
}

Tensor& Tensor::operator*=(double s) {
  double* p = data();
  for (size_t i = 0; i < size_; ++i) p[i] *= s;
  return *this;
}

Tensor& Tensor::operator+=(double s) {
  double* p = data();
  for (size_t i = 0; i < size_; ++i) p[i] += s;
  return *this;
}

Tensor Tensor::operator-() const { return *this * -1.0; }

Tensor Tensor::Map(const std::function<double(double)>& fn) const {
  Tensor out(shape_);
  ApplyInto(*this, fn, &out);
  return out;
}

void Tensor::MapInPlace(const std::function<double(double)>& fn) {
  double* p = data();
  for (size_t i = 0; i < size_; ++i) p[i] = fn(p[i]);
}

void Tensor::Fill(double value) {
  double* p = data();
  std::fill(p, p + size_, value);
}

// --- Linear algebra ----------------------------------------------------------

namespace {

// Cache-block sizes of the MatMul kernel: a kBlockK × kBlockN panel of B
// (64 × 128 doubles = 64 KiB) stays L1/L2-resident while every row of the
// A block streams through it. Accumulation order over p is globally
// ascending for each output element regardless of the blocking (the p0
// loop is outside the j0 loop), which keeps results bit-identical to the
// unblocked i-k-j kernel and invariant under row sharding.
constexpr size_t kMatMulBlockK = 64;
constexpr size_t kMatMulBlockN = 128;

// Accumulates a (m×k) · b (k×n) into c, which must hold zeros (or a prior
// partial sum being extended — the kernel only ever adds).
void MatMulAccumulate(const double* a_data, const double* b_data,
                      double* c_data, size_t m, size_t k, size_t n) {
  // Cache-blocked i-k-j kernel for the rows [i0, i1): the inner loop is
  // contiguous in both B and C; the a == 0 skip keeps post-ReLU sparsity
  // cheap. Each output row is written by exactly one ParallelFor chunk,
  // so row sharding is race-free and deterministic (see docs/THREADING.md).
  auto row_block = [&](size_t i0, size_t i1) {
    for (size_t p0 = 0; p0 < k; p0 += kMatMulBlockK) {
      const size_t p1 = std::min(p0 + kMatMulBlockK, k);
      for (size_t j0 = 0; j0 < n; j0 += kMatMulBlockN) {
        const size_t j1 = std::min(j0 + kMatMulBlockN, n);
        for (size_t i = i0; i < i1; ++i) {
          const double* a_row = a_data + i * k;
          double* c_row = c_data + i * n;
          for (size_t p = p0; p < p1; ++p) {
            const double a = a_row[p];
            if (a == 0.0) continue;
            const double* b_row = b_data + p * n;
            for (size_t j = j0; j < j1; ++j) c_row[j] += a * b_row[j];
          }
        }
      }
    }
  };
  if (m < 2 || m * k * n < kParallelMinMadds) {
    row_block(0, m);
    return;
  }
  // Shard over row blocks (not single rows) so each task reuses a
  // B panel across all its rows; ~4 blocks per thread for balance.
  const size_t num_shards = GetNumThreads() * 4;
  const size_t rows_per_shard =
      std::max<size_t>(4, (m + num_shards - 1) / num_shards);
  const size_t shards = (m + rows_per_shard - 1) / rows_per_shard;
  ParallelFor(0, shards, /*grain=*/1, [&](size_t s) {
    const size_t i0 = s * rows_per_shard;
    row_block(i0, std::min(i0 + rows_per_shard, m));
  });
}

}  // namespace

Tensor Tensor::MatMul(const Tensor& other) const {
  TASFAR_CHECK_MSG(rank() == 2 && other.rank() == 2,
                   "MatMul requires rank-2 operands");
  TASFAR_CHECK_MSG(shape_[1] == other.shape_[0],
                   "MatMul inner dimensions must agree");
  const size_t m = shape_[0], k = shape_[1], n = other.shape_[1];
  Tensor out({m, n});
  MatMulAccumulate(data(), other.data(), out.data(), m, k, n);
  MaybePoisonMatMul(out);
  return out;
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  TASFAR_CHECK(out != nullptr && out != &a && out != &b);
  TASFAR_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                   "MatMul requires rank-2 operands");
  TASFAR_CHECK_MSG(a.dim(1) == b.dim(0), "MatMul inner dimensions must agree");
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  TASFAR_CHECK(out->rank() == 2 && out->dim(0) == m && out->dim(1) == n);
  out->Fill(0.0);
  MatMulAccumulate(a.data(), b.data(), out->data(), m, k, n);
  MaybePoisonMatMul(*out);
}

Tensor Tensor::Transposed() const {
  TASFAR_CHECK(rank() == 2);
  Tensor out({shape_[1], shape_[0]});
  TransposedInto(*this, &out);
  return out;
}

void TransposedInto(const Tensor& a, Tensor* out) {
  TASFAR_CHECK(out != nullptr && out != &a);
  TASFAR_CHECK(a.rank() == 2);
  const size_t r = a.dim(0), c = a.dim(1);
  TASFAR_CHECK(out->rank() == 2 && out->dim(0) == c && out->dim(1) == r);
  const double* src = a.data();
  double* dst = out->data();
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) dst[j * r + i] = src[i * c + j];
  }
}

Tensor Tensor::AddRowBroadcast(const Tensor& row) const {
  Tensor out(shape_);
  AddRowBroadcastInto(*this, row, &out);
  return out;
}

void AddRowBroadcastInto(const Tensor& m, const Tensor& row, Tensor* out) {
  TASFAR_CHECK(out != nullptr);
  TASFAR_CHECK(m.rank() == 2 && row.rank() == 1 && row.dim(0) == m.dim(1));
  TASFAR_CHECK(out->SameShape(m));
  const size_t r = m.dim(0), c = m.dim(1);
  const double* src = m.data();
  const double* bias = row.data();
  double* dst = out->data();
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) dst[i * c + j] = src[i * c + j] + bias[j];
  }
}

void Tensor::SetRow(size_t r, const Tensor& row) {
  TASFAR_CHECK(rank() == 2 && r < shape_[0]);
  TASFAR_CHECK(row.rank() == 1 && row.shape_[0] == shape_[1]);
  const double* src = row.data();
  std::copy(src, src + shape_[1], data() + r * shape_[1]);
}

Tensor Tensor::StackRows(const std::vector<Tensor>& rows) {
  TASFAR_CHECK(!rows.empty());
  const size_t c = rows[0].size();
  Tensor out({rows.size(), c});
  double* dst = out.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    TASFAR_CHECK(rows[i].rank() == 1 && rows[i].size() == c);
    const double* src = rows[i].data();
    std::copy(src, src + c, dst + i * c);
  }
  return out;
}

Tensor Tensor::GatherRows(const std::vector<size_t>& indices) const {
  TASFAR_CHECK(rank() == 2);
  Tensor out({indices.size(), shape_[1]});
  GatherRowsInto(*this, indices, &out);
  return out;
}

void GatherRowsInto(const Tensor& src, const std::vector<size_t>& indices,
                    Tensor* out) {
  TASFAR_CHECK(out != nullptr && out != &src);
  TASFAR_CHECK(src.rank() == 2);
  const size_t c = src.dim(1);
  TASFAR_CHECK(out->rank() == 2 && out->dim(0) == indices.size() &&
               out->dim(1) == c);
  const double* s = src.data();
  double* d = out->data();
  for (size_t i = 0; i < indices.size(); ++i) {
    TASFAR_CHECK(indices[i] < src.dim(0));
    std::copy(s + indices[i] * c, s + (indices[i] + 1) * c, d + i * c);
  }
}

// --- Out-parameter elementwise kernels ---------------------------------------

void CopyInto(const Tensor& src, Tensor* out) {
  TASFAR_CHECK(out != nullptr);
  if (out == &src) return;
  TASFAR_CHECK(out->SameShape(src));
  const double* s = src.data();
  double* d = out->data();
  std::copy(s, s + src.size(), d);
}

void AddInto(const Tensor& a, const Tensor& b, Tensor* out) {
  TASFAR_CHECK(out != nullptr);
  TASFAR_CHECK(a.SameShape(b) && out->SameShape(a));
  const double* pa = a.data();
  const double* pb = b.data();
  double* o = out->data();
  for (size_t i = 0; i < a.size(); ++i) o[i] = pa[i] + pb[i];
}

void MulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  TASFAR_CHECK(out != nullptr);
  TASFAR_CHECK(a.SameShape(b) && out->SameShape(a));
  const double* pa = a.data();
  const double* pb = b.data();
  double* o = out->data();
  for (size_t i = 0; i < a.size(); ++i) o[i] = pa[i] * pb[i];
}

void ApplyInto(const Tensor& in, const std::function<double(double)>& fn,
               Tensor* out) {
  TASFAR_CHECK(out != nullptr);
  TASFAR_CHECK(out->SameShape(in));
  const double* src = in.data();
  double* dst = out->data();
  for (size_t i = 0; i < in.size(); ++i) dst[i] = fn(src[i]);
}

// --- Reductions --------------------------------------------------------------

double Tensor::Sum() const {
  const double* p = data();
  double s = 0.0;
  for (size_t i = 0; i < size_; ++i) s += p[i];
  return s;
}

double Tensor::Mean() const {
  TASFAR_CHECK(size_ > 0);
  return Sum() / static_cast<double>(size_);
}

double Tensor::Min() const {
  TASFAR_CHECK(size_ > 0);
  const double* p = data();
  return *std::min_element(p, p + size_);
}

double Tensor::Max() const {
  TASFAR_CHECK(size_ > 0);
  const double* p = data();
  return *std::max_element(p, p + size_);
}

double Tensor::SquaredNorm() const {
  const double* p = data();
  double s = 0.0;
  for (size_t i = 0; i < size_; ++i) s += p[i] * p[i];
  return s;
}

Tensor Tensor::ColMean() const {
  TASFAR_CHECK(rank() == 2 && shape_[0] > 0);
  const size_t r = shape_[0], c = shape_[1];
  Tensor out({c});
  const double* src = data();
  double* o = out.data();
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) o[j] += src[i * c + j];
  }
  for (size_t j = 0; j < c; ++j) o[j] /= static_cast<double>(r);
  return out;
}

Tensor Tensor::ColStd() const {
  TASFAR_CHECK(rank() == 2 && shape_[0] > 0);
  const size_t r = shape_[0], c = shape_[1];
  const Tensor mean = ColMean();
  Tensor out({c});
  const double* src = data();
  const double* m = mean.data();
  double* o = out.data();
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) {
      const double d = src[i * c + j] - m[j];
      o[j] += d * d;
    }
  }
  for (size_t j = 0; j < c; ++j) {
    o[j] = std::sqrt(o[j] / static_cast<double>(r));
  }
  return out;
}

bool Tensor::AllFinite() const {
  const double* p = data();
  for (size_t i = 0; i < size_; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

double Tensor::MaxAbsDiff(const Tensor& other) const {
  TASFAR_CHECK(SameShape(other));
  const double* a = data();
  const double* b = other.data();
  double m = 0.0;
  for (size_t i = 0; i < size_; ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

Tensor operator*(double s, const Tensor& t) { return t * s; }

}  // namespace tasfar
