#include "tensor/tensor.h"

#include <atomic>
#include <cmath>
#include <sstream>

#include "runtime/rng.h"

namespace fxcpp {

namespace {
// Allocator counters. Relaxed ordering suffices: readers want a consistent
// snapshot of totals, not ordering against tensor contents.
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};
std::atomic<std::int64_t> g_total_bytes{0};
std::atomic<std::int64_t> g_alloc_count{0};
// Fault-injection ceiling; see Storage::set_alloc_limit. Thread-local keeps
// an injected limit scoped to the worker running the targeted node.
thread_local std::int64_t t_alloc_limit = 0;
// Single-shot placement hint; see Storage::arm_placement. Thread-local so
// concurrent planned runs each aim their own instruction's arena slot.
thread_local std::byte* t_place_ptr = nullptr;
thread_local std::size_t t_place_nbytes = 0;
std::atomic<std::int64_t> g_served_bytes{0};
std::atomic<std::int64_t> g_served_count{0};
}  // namespace

Storage::Storage(std::size_t nbytes) : nbytes_(nbytes) {
  // Round up so vectorized kernels may read a full lane at the tail.
  const std::size_t padded = (nbytes + 63) / 64 * 64;
  alloc_bytes_ = padded == 0 ? 64 : padded;
  if (t_place_ptr != nullptr && t_place_nbytes == nbytes) {
    // Adopt the planner's arena slot: no heap traffic, no counter churn
    // (the arena's backing Storage was counted when it was created).
    // Single-shot — the hint serves exactly one allocation.
    std::byte* slot = t_place_ptr;
    t_place_ptr = nullptr;
    t_place_nbytes = 0;
    data_ = std::unique_ptr<std::byte[], AlignedDelete>(slot,
                                                        AlignedDelete{false});
    g_served_bytes.fetch_add(static_cast<std::int64_t>(alloc_bytes_),
                             std::memory_order_relaxed);
    g_served_count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (t_alloc_limit > 0 &&
      g_live_bytes.load(std::memory_order_relaxed) +
              static_cast<std::int64_t>(alloc_bytes_) >
          t_alloc_limit) {
    // Disarm before throwing: unwinding may allocate (string building,
    // cleanup copies) and must not re-trip the ceiling.
    const std::int64_t limit = t_alloc_limit;
    t_alloc_limit = 0;
    throw AllocLimitError(
        "allocation of " + std::to_string(alloc_bytes_) +
        " bytes would exceed the armed ceiling of " + std::to_string(limit) +
        " live bytes (" +
        std::to_string(g_live_bytes.load(std::memory_order_relaxed)) +
        " currently live)");
  }
  data_.reset(static_cast<std::byte*>(
      ::operator new[](alloc_bytes_, std::align_val_t{64})));
  const auto sz = static_cast<std::int64_t>(alloc_bytes_);
  g_total_bytes.fetch_add(sz, std::memory_order_relaxed);
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t live =
      g_live_bytes.fetch_add(sz, std::memory_order_relaxed) + sz;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

Storage::Storage(std::byte* external, std::size_t nbytes)
    : data_(external, AlignedDelete{false}), nbytes_(nbytes) {
  const std::size_t padded = (nbytes + 63) / 64 * 64;
  alloc_bytes_ = padded == 0 ? 64 : padded;
}

Storage::~Storage() {
  if (!data_.get_deleter().owned) return;  // arena slot: arena owns the bytes
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(alloc_bytes_),
                         std::memory_order_relaxed);
}

std::int64_t Storage::live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}
std::int64_t Storage::peak_bytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}
std::int64_t Storage::total_allocated_bytes() {
  return g_total_bytes.load(std::memory_order_relaxed);
}
std::int64_t Storage::allocation_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
void Storage::reset_peak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}
void Storage::set_alloc_limit(std::int64_t max_live_bytes) {
  t_alloc_limit = max_live_bytes > 0 ? max_live_bytes : 0;
}
std::int64_t Storage::alloc_limit() { return t_alloc_limit; }

void Storage::arm_placement(std::byte* slot, std::size_t nbytes) {
  t_place_ptr = slot;
  t_place_nbytes = nbytes;
}
void Storage::disarm_placement() {
  t_place_ptr = nullptr;
  t_place_nbytes = 0;
}
bool Storage::placement_armed() { return t_place_ptr != nullptr; }
std::int64_t Storage::planner_served_bytes() {
  return g_served_bytes.load(std::memory_order_relaxed);
}
std::int64_t Storage::planner_served_count() {
  return g_served_count.load(std::memory_order_relaxed);
}

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype) {
  strides_ = contiguous_strides(shape_);
  storage_ = std::make_shared<Storage>(
      static_cast<std::size_t>(numel()) * dtype_size(dtype_));
}

std::int64_t Tensor::size(int dim) const {
  const auto n = static_cast<int>(shape_.size());
  if (dim < 0) dim += n;
  if (dim < 0 || dim >= n) throw std::out_of_range("Tensor::size: bad dim");
  return shape_[static_cast<std::size_t>(dim)];
}

bool Tensor::is_contiguous() const {
  return strides_ == contiguous_strides(shape_);
}

const QParams& Tensor::qparams() const {
  if (!qparams_) throw std::logic_error("Tensor is not quantized");
  return *qparams_;
}

void Tensor::set_qparams(QParams q) {
  if (dtype_ != DType::Int8 && dtype_ != DType::UInt8) {
    throw std::logic_error("qparams only valid on int8/uint8 tensors");
  }
  qparams_ = std::make_shared<QParams>(q);
}

void Tensor::check_dtype(DType want) const {
  if (!defined()) throw std::logic_error("accessing undefined Tensor");
  if (dtype_ != want) {
    throw std::logic_error(std::string("dtype mismatch: tensor is ") +
                           dtype_name(dtype_) + ", requested " +
                           dtype_name(want));
  }
}

namespace {
template <typename T>
double load_as_double(const std::byte* base, std::int64_t idx) {
  return static_cast<double>(reinterpret_cast<const T*>(base)[idx]);
}
template <typename T>
void store_from_double(std::byte* base, std::int64_t idx, double v) {
  reinterpret_cast<T*>(base)[idx] = static_cast<T>(v);
}
}  // namespace

double Tensor::at_flat(std::int64_t i) const {
  if (!defined()) throw std::logic_error("at_flat on undefined Tensor");
  // Translate flat contiguous index through strides (views supported).
  std::int64_t rem = i;
  std::int64_t off = offset_;
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    const std::int64_t inner = shape_numel(
        Shape(shape_.begin() + static_cast<std::ptrdiff_t>(d) + 1, shape_.end()));
    const std::int64_t coord = inner == 0 ? 0 : rem / inner;
    rem -= coord * inner;
    off += coord * strides_[d];
  }
  const std::byte* base = storage_->data();
  switch (dtype_) {
    case DType::Float32: return load_as_double<float>(base, off);
    case DType::Float64: return load_as_double<double>(base, off);
    case DType::Int64: return load_as_double<std::int64_t>(base, off);
    case DType::Int32: return load_as_double<std::int32_t>(base, off);
    case DType::Int8: return load_as_double<std::int8_t>(base, off);
    case DType::UInt8: return load_as_double<std::uint8_t>(base, off);
    case DType::Bool: return load_as_double<std::uint8_t>(base, off);
  }
  return 0.0;
}

void Tensor::set_flat(std::int64_t i, double v) {
  if (!is_contiguous()) throw std::logic_error("set_flat requires contiguous");
  storage_->bump_version();
  std::byte* base = storage_->data();
  const std::int64_t off = offset_ + i;
  switch (dtype_) {
    case DType::Float32: store_from_double<float>(base, off, v); break;
    case DType::Float64: store_from_double<double>(base, off, v); break;
    case DType::Int64: store_from_double<std::int64_t>(base, off, v); break;
    case DType::Int32: store_from_double<std::int32_t>(base, off, v); break;
    case DType::Int8: store_from_double<std::int8_t>(base, off, v); break;
    case DType::UInt8: store_from_double<std::uint8_t>(base, off, v); break;
    case DType::Bool: store_from_double<std::uint8_t>(base, off, v != 0.0); break;
  }
}

double Tensor::item() const {
  if (numel() != 1) throw std::logic_error("item() on tensor with numel != 1");
  return at_flat(0);
}

Tensor Tensor::reshape(Shape new_shape) const {
  std::int64_t known = 1;
  int infer = -1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (infer >= 0) throw std::invalid_argument("reshape: two inferred dims");
      infer = static_cast<int>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer >= 0) new_shape[static_cast<std::size_t>(infer)] = numel() / known;
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape: numel mismatch " + shape_str(shape_) +
                                " -> " + shape_str(new_shape));
  }
  Tensor t = is_contiguous() ? *this : contiguous();
  t.shape_ = std::move(new_shape);
  t.strides_ = contiguous_strides(t.shape_);
  return t;
}

Tensor Tensor::flatten(int start_dim) const {
  if (start_dim < 0) start_dim += static_cast<int>(shape_.size());
  Shape s(shape_.begin(), shape_.begin() + start_dim);
  std::int64_t rest = 1;
  for (std::size_t i = static_cast<std::size_t>(start_dim); i < shape_.size(); ++i)
    rest *= shape_[i];
  s.push_back(rest);
  return reshape(std::move(s));
}

Tensor Tensor::narrow(int dim, std::int64_t start, std::int64_t length) const {
  if (dim < 0) dim += static_cast<int>(shape_.size());
  if (dim < 0 || static_cast<std::size_t>(dim) >= shape_.size())
    throw std::out_of_range("narrow: bad dim");
  if (start < 0 || start + length > shape_[static_cast<std::size_t>(dim)])
    throw std::out_of_range("narrow: bad range");
  Tensor t = *this;
  t.offset_ += start * strides_[static_cast<std::size_t>(dim)];
  t.shape_[static_cast<std::size_t>(dim)] = length;
  return t;
}

Tensor Tensor::select(std::int64_t index) const {
  Tensor t = narrow(0, index, 1);
  t.shape_.erase(t.shape_.begin());
  t.strides_.erase(t.strides_.begin());
  return t;
}

Tensor Tensor::contiguous() const {
  if (is_contiguous()) return *this;
  Tensor out(shape_, dtype_);
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) out.set_flat(i, at_flat(i));
  if (qparams_) out.qparams_ = qparams_;
  return out;
}

Tensor Tensor::clone() const {
  Tensor src = contiguous();
  Tensor out(shape_, dtype_);
  std::memcpy(out.storage_->data(),
              src.storage_->data() + static_cast<std::size_t>(src.offset_) * dtype_size(dtype_),
              static_cast<std::size_t>(numel()) * dtype_size(dtype_));
  if (qparams_) out.qparams_ = std::make_shared<QParams>(*qparams_);
  return out;
}

Tensor Tensor::to(DType dt) const {
  if (dt == dtype_) return clone();
  Tensor out(shape_, dt);
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) out.set_flat(i, at_flat(i));
  return out;
}

Tensor& Tensor::fill_(double v) {
  const std::int64_t n = numel();
  if (!is_contiguous()) {
    for (std::int64_t i = 0; i < n; ++i) set_flat(i, v);
    return *this;
  }
  if (dtype_ == DType::Float32) {
    float* p = data<float>();
    const float f = static_cast<float>(v);
    for (std::int64_t i = 0; i < n; ++i) p[i] = f;
  } else {
    for (std::int64_t i = 0; i < n; ++i) set_flat(i, v);
  }
  return *this;
}

Tensor& Tensor::copy_(const Tensor& src) {
  if (src.sizes() != shape_) {
    throw std::invalid_argument("copy_: shape mismatch");
  }
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) set_flat(i, src.at_flat(i));
  return *this;
}

Tensor& Tensor::add_(const Tensor& other, double alpha) {
  if (other.sizes() != shape_ || dtype_ != DType::Float32 ||
      other.dtype() != DType::Float32) {
    throw std::invalid_argument("add_: shape/dtype mismatch");
  }
  float* p = data<float>();
  const Tensor oc = other.contiguous();
  const float* q = oc.data<float>();
  const float a = static_cast<float>(alpha);
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] += a * q[i];
  return *this;
}

Tensor& Tensor::mul_(double v) {
  if (dtype_ != DType::Float32) throw std::invalid_argument("mul_: fp32 only");
  float* p = data<float>();
  const float f = static_cast<float>(v);
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] *= f;
  return *this;
}

std::string Tensor::to_string(std::int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor(shape=" << shape_str(shape_) << ", dtype=" << dtype_name(dtype_);
  if (is_quantized()) {
    os << ", scale=" << qparams().scale << ", zp=" << qparams().zero_point;
  }
  os << ", data=[";
  const std::int64_t n = std::min<std::int64_t>(numel(), max_elems);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << at_flat(i);
  }
  if (numel() > n) os << ", ...";
  os << "])";
  return os.str();
}

Tensor Tensor::zeros(Shape shape, DType dt) {
  Tensor t(std::move(shape), dt);
  std::memset(t.storage_->data(), 0, t.storage_->nbytes());
  return t;
}

Tensor Tensor::ones(Shape shape, DType dt) { return full(std::move(shape), 1.0, dt); }

Tensor Tensor::full(Shape shape, double v, DType dt) {
  Tensor t(std::move(shape), dt);
  t.fill_(v);
  return t;
}

Tensor Tensor::randn(Shape shape) {
  Tensor t(std::move(shape), DType::Float32);
  float* p = t.data<float>();
  auto& rng = rt::Rng::global();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(rng.normal());
  return t;
}

Tensor Tensor::rand(Shape shape) {
  Tensor t(std::move(shape), DType::Float32);
  float* p = t.data<float>();
  auto& rng = rt::Rng::global();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(rng.uniform());
  return t;
}

Tensor Tensor::from_vector(const std::vector<float>& v, Shape shape) {
  if (static_cast<std::int64_t>(v.size()) != shape_numel(shape)) {
    throw std::invalid_argument("from_vector: size mismatch");
  }
  Tensor t(std::move(shape), DType::Float32);
  std::memcpy(t.data<float>(), v.data(), v.size() * sizeof(float));
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t(Shape{n}, DType::Int64);
  auto* p = t.data<std::int64_t>();
  for (std::int64_t i = 0; i < n; ++i) p[i] = i;
  return t;
}

Tensor Tensor::scalar(double v, DType dt) {
  Tensor t(Shape{}, dt);
  t.fill_(v);
  return t;
}

bool allclose(const Tensor& a, const Tensor& b, double rtol, double atol) {
  if (a.sizes() != b.sizes()) return false;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double x = a.at_flat(i), y = b.at_flat(i);
    if (std::abs(x - y) > atol + rtol * std::abs(y)) return false;
  }
  return true;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::abs(a.at_flat(i) - b.at_flat(i)));
  }
  return m;
}

}  // namespace fxcpp
