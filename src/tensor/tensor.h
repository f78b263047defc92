// A strided, reference-counted eager tensor — the substrate PyTorch provides
// for torch.fx. Supports the semantics the paper's Section 2.3 discussion
// hinges on: shared storage, views (slice/reshape of contiguous data), and
// in-place mutation, which is exactly what makes transform safety hard in
// eager IRs and what fx sidesteps by keeping state in Modules.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace fxcpp {

// Thrown by Storage when a thread-local allocation ceiling (armed via
// Storage::set_alloc_limit, used by the resilience fault injector) would be
// breached. Derives from bad_alloc so generic allocation-failure handling
// still applies, but carries a message naming the limit and request size.
class AllocLimitError : public std::bad_alloc {
 public:
  explicit AllocLimitError(std::string msg) : msg_(std::move(msg)) {}
  const char* what() const noexcept override { return msg_.c_str(); }

 private:
  std::string msg_;
};

// Shared, RAII-managed flat byte buffer (64-byte aligned for vectorization).
class Storage {
 public:
  explicit Storage(std::size_t nbytes);
  // Non-owning view over externally managed memory (an arena slot). The
  // caller guarantees `external` stays alive for the Storage's lifetime and
  // is 64-byte aligned. Does not touch the allocator counters — the arena's
  // own backing Storage was counted once when it was created.
  Storage(std::byte* external, std::size_t nbytes);
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  std::byte* data() { return data_.get(); }
  const std::byte* data() const { return data_.get(); }
  std::size_t nbytes() const { return nbytes_; }
  bool owns_memory() const { return data_.get_deleter().owned; }

  // Monotonic mutation counter. In-place tensor mutations bump it; caches
  // keyed on (storage identity, version) — e.g. the GEMM PackCache — use it
  // to detect that a weight changed underneath them.
  std::uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }
  void bump_version() { version_.fetch_add(1, std::memory_order_relaxed); }

  // --- process-wide allocator counters (thread-safe) --------------------
  // Sizes are the actual (64-byte-padded) allocations. The profiler reads
  // these around node execution to attribute allocator traffic; tests use
  // them to pin peak-memory behavior (e.g. Interpreter last-use freeing).
  static std::int64_t live_bytes();       // currently allocated
  static std::int64_t peak_bytes();       // high-water mark since reset_peak()
  static std::int64_t total_allocated_bytes();  // cumulative, never decreases
  static std::int64_t allocation_count();       // cumulative #allocations
  // Drop the high-water mark back to the current live set so a subsequent
  // run measures its own peak.
  static void reset_peak();

  // --- thread-local allocation ceiling (fault injection) ----------------
  // When armed (max_live_bytes > 0), the next allocation on *this thread*
  // that would push live_bytes() past the ceiling disarms the limit and
  // throws AllocLimitError — single-shot by design, so the failure cannot
  // cascade into unwinding/cleanup allocations. 0 disarms. Thread-local so
  // the resilience FaultInjector can target one executing node without
  // racing runs on other threads.
  static void set_alloc_limit(std::int64_t max_live_bytes);
  static std::int64_t alloc_limit();

  // --- thread-local placement hint (memory planner) ---------------------
  // Planned tape runs arm a single-shot hint naming the arena slot for
  // the instruction about to run. The next Storage(nbytes) constructed on
  // this thread with *exactly* the hinted logical size adopts the slot
  // (non-owning, no heap traffic) instead of allocating; any other size
  // passes through to the normal allocator. Exact-size matching keeps a
  // kernel's internal temporaries from stealing the slot in practice —
  // and if a same-sized temporary does take it, the kernel's real output
  // simply heap-allocates, which is slower but never wrong.
  static void arm_placement(std::byte* slot, std::size_t nbytes);
  static void disarm_placement();
  static bool placement_armed();

  // Cumulative count/bytes of allocations served from an armed placement
  // hint (i.e. heap traffic avoided by the planner).
  static std::int64_t planner_served_bytes();
  static std::int64_t planner_served_count();

 private:
  struct AlignedDelete {
    // No default member initializer: NSDMI parsing is deferred to the end of
    // the *enclosing* class, which would leave this deleter not-yet-default-
    // constructible right where data_ needs it to be.
    bool owned;
    constexpr AlignedDelete() : owned(true) {}
    constexpr explicit AlignedDelete(bool o) : owned(o) {}
    void operator()(std::byte* p) const {
      if (owned) ::operator delete[](p, std::align_val_t{64});
    }
  };
  std::unique_ptr<std::byte[], AlignedDelete> data_;
  std::size_t nbytes_ = 0;
  std::size_t alloc_bytes_ = 0;  // padded size actually allocated
  std::atomic<std::uint64_t> version_{0};
};

// Affine quantization parameters attached to Int8/UInt8 tensors
// (real = scale * (q - zero_point)), mirroring torch.quantize_per_tensor.
struct QParams {
  double scale = 1.0;
  std::int32_t zero_point = 0;
};

class Tensor {
 public:
  // Empty (undefined) tensor.
  Tensor() = default;

  // Uninitialized tensor of the given shape/dtype.
  explicit Tensor(Shape shape, DType dtype = DType::Float32);

  bool defined() const { return storage_ != nullptr; }
  DType dtype() const { return dtype_; }
  const Shape& sizes() const { return shape_; }
  const Strides& strides() const { return strides_; }
  std::int64_t size(int dim) const;
  std::int64_t dim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t numel() const { return shape_numel(shape_); }
  bool is_contiguous() const;

  // Quantization parameters; only meaningful for Int8/UInt8 tensors.
  bool is_quantized() const { return qparams_ != nullptr; }
  const QParams& qparams() const;
  void set_qparams(QParams q);

  // Raw typed element access. Checked against the tensor's dtype. The
  // mutable overload bumps the storage version: handing out a writable
  // pointer is the only way kernels mutate data, so this conservatively
  // invalidates (storage, version)-keyed caches like PackCache.
  template <typename T>
  T* data() {
    check_dtype(dtype_of<T>::value);
    storage_->bump_version();
    return reinterpret_cast<T*>(storage_->data()) + offset_;
  }
  template <typename T>
  const T* data() const {
    check_dtype(dtype_of<T>::value);
    return reinterpret_cast<const T*>(storage_->data()) + offset_;
  }

  // Value of a single-element tensor as double (any dtype).
  double item() const;

  // Element at a flat contiguous index, converted to double (any dtype).
  double at_flat(std::int64_t i) const;
  void set_flat(std::int64_t i, double v);

  // --- views ----------------------------------------------------------
  // These share storage with *this (PyTorch aliasing semantics).

  // Reinterpret shape; requires contiguity and matching numel. One dim may
  // be -1 (inferred).
  Tensor reshape(Shape new_shape) const;
  // Collapse dims [start_dim, end) into one.
  Tensor flatten(int start_dim = 0) const;
  // Narrow dimension `dim` to [start, start+length) — a true view.
  Tensor narrow(int dim, std::int64_t start, std::int64_t length) const;
  // select(): index along dim 0, removing it — a true view.
  Tensor select(std::int64_t index) const;

  // --- materializers ---------------------------------------------------
  Tensor contiguous() const;  // copy iff non-contiguous
  Tensor clone() const;       // always copies
  Tensor to(DType dt) const;  // dtype conversion (copies)

  // --- in-place --------------------------------------------------------
  Tensor& fill_(double v);
  Tensor& zero_() { return fill_(0.0); }
  Tensor& copy_(const Tensor& src);  // same shape, converts dtype
  Tensor& add_(const Tensor& other, double alpha = 1.0);  // this += alpha*other
  Tensor& mul_(double v);

  // Shares storage with `other`? (view detection, used in aliasing tests)
  bool shares_storage_with(const Tensor& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  // Identity of the underlying storage (0 for undefined tensors) and its
  // mutation version — the cache key for PackCache and friends.
  std::uintptr_t storage_id() const {
    return reinterpret_cast<std::uintptr_t>(storage_.get());
  }
  std::uint64_t storage_version() const {
    return storage_ ? storage_->version() : 0;
  }
  // Owners of the underlying storage, this tensor included; 0 when
  // undefined.
  long storage_use_count() const { return storage_.use_count(); }
  std::int64_t storage_offset() const { return offset_; }

  std::string to_string(std::int64_t max_elems = 16) const;

  // --- factories -------------------------------------------------------
  static Tensor zeros(Shape shape, DType dt = DType::Float32);
  static Tensor ones(Shape shape, DType dt = DType::Float32);
  static Tensor full(Shape shape, double v, DType dt = DType::Float32);
  // Standard normal / uniform [0,1) from the global deterministic RNG.
  static Tensor randn(Shape shape);
  static Tensor rand(Shape shape);
  static Tensor from_vector(const std::vector<float>& v, Shape shape);
  static Tensor arange(std::int64_t n);  // Int64 [0..n)
  static Tensor scalar(double v, DType dt = DType::Float32);

 private:
  void check_dtype(DType want) const;

  std::shared_ptr<Storage> storage_;
  std::int64_t offset_ = 0;  // in elements
  Shape shape_;
  Strides strides_;
  DType dtype_ = DType::Float32;
  std::shared_ptr<QParams> qparams_;
};

// True when shapes match and elements differ by at most atol + rtol*|b|.
bool allclose(const Tensor& a, const Tensor& b, double rtol = 1e-5,
              double atol = 1e-6);
// Largest absolute elementwise difference (shapes must match).
double max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace fxcpp
