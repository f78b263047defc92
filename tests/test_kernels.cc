// Micro-kernel layer: differential fuzzing of the packed fp32/int8 GEMMs
// against scalar/double references across every ISA tier this machine can
// run (forced through the dispatch layer), per-tier bit-determinism, fused
// epilogues (bias row/col, ReLU, int8 requantize), prepacked-A parity,
// PackCache panel caching/eviction, the ops::transpose fast path, the
// linear/conv+ReLU fusion pass (module and function forms plus its
// downstream guards), and a traced ResNet-18 engine-parity regression. All
// randomness is seeded. scripts/check.sh runs this binary under ASan and
// TSan, and ctest additionally re-runs it with FXCPP_KERNEL_ISA=scalar so
// the fallback tier stays green everywhere.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/interpreter.h"
#include "core/tracer.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "nn/layers.h"
#include "nn/models/resnet.h"
#include "passes/fuse_linear_relu.h"
#include "quant/quantize.h"
#include "runtime/rng.h"
#include "tensor/ops.h"
#include "tensor/pack_cache.h"

namespace fxcpp {
namespace {

using fx::RtValue;

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous();
  const Tensor bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) ==
         0;
}

// Every tier the dispatch layer will actually run on this machine (forcing
// a tier the CPU lacks clamps to a runnable one, which would re-test it).
std::vector<kernels::Isa> runnable_tiers() {
  std::vector<kernels::Isa> out;
  for (const kernels::Isa isa :
       {kernels::Isa::Scalar, kernels::Isa::Sse2, kernels::Isa::Avx2,
        kernels::Isa::Avx512, kernels::Isa::Neon}) {
    kernels::force_isa(isa);
    if (kernels::active_isa() == isa) out.push_back(isa);
  }
  kernels::force_isa(std::nullopt);
  return out;
}

struct ScopedIsa {
  explicit ScopedIsa(kernels::Isa isa) { kernels::force_isa(isa); }
  ~ScopedIsa() { kernels::force_isa(std::nullopt); }
};

std::vector<float> random_floats(std::size_t n, rt::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Double-precision y = x @ w^T (+ bias_col/bias_row) (+ relu) reference.
std::vector<float> ref_gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                               const std::vector<float>& x,
                               const std::vector<float>& w,
                               const float* bias_col, const float* bias_row,
                               bool relu) {
  std::vector<float> y(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(x[i * k + kk]) *
               static_cast<double>(w[j * k + kk]);
      }
      if (bias_col) acc += bias_col[j];
      if (bias_row) acc += bias_row[i];
      float v = static_cast<float>(acc);
      if (relu) v = v > 0.f ? v : 0.f;
      y[i * n + j] = v;
    }
  }
  return y;
}

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

TEST(KernelDispatch, ParseIsaStrings) {
  EXPECT_EQ(kernels::parse_isa("scalar"), kernels::Isa::Scalar);
  EXPECT_EQ(kernels::parse_isa("SSE2"), kernels::Isa::Sse2);
  EXPECT_EQ(kernels::parse_isa("avx2"), kernels::Isa::Avx2);
  EXPECT_EQ(kernels::parse_isa("AVX512"), kernels::Isa::Avx512);
  EXPECT_EQ(kernels::parse_isa("avx512f"), kernels::Isa::Avx512);
  EXPECT_EQ(kernels::parse_isa("neon"), kernels::Isa::Neon);
  EXPECT_FALSE(kernels::parse_isa("avx999").has_value());
  EXPECT_FALSE(kernels::parse_isa("").has_value());
}

TEST(KernelDispatch, ForceClampsToDetected) {
  {
    ScopedIsa pin(kernels::Isa::Scalar);
    EXPECT_EQ(kernels::active_isa(), kernels::Isa::Scalar);
  }
  // Forcing every candidate never yields a tier above detection.
  for (const kernels::Isa isa :
       {kernels::Isa::Sse2, kernels::Isa::Avx2, kernels::Isa::Avx512,
        kernels::Isa::Neon}) {
    ScopedIsa pin(isa);
    const kernels::Isa got = kernels::active_isa();
    if (kernels::detected_isa() == kernels::Isa::Neon) {
      EXPECT_TRUE(got == kernels::Isa::Neon || got == kernels::Isa::Scalar);
    } else {
      EXPECT_LE(static_cast<int>(got),
                static_cast<int>(kernels::detected_isa()));
      EXPECT_NE(got, kernels::Isa::Neon);
    }
  }
  // With no force, active is the env override (ctest re-runs this binary
  // with FXCPP_KERNEL_ISA=scalar) or the detected tier.
  if (const auto env = kernels::env_isa()) {
    EXPECT_EQ(kernels::active_isa(),
              *env == kernels::Isa::Scalar ? kernels::Isa::Scalar
                                           : kernels::active_isa());
  } else {
    EXPECT_EQ(kernels::active_isa(), kernels::detected_isa());
  }
}

TEST(KernelDispatch, IsaNamesRoundTrip) {
  for (const kernels::Isa isa :
       {kernels::Isa::Scalar, kernels::Isa::Sse2, kernels::Isa::Avx2,
        kernels::Isa::Avx512, kernels::Isa::Neon}) {
    EXPECT_EQ(kernels::parse_isa(kernels::isa_name(isa)), isa);
  }
}

// --------------------------------------------------------------------------
// fp32 GEMM: every runnable tier vs the double reference, all epilogues.
// --------------------------------------------------------------------------

TEST(SgemmFuzz, AllTiersAllEpiloguesMatchReference) {
  rt::Rng rng(7);
  const std::int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},   {6, 16, 8},
                                    {7, 17, 33}, {16, 32, 24}, {5, 33, 9},
                                    {33, 48, 17}, {2, 64, 40}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    const auto x = random_floats(static_cast<std::size_t>(m * k), rng);
    const auto w = random_floats(static_cast<std::size_t>(n * k), rng);
    const auto bc = random_floats(static_cast<std::size_t>(n), rng);
    const auto br = random_floats(static_cast<std::size_t>(m), rng);
    std::vector<float> pb(kernels::packed_b_f32_size(k, n));
    kernels::pack_b_f32_nt(w.data(), k, k, n, pb.data());
    struct Epi {
      const float* bias_col;
      const float* bias_row;
      bool relu;
    };
    const Epi epis[] = {{nullptr, nullptr, false},
                        {bc.data(), nullptr, false},
                        {nullptr, br.data(), false},
                        {nullptr, nullptr, true},
                        {bc.data(), nullptr, true}};
    for (const kernels::Isa isa : runnable_tiers()) {
      ScopedIsa pin(isa);
      for (const Epi& e : epis) {
        const auto ref =
            ref_gemm_nt(m, n, k, x, w, e.bias_col, e.bias_row, e.relu);
        std::vector<float> y1(ref.size()), y2(ref.size());
        kernels::sgemm(m, n, k, x.data(), k, pb.data(), y1.data(), n,
                       e.bias_col, e.bias_row, e.relu);
        kernels::sgemm(m, n, k, x.data(), k, pb.data(), y2.data(), n,
                       e.bias_col, e.bias_row, e.relu);
        // Bit-determinism at a fixed tier (the serving-parity contract).
        ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                                 y1.size() * sizeof(float)))
            << kernels::isa_name(isa);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          const float tol =
              1e-4f * std::max(1.0f, std::fabs(ref[i]));
          ASSERT_NEAR(y1[i], ref[i], tol)
              << kernels::isa_name(isa) << " m=" << m << " n=" << n
              << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(SgemmFuzz, PrepackedAIsBitEqualToOnTheFlyPacking) {
  rt::Rng rng(11);
  for (const kernels::Isa isa : runnable_tiers()) {
    ScopedIsa pin(isa);
    const std::int64_t m = 13, n = 21, k = 19;
    const auto x = random_floats(static_cast<std::size_t>(m * k), rng);
    const auto w = random_floats(static_cast<std::size_t>(n * k), rng);
    std::vector<float> pb(kernels::packed_b_f32_size(k, n));
    kernels::pack_b_f32_nt(w.data(), k, k, n, pb.data());
    const int mr = kernels::gemm_f32_mr();
    std::vector<float> pa(kernels::packed_a_f32_size(m, k, mr));
    kernels::pack_a_f32(x.data(), k, m, k, mr, pa.data());
    std::vector<float> y1(static_cast<std::size_t>(m * n));
    std::vector<float> y2(y1.size());
    kernels::sgemm(m, n, k, x.data(), k, pb.data(), y1.data(), n, nullptr,
                   nullptr, false);
    kernels::sgemm(m, n, k, x.data(), k, pb.data(), y2.data(), n, nullptr,
                   nullptr, false, pa.data());
    EXPECT_EQ(0,
              std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(float)))
        << kernels::isa_name(isa);
  }
}

// --------------------------------------------------------------------------
// int8 GEMM: integer-exact across tiers (requantize is shared scalar code).
// --------------------------------------------------------------------------

TEST(QgemmFuzz, AllTiersExactlyMatchScalar) {
  rt::Rng rng(13);
  const std::int64_t shapes[][3] = {
      {1, 1, 4}, {3, 5, 8}, {4, 16, 12}, {7, 17, 33}, {9, 40, 20}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    std::vector<std::int8_t> x(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> w(static_cast<std::size_t>(n * k));
    for (auto& v : x) v = static_cast<std::int8_t>(rng.randint(-128, 127));
    for (auto& v : w) v = static_cast<std::int8_t>(rng.randint(-128, 127));
    std::vector<std::int8_t> pb(kernels::packed_b_s8_size(k, n));
    kernels::pack_b_s8_nt(w.data(), k, k, n, pb.data());
    const std::int32_t zx = 3;
    std::vector<std::int32_t> corr(static_cast<std::size_t>(n));
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t cs = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) cs += w[j * k + kk];
      corr[static_cast<std::size_t>(j)] = (zx + 128) * cs;
    }
    std::vector<float> scale_col(static_cast<std::size_t>(n));
    for (auto& v : scale_col) v = static_cast<float>(rng.uniform(0.001, 0.02));
    const auto bias = random_floats(static_cast<std::size_t>(n), rng);
    kernels::QuantEpilogue ep;
    ep.corr_col = corr.data();
    ep.inv_out = 8.f;
    ep.out_zp = -5;
    // Per-tensor, per-channel, and bias variants.
    for (int variant = 0; variant < 3; ++variant) {
      ep.scale_col = variant >= 1 ? scale_col.data() : nullptr;
      ep.scale_all = 0.0125f;
      ep.bias_col = variant == 2 ? bias.data() : nullptr;
      std::vector<std::int8_t> ref;
      for (const kernels::Isa isa : runnable_tiers()) {
        ScopedIsa pin(isa);
        std::vector<std::int8_t> y(static_cast<std::size_t>(m * n));
        kernels::qgemm(m, n, k, x.data(), k, pb.data(), y.data(), n, ep);
        if (ref.empty()) {
          ref = y;
          // Scalar runs first: validate against a plain int32 loop.
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              std::int32_t acc = 0;
              for (std::int64_t kk = 0; kk < k; ++kk) {
                acc += (static_cast<std::int32_t>(x[i * k + kk]) + 128) *
                       static_cast<std::int32_t>(w[j * k + kk]);
              }
              acc -= corr[static_cast<std::size_t>(j)];
              const float sc = ep.scale_col
                                   ? ep.scale_col[j]
                                   : ep.scale_all;
              float real = sc * static_cast<float>(acc);
              if (ep.bias_col) real += ep.bias_col[j];
              long q = std::lrintf(real * ep.inv_out) + ep.out_zp;
              q = std::max(-128L, std::min(127L, q));
              ASSERT_EQ(static_cast<std::int8_t>(q), y[i * n + j])
                  << "scalar i=" << i << " j=" << j;
            }
          }
        } else {
          ASSERT_EQ(0, std::memcmp(ref.data(), y.data(), ref.size()))
              << kernels::isa_name(isa) << " m=" << m << " n=" << n
              << " k=" << k << " variant=" << variant;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Routed ops
// --------------------------------------------------------------------------

TEST(KernelOps, LinearReluBitEqualsReluOfLinear) {
  rt::Rng::global().reseed(23);
  for (const kernels::Isa isa : runnable_tiers()) {
    ScopedIsa pin(isa);
    const Tensor x = Tensor::randn({9, 33});
    const Tensor w = Tensor::randn({17, 33});
    const Tensor b = Tensor::randn({17});
    EXPECT_TRUE(bit_equal(ops::linear_relu(x, w, b),
                          ops::relu(ops::linear(x, w, b))))
        << kernels::isa_name(isa);
    EXPECT_TRUE(bit_equal(ops::linear_relu(x, w, Tensor()),
                          ops::relu(ops::linear(x, w, Tensor()))))
        << kernels::isa_name(isa);
    // Conv2d rides the same epilogue (bias per output row).
    const Tensor img = Tensor::randn({2, 3, 9, 7});
    const Tensor cw = Tensor::randn({5, 3, 3, 3});
    const Tensor cb = Tensor::randn({5});
    EXPECT_TRUE(bit_equal(ops::conv2d_relu(img, cw, cb, {2, 1}, {1, 0}),
                          ops::relu(ops::conv2d(img, cw, cb, {2, 1}, {1, 0}))))
        << kernels::isa_name(isa);
    EXPECT_TRUE(bit_equal(ops::conv2d_relu(img, cw, Tensor(), {1, 1}, {1, 1}),
                          ops::relu(ops::conv2d(img, cw, Tensor(), {1, 1},
                                                {1, 1}))))
        << kernels::isa_name(isa);
  }
}

// The per-image conv2d that the batch-wide GEMM replaced, kept here as the
// bit-equality reference: im2col one image into a [C*kh*kw, oh*ow] column
// matrix, pack it into B panels, one sgemm per image with the prepacked
// weight strips and the bias/ReLU row epilogue.
Tensor per_image_conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                        std::int64_t sh, std::int64_t sw, std::int64_t ph,
                        std::int64_t pw, bool relu) {
  const Tensor xc = x.contiguous();
  const std::int64_t n = xc.size(0), c = xc.size(1), h = xc.size(2),
                     wd = xc.size(3);
  const std::int64_t o = w.size(0), kh = w.size(2), kw = w.size(3);
  const std::int64_t oh = (h + 2 * ph - kh) / sh + 1;
  const std::int64_t ow = (wd + 2 * pw - kw) / sw + 1;
  const std::int64_t k = c * kh * kw, spatial = oh * ow;
  Tensor out(Shape{n, o, oh, ow}, DType::Float32);
  const Tensor bc = b.defined() ? b.contiguous() : Tensor();
  const float* bias = b.defined() ? bc.data<float>() : nullptr;
  const auto pa = PackCache::local().panel_a_f32(w, kernels::gemm_f32_mr());
  std::vector<float> col(static_cast<std::size_t>(k * spatial));
  std::vector<float> pb(kernels::packed_b_f32_size(k, spatial));
  for (std::int64_t img = 0; img < n; ++img) {
    const float* xin = xc.data<float>() + img * c * h * wd;
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          float* crow = col.data() + ((ci * kh + ky) * kw + kx) * spatial;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const std::int64_t iy = oy * sh - ph + ky;
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t ix = ox * sw - pw + kx;
              crow[oy * ow + ox] = (iy >= 0 && iy < h && ix >= 0 && ix < wd)
                                       ? xin[(ci * h + iy) * wd + ix]
                                       : 0.f;
            }
          }
        }
      }
    }
    kernels::pack_b_f32_nn(col.data(), spatial, k, spatial, pb.data());
    kernels::sgemm(o, spatial, k, nullptr, 0, pb.data(),
                   out.data<float>() + img * o * spatial, spatial, nullptr,
                   bias, relu, pa->data());
  }
  return out;
}

TEST(KernelOps, Conv2dBatchGemmBitEqualsPerImageGemm) {
  struct Case {
    std::int64_t n, c, h, w, o, kernel, stride, pad;
  };
  // Output sizes 2x2, 3x5, 16x16 and 32x32 at batch 1, 3 and 8. At the
  // 128 KiB column block these cover: pointwise panels inside one image and
  // spanning images, row runs clipped at both edges at stride 1 and 2, row
  // gathers across images with n*oh*ow not a multiple of 16 (3x3 s2 at
  // 3x5), a two-image block followed by a one-image block (3x3 over 7
  // channels at 16x16, batch 3), and several blocks per image (7x7 s2).
  const Case cases[] = {
      {8, 32, 2, 2, 24, 1, 1, 0},  {3, 16, 4, 4, 20, 1, 2, 0},
      {1, 16, 4, 4, 20, 1, 2, 0},  {3, 4, 6, 10, 7, 3, 2, 1},
      {1, 4, 3, 5, 7, 3, 1, 1},    {8, 5, 3, 5, 6, 3, 1, 1},
      {3, 7, 16, 16, 9, 3, 1, 1},  {1, 7, 16, 16, 9, 3, 1, 1},
      {8, 16, 16, 16, 12, 1, 1, 0}, {1, 6, 32, 32, 8, 3, 2, 1},
      {8, 8, 32, 32, 8, 1, 1, 0},  {1, 3, 64, 64, 8, 7, 2, 3},
      {3, 3, 64, 64, 5, 7, 2, 3},  {8, 4, 8, 8, 16, 3, 2, 1},
  };
  rt::Rng::global().reseed(31);
  for (const kernels::Isa isa : runnable_tiers()) {
    ScopedIsa pin(isa);
    for (const Case& t : cases) {
      // A width-narrowed view: conv2d must see through the strides.
      const Tensor wide = Tensor::randn({t.n, t.c, t.h, t.w + 3});
      const Tensor x = wide.narrow(3, 2, t.w);
      ASSERT_FALSE(x.is_contiguous());
      const Tensor w = Tensor::randn({t.o, t.c, t.kernel, t.kernel});
      const Tensor b = Tensor::randn({t.o});
      const std::vector<std::int64_t> st{t.stride, t.stride}, pd{t.pad, t.pad};
      for (const Tensor& bias : {b, Tensor()}) {
        const std::string what =
            std::string(kernels::isa_name(isa)) + " n=" + std::to_string(t.n) +
            " c=" + std::to_string(t.c) + " " + std::to_string(t.h) + "x" +
            std::to_string(t.w) + " k=" + std::to_string(t.kernel) +
            " s=" + std::to_string(t.stride) +
            (bias.defined() ? " bias" : " no-bias");
        EXPECT_TRUE(bit_equal(
            ops::conv2d(x, w, bias, st, pd),
            per_image_conv2d(x, w, bias, t.stride, t.stride, t.pad, t.pad,
                             /*relu=*/false)))
            << what;
        EXPECT_TRUE(bit_equal(
            ops::conv2d_relu(x, w, bias, st, pd),
            per_image_conv2d(x, w, bias, t.stride, t.stride, t.pad, t.pad,
                             /*relu=*/true)))
            << what;
      }
    }
  }
}

TEST(KernelOps, MatmulMatchesReference) {
  rt::Rng rng(29);
  const auto a = random_floats(7 * 19, rng);
  const auto b = random_floats(19 * 23, rng);
  Tensor ta({7, 19}, DType::Float32), tb({19, 23}, DType::Float32);
  std::memcpy(ta.data<float>(), a.data(), a.size() * sizeof(float));
  std::memcpy(tb.data<float>(), b.data(), b.size() * sizeof(float));
  const Tensor y = ops::matmul(ta, tb);
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 23; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < 19; ++kk) {
        acc += static_cast<double>(a[i * 19 + kk]) *
               static_cast<double>(b[kk * 23 + j]);
      }
      const float ref = static_cast<float>(acc);
      EXPECT_NEAR(y.data<float>()[i * 23 + j], ref,
                  1e-4f * std::max(1.0f, std::fabs(ref)));
    }
  }
  // Batched: 3-D lhs flattens over the leading dims.
  const Tensor a3 = Tensor::randn({2, 5, 19});
  const Tensor y3 = ops::matmul(a3, tb);
  EXPECT_EQ(y3.sizes(), (Shape{2, 5, 23}));
}

TEST(KernelOps, TransposeFastPathMatchesNaive) {
  rt::Rng::global().reseed(31);
  for (const auto& dims : {Shape{7, 13}, Shape{64, 64}, Shape{33, 65},
                           Shape{1, 17}, Shape{128, 3}}) {
    const Tensor x = Tensor::randn(dims);
    const Tensor t = ops::transpose(x, 0, 1);
    ASSERT_EQ(t.sizes(), (Shape{dims[1], dims[0]}));
    const Tensor tc = t.contiguous();
    for (std::int64_t i = 0; i < dims[0]; ++i) {
      for (std::int64_t j = 0; j < dims[1]; ++j) {
        ASSERT_EQ(x.data<float>()[i * dims[1] + j],
                  tc.data<float>()[j * dims[0] + i]);
      }
    }
    // Round trip restores the original bit pattern.
    EXPECT_TRUE(bit_equal(ops::transpose(t, 0, 1).contiguous(), x));
  }
  // Non-2-D and same-dim calls still route through the generic path.
  const Tensor x3 = Tensor::randn({2, 3, 4});
  EXPECT_EQ(ops::transpose(x3, 1, 2).sizes(), (Shape{2, 4, 3}));
}

// --------------------------------------------------------------------------
// PackCache panel entries
// --------------------------------------------------------------------------

TEST(PackCachePanels, HitsMissesAndSharing) {
  auto& cache = PackCache::local();
  cache.clear();
  const Tensor w = Tensor::randn({12, 20});
  const auto p1 = cache.panel_b_f32_nt(w);
  EXPECT_EQ(cache.stats().panel_misses, 1);
  const auto p2 = cache.panel_b_f32_nt(w);
  EXPECT_EQ(cache.stats().panel_hits, 1);
  EXPECT_EQ(p1.get(), p2.get());
  // Distinct kinds key separately even for the same tensor.
  const auto pa = cache.panel_a_f32(w, 6);
  EXPECT_EQ(cache.stats().panel_misses, 2);
  EXPECT_NE(static_cast<const void*>(p1->data()),
            static_cast<const void*>(pa->data()));
  EXPECT_EQ(cache.panel_size(), 2u);
  EXPECT_GT(cache.stats().panel_bytes, 0u);
  cache.clear();
}

TEST(PackCachePanels, MutationRepacks) {
  auto& cache = PackCache::local();
  cache.clear();
  Tensor w = Tensor::randn({8, 16});
  const auto p1 = cache.panel_b_f32_nt(w);
  w.data<float>()[0] += 1.f;  // mutable data() bumps the version
  const auto p2 = cache.panel_b_f32_nt(w);
  EXPECT_GE(cache.stats().panel_repacks, 1);
  EXPECT_NE((*p1)[0], (*p2)[0]);
  cache.clear();
}

TEST(PackCachePanels, EvictionKeepsSharedPtrAliveAndAdjustsBytes) {
  auto& cache = PackCache::local();
  cache.clear();
  cache.set_capacity(2);
  const Tensor w1 = Tensor::randn({4, 8});
  const Tensor w2 = Tensor::randn({4, 8});
  const Tensor w3 = Tensor::randn({4, 8});
  const auto p1 = cache.panel_b_f32_nt(w1);
  cache.panel_b_f32_nt(w2);
  cache.panel_b_f32_nt(w3);  // evicts w1's panel (FIFO)
  EXPECT_LE(cache.panel_size(), 2u);
  // The evicted panel's storage survives through the shared_ptr.
  EXPECT_EQ(p1->size(), kernels::packed_b_f32_size(8, 4));
  const std::size_t bytes_before = cache.stats().panel_bytes;
  cache.set_capacity(0);
  EXPECT_EQ(cache.panel_size(), 0u);
  EXPECT_LT(cache.stats().panel_bytes, bytes_before);
  cache.set_capacity(PackCache::kDefaultCapacity);
  cache.clear();
}

TEST(PackCachePanels, GlobalStatsAggregate) {
  auto& cache = PackCache::local();
  cache.clear();
  const auto before = PackCache::global_stats();
  const Tensor w = Tensor::randn({4, 8});
  cache.panel_b_f32_nt(w);
  cache.panel_b_f32_nt(w);
  const auto after = PackCache::global_stats();
  EXPECT_GE(after.panel_misses, before.panel_misses + 1);
  EXPECT_GE(after.panel_hits, before.panel_hits + 1);
  cache.clear();
}

// --------------------------------------------------------------------------
// Linear+ReLU fusion pass
// --------------------------------------------------------------------------

TEST(FuseLinearRelu, ModulePatternSwapsInLinearReLU) {
  rt::Rng::global().reseed(41);
  auto seq = std::make_shared<nn::Sequential>();
  auto lin = std::make_shared<nn::Linear>(12, 8);
  seq->append(lin);
  seq->append(std::make_shared<nn::ReLU>());
  seq->append(std::make_shared<nn::Linear>(8, 4));
  auto gm = fx::symbolic_trace(seq);
  const Tensor x = Tensor::randn({3, 12});
  const Tensor before = fx::rt_tensor(fx::Interpreter(*gm).run({RtValue(x)}));

  // The swap draws no initialization for the fused module.
  const double rng_next = rt::Rng(rt::Rng::global()).uniform(0.0, 1.0);
  EXPECT_EQ(passes::fuse_linear_relu(*gm), 1);
  EXPECT_EQ(rt::Rng::global().uniform(0.0, 1.0), rng_next);
  // The ReLU call is gone; the first Linear is now a LinearReLU module over
  // the Linear's own parameter tensors.
  int relu_calls = 0, linear_relu_mods = 0;
  for (const fx::Node* n : gm->graph().nodes()) {
    if (n->op() != fx::Opcode::CallModule) continue;
    const auto m = gm->resolve_module(n->target());
    if (dynamic_cast<const nn::ReLU*>(m.get())) ++relu_calls;
    if (const auto* lr = dynamic_cast<const nn::LinearReLU*>(m.get())) {
      ++linear_relu_mods;
      EXPECT_TRUE(
          lr->param("weight").shares_storage_with(lin->param("weight")));
      EXPECT_TRUE(lr->param("bias").shares_storage_with(lin->param("bias")));
      EXPECT_EQ(lr->in_features(), 12);
      EXPECT_EQ(lr->out_features(), 8);
    }
  }
  EXPECT_EQ(relu_calls, 0);
  EXPECT_EQ(linear_relu_mods, 1);

  const Tensor after = fx::rt_tensor(fx::Interpreter(*gm).run({RtValue(x)}));
  EXPECT_TRUE(bit_equal(before, after));
  const Tensor tape =
      std::get<Tensor>(gm->compiled_graph().run({RtValue(x)}).front());
  EXPECT_TRUE(bit_equal(before, tape));

  // Idempotent: LinearReLU itself never re-matches.
  EXPECT_EQ(passes::fuse_linear_relu(*gm), 0);

  // Conv2d -> ReLU swaps in a Conv2dReLU over the conv's own parameters.
  auto conv_seq = std::make_shared<nn::Sequential>();
  auto conv = std::make_shared<nn::Conv2d>(3, 4, 3, 1, 1);
  conv_seq->append(conv);
  conv_seq->append(std::make_shared<nn::ReLU>());
  auto cgm = fx::symbolic_trace(conv_seq);
  const Tensor img = Tensor::randn({2, 3, 6, 6});
  const Tensor cbefore =
      fx::rt_tensor(fx::Interpreter(*cgm).run({RtValue(img)}));
  EXPECT_EQ(passes::fuse_linear_relu(*cgm), 1);
  int conv_relu_mods = 0;
  relu_calls = 0;
  for (const fx::Node* n : cgm->graph().nodes()) {
    if (n->op() != fx::Opcode::CallModule) continue;
    const auto m = cgm->resolve_module(n->target());
    if (dynamic_cast<const nn::ReLU*>(m.get())) ++relu_calls;
    if (const auto* cr = dynamic_cast<const nn::Conv2dReLU*>(m.get())) {
      ++conv_relu_mods;
      EXPECT_TRUE(
          cr->param("weight").shares_storage_with(conv->param("weight")));
    }
  }
  EXPECT_EQ(relu_calls, 0);
  EXPECT_EQ(conv_relu_mods, 1);
  EXPECT_TRUE(bit_equal(
      cbefore, fx::rt_tensor(fx::Interpreter(*cgm).run({RtValue(img)}))));
  EXPECT_TRUE(bit_equal(cbefore, std::get<Tensor>(cgm->compiled_graph()
                                                      .run({RtValue(img)})
                                                      .front())));
  EXPECT_EQ(passes::fuse_linear_relu(*cgm), 0);
}

TEST(FuseLinearRelu, FunctionPatternRewritesTarget) {
  rt::Rng::global().reseed(43);
  const Tensor w = Tensor::randn({6, 10});
  const Tensor b = Tensor::randn({6});
  fx::Tracer tracer;
  auto gm = tracer.trace_function([&](const std::vector<fx::Value>& in) {
    return fx::fn::relu(fx::fn::linear(in.at(0), fx::Value(w), fx::Value(b)));
  });
  const Tensor x = Tensor::randn({4, 10});
  const Tensor before = fx::rt_tensor(fx::Interpreter(*gm).run({RtValue(x)}));

  EXPECT_EQ(passes::fuse_linear_relu(*gm), 1);
  int linear_relu_calls = 0, relu_calls = 0;
  for (const fx::Node* n : gm->graph().nodes()) {
    if (n->op() != fx::Opcode::CallFunction) continue;
    if (n->target() == "linear_relu") ++linear_relu_calls;
    if (n->target() == "relu") ++relu_calls;
  }
  EXPECT_EQ(linear_relu_calls, 1);
  EXPECT_EQ(relu_calls, 0);

  const Tensor after = fx::rt_tensor(fx::Interpreter(*gm).run({RtValue(x)}));
  EXPECT_TRUE(bit_equal(before, after));

  // conv2d -> relu retargets to conv2d_relu.
  const Tensor cw = Tensor::randn({4, 2, 3, 3});
  const Tensor cb = Tensor::randn({4});
  fx::Tracer ctracer;
  auto cgm = ctracer.trace_function([&](const std::vector<fx::Value>& in) {
    return fx::fn::relu(fx::fn::conv2d(in.at(0), fx::Value(cw), fx::Value(cb),
                                       {1, 1}, {1, 1}));
  });
  const Tensor img = Tensor::randn({1, 2, 5, 5});
  const Tensor cbefore =
      fx::rt_tensor(fx::Interpreter(*cgm).run({RtValue(img)}));
  EXPECT_EQ(passes::fuse_linear_relu(*cgm), 1);
  int conv_relu_calls = 0;
  relu_calls = 0;
  for (const fx::Node* n : cgm->graph().nodes()) {
    if (n->op() != fx::Opcode::CallFunction) continue;
    if (n->target() == "conv2d_relu") ++conv_relu_calls;
    if (n->target() == "relu") ++relu_calls;
  }
  EXPECT_EQ(conv_relu_calls, 1);
  EXPECT_EQ(relu_calls, 0);
  EXPECT_TRUE(bit_equal(
      cbefore, fx::rt_tensor(fx::Interpreter(*cgm).run({RtValue(img)}))));
}

TEST(FuseLinearRelu, MultiConsumerLinearIsNotFused) {
  rt::Rng::global().reseed(47);
  const Tensor w = Tensor::randn({6, 10});
  fx::Tracer tracer;
  auto gm = tracer.trace_function([&](const std::vector<fx::Value>& in) {
    const fx::Value y = fx::fn::linear(in.at(0), fx::Value(w), fx::Value());
    // y is consumed by both the relu and the add: fusing would change the
    // add's operand.
    return fx::fn::add(fx::fn::relu(y), y);
  });
  EXPECT_EQ(passes::fuse_linear_relu(*gm), 0);

  const Tensor cw = Tensor::randn({3, 3, 1, 1});
  fx::Tracer ctracer;
  auto cgm = ctracer.trace_function([&](const std::vector<fx::Value>& in) {
    const fx::Value y =
        fx::fn::conv2d(in.at(0), fx::Value(cw), fx::Value(), {1, 1}, {0, 0});
    return fx::fn::add(fx::fn::relu(y), y);
  });
  EXPECT_EQ(passes::fuse_linear_relu(*cgm), 0);
}

TEST(FuseLinearRelu, QuantizerLeavesLinearReLUInFloat) {
  auto m = std::make_shared<nn::LinearReLU>(8, 4);
  // classify via the convert pipeline's guard: a LinearReLU must never be
  // swapped for a QuantizedLinear that forgets the clamp. We check the
  // observable contract: quantizing a Sequential containing one keeps its
  // output close to float (it stays un-quantized, so exactly equal).
  auto seq = std::make_shared<nn::Sequential>();
  seq->append(m);
  auto gm = fx::symbolic_trace(seq);
  const Tensor x = Tensor::randn({2, 8});
  const Tensor ref = fx::rt_tensor(fx::Interpreter(*gm).run({RtValue(x)}));
  auto qgm = quant::quantize_model(seq, {x, Tensor::randn({2, 8})});
  const Tensor got = fx::rt_tensor(fx::Interpreter(*qgm).run({RtValue(x)}));
  EXPECT_TRUE(bit_equal(ref, got));

  // Same contract for Conv2dReLU.
  auto cseq = std::make_shared<nn::Sequential>();
  cseq->append(std::make_shared<nn::Conv2dReLU>(nn::Conv2d(2, 3, 3, 1, 1)));
  auto cgm = fx::symbolic_trace(cseq);
  const Tensor img = Tensor::randn({1, 2, 4, 4});
  const Tensor cref = fx::rt_tensor(fx::Interpreter(*cgm).run({RtValue(img)}));
  auto cqgm =
      quant::quantize_model(cseq, {img, Tensor::randn({1, 2, 4, 4})});
  EXPECT_TRUE(bit_equal(
      cref, fx::rt_tensor(fx::Interpreter(*cqgm).run({RtValue(img)}))));
}

// --------------------------------------------------------------------------
// End-to-end regression: traced ResNet-18, engines agree at the pinned tier.
// --------------------------------------------------------------------------

TEST(KernelIntegration, ResNet18EnginesBitEqualAtActiveTier) {
  rt::Rng::global().reseed(53);
  auto model = nn::models::resnet18(/*width=*/8, /*num_classes=*/16);
  model->train(false);
  auto gm = fx::symbolic_trace(model);
  gm->recompile();
  const Tensor img = Tensor::randn({1, 3, 32, 32});
  const std::vector<RtValue> in{RtValue(img)};
  const Tensor ref = fx::rt_tensor(fx::Interpreter(*gm).run(in));
  const Tensor tape = std::get<Tensor>(gm->compiled_graph().run(in).front());
  EXPECT_TRUE(bit_equal(ref, tape));
  // Same graph at the forced scalar tier still agrees with itself across
  // engines (cross-tier outputs legitimately differ in float rounding).
  {
    ScopedIsa pin(kernels::Isa::Scalar);
    const Tensor ref_s = fx::rt_tensor(fx::Interpreter(*gm).run(in));
    const Tensor tape_s =
        std::get<Tensor>(gm->compiled_graph().run(in).front());
    EXPECT_TRUE(bit_equal(ref_s, tape_s));
  }
}

}  // namespace
}  // namespace fxcpp
