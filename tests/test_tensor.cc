// Tensor substrate tests: correctness of kernels against naive references,
// view/aliasing semantics (the Section 2.3 behaviors fx sidesteps), and
// parameterized shape sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"
#include "tensor/quantized.h"

namespace fxcpp {
namespace {

TEST(Tensor, FactoryAndAccessors) {
  Tensor t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 3);
  EXPECT_TRUE(t.is_contiguous());
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.at_flat(i), 0.0);

  Tensor o = Tensor::ones({4});
  EXPECT_EQ(o.at_flat(3), 1.0);
  EXPECT_EQ(Tensor::full({2}, 2.5).at_flat(1), 2.5);
  EXPECT_EQ(Tensor::arange(5).at_flat(4), 4.0);
}

TEST(Tensor, ViewsAliasStorage) {
  Tensor t = Tensor::randn({4, 5});
  Tensor v = t.narrow(0, 1, 2);
  EXPECT_TRUE(v.shares_storage_with(t));
  EXPECT_EQ(v.sizes(), (Shape{2, 5}));
  // Mutating the view mutates the base (PyTorch aliasing semantics).
  v.fill_(7.0);
  EXPECT_EQ(t.at_flat(5), 7.0);
  EXPECT_EQ(t.at_flat(14), 7.0);
  EXPECT_NE(t.at_flat(0), 7.0);
}

TEST(Tensor, SelectAndReshape) {
  Tensor t = Tensor::randn({3, 4});
  Tensor row = t.select(1);
  EXPECT_EQ(row.sizes(), (Shape{4}));
  EXPECT_EQ(row.at_flat(2), t.at_flat(6));

  Tensor r = t.reshape({4, 3});
  EXPECT_TRUE(r.shares_storage_with(t));
  Tensor inferred = t.reshape({2, -1});
  EXPECT_EQ(inferred.sizes(), (Shape{2, 6}));
  EXPECT_THROW(t.reshape({5, 5}), std::invalid_argument);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::randn({8});
  Tensor c = t.clone();
  EXPECT_FALSE(c.shares_storage_with(t));
  c.fill_(0.0);
  EXPECT_NE(t.at_flat(0), 0.0);
}

TEST(Tensor, DtypeConversion) {
  Tensor t = Tensor::from_vector({1.7f, -2.3f, 0.0f}, {3});
  Tensor i = t.to(DType::Int64);
  EXPECT_EQ(i.dtype(), DType::Int64);
  EXPECT_EQ(i.at_flat(0), 1.0);
  EXPECT_EQ(i.at_flat(1), -2.0);
}

TEST(TensorOps, AddBroadcastScalarAndBias) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::from_vector({10, 20, 30}, {3});
  Tensor c = ops::add(a, b);
  EXPECT_EQ(c.at_flat(0), 11.0);
  EXPECT_EQ(c.at_flat(5), 36.0);
  Tensor s = ops::add(a, 1.5);
  EXPECT_EQ(s.at_flat(0), 2.5);
}

TEST(TensorOps, GeneralBroadcast) {
  Tensor a = Tensor::rand({2, 1, 3});
  Tensor b = Tensor::rand({4, 1});
  Tensor c = ops::mul(a, b);
  EXPECT_EQ(c.sizes(), (Shape{2, 4, 3}));
  // Spot check an element.
  EXPECT_NEAR(c.at_flat(0), a.at_flat(0) * b.at_flat(0), 1e-6);
  EXPECT_THROW(ops::add(Tensor::rand({3}), Tensor::rand({4})),
               std::invalid_argument);
}

TEST(TensorOps, UnaryMath) {
  Tensor x = Tensor::from_vector({-1.f, 0.f, 2.f}, {3});
  EXPECT_EQ(ops::relu(x).at_flat(0), 0.0);
  EXPECT_EQ(ops::relu(x).at_flat(2), 2.0);
  EXPECT_EQ(ops::neg(x).at_flat(2), -2.0);
  EXPECT_NEAR(ops::sigmoid(x).at_flat(1), 0.5, 1e-6);
  EXPECT_NEAR(ops::tanh(x).at_flat(2), std::tanh(2.0), 1e-6);
  // GELU fixed points: gelu(0)=0; gelu(x) ~ x for large x.
  EXPECT_NEAR(ops::gelu(x).at_flat(1), 0.0, 1e-7);
  Tensor big = Tensor::full({1}, 10.f);
  EXPECT_NEAR(ops::gelu(big).at_flat(0), 10.0, 1e-4);
  // SELU fixed point at 0 and known positive scaling.
  EXPECT_NEAR(ops::selu(x).at_flat(1), 0.0, 1e-7);
  EXPECT_NEAR(ops::selu(x).at_flat(2), 2.0 * 1.0507009873554805, 1e-5);
}

TEST(TensorOps, MatmulAgainstNaive) {
  const std::int64_t m = 7, k = 5, n = 6;
  Tensor a = Tensor::randn({m, k});
  Tensor b = Tensor::randn({k, n});
  Tensor c = ops::matmul(a, b);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a.at_flat(i * k + kk) * b.at_flat(kk * n + j);
      }
      EXPECT_NEAR(c.at_flat(i * n + j), acc, 1e-4);
    }
  }
}

TEST(TensorOps, LinearMatchesMatmulPlusBias) {
  Tensor x = Tensor::randn({3, 8});
  Tensor w = Tensor::randn({4, 8});
  Tensor b = Tensor::randn({4});
  Tensor y = ops::linear(x, w, b);
  Tensor ref = ops::add(ops::matmul(x, ops::transpose(w, 0, 1)), b);
  EXPECT_TRUE(allclose(y, ref, 1e-4, 1e-5));
}

// Naive direct convolution as a reference for the GEMM conv kernel.
Tensor conv2d_naive(const Tensor& x, const Tensor& w, const Tensor& b,
                    std::int64_t s, std::int64_t p) {
  const std::int64_t N = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  const std::int64_t O = w.size(0), kh = w.size(2), kw = w.size(3);
  const std::int64_t oh = (H + 2 * p - kh) / s + 1, ow = (W + 2 * p - kw) / s + 1;
  Tensor y = Tensor::zeros({N, O, oh, ow});
  for (std::int64_t n = 0; n < N; ++n)
    for (std::int64_t o = 0; o < O; ++o)
      for (std::int64_t y0 = 0; y0 < oh; ++y0)
        for (std::int64_t x0 = 0; x0 < ow; ++x0) {
          double acc = b.defined() ? b.at_flat(o) : 0.0;
          for (std::int64_t c = 0; c < C; ++c)
            for (std::int64_t ky = 0; ky < kh; ++ky)
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t iy = y0 * s - p + ky, ix = x0 * s - p + kx;
                if (iy < 0 || iy >= H || ix < 0 || ix >= W) continue;
                acc += x.at_flat(((n * C + c) * H + iy) * W + ix) *
                       w.at_flat(((o * C + c) * kh + ky) * kw + kx);
              }
          y.set_flat(((n * O + o) * oh + y0) * ow + x0, acc);
        }
  return y;
}

struct ConvCase {
  std::int64_t n, c, h, o, k, s, p;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, MatchesNaive) {
  const ConvCase cc = GetParam();
  Tensor x = Tensor::randn({cc.n, cc.c, cc.h, cc.h});
  Tensor w = Tensor::randn({cc.o, cc.c, cc.k, cc.k});
  Tensor b = Tensor::randn({cc.o});
  Tensor got = ops::conv2d(x, w, b, {cc.s, cc.s}, {cc.p, cc.p});
  Tensor ref = conv2d_naive(x, w, b, cc.s, cc.p);
  EXPECT_EQ(got.sizes(), ref.sizes());
  EXPECT_LT(max_abs_diff(got, ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 5, 1, 3, 1, 0},
                      ConvCase{1, 3, 8, 4, 3, 1, 1},
                      ConvCase{2, 4, 9, 6, 3, 2, 1},
                      ConvCase{1, 2, 7, 3, 1, 1, 0},
                      ConvCase{1, 3, 12, 5, 7, 2, 3},
                      ConvCase{2, 2, 6, 2, 2, 2, 0}));

TEST(TensorOps, MaxPoolKnownValues) {
  Tensor x = Tensor::from_vector({1, 2, 3, 4, 5, 6, 7, 8, 9}, {1, 1, 3, 3});
  Tensor y = ops::max_pool2d(x, {2, 2}, {1, 1}, {0, 0});
  EXPECT_EQ(y.sizes(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y.at_flat(0), 5.0);
  EXPECT_EQ(y.at_flat(3), 9.0);
}

TEST(TensorOps, AdaptiveAvgPoolToOne) {
  Tensor x = Tensor::rand({2, 3, 5, 7});
  Tensor y = ops::adaptive_avg_pool2d(x, {1, 1});
  EXPECT_EQ(y.sizes(), (Shape{2, 3, 1, 1}));
  // Channel mean check.
  double acc = 0.0;
  for (std::int64_t i = 0; i < 35; ++i) acc += x.at_flat(i);
  EXPECT_NEAR(y.at_flat(0), acc / 35.0, 1e-5);
}

TEST(TensorOps, BatchNormInference) {
  Tensor x = Tensor::randn({2, 3, 4, 4});
  Tensor gamma = Tensor::from_vector({1.f, 2.f, 0.5f}, {3});
  Tensor beta = Tensor::from_vector({0.f, 1.f, -1.f}, {3});
  Tensor mean = Tensor::from_vector({0.1f, -0.2f, 0.3f}, {3});
  Tensor var = Tensor::from_vector({1.f, 0.5f, 2.f}, {3});
  Tensor y = ops::batch_norm(x, gamma, beta, mean, var, 1e-5);
  // Reference for one element in channel 1.
  const double v = x.at_flat(16);  // n=0, c=1, first spatial
  const double expect = (v - (-0.2)) / std::sqrt(0.5 + 1e-5) * 2.0 + 1.0;
  EXPECT_NEAR(y.at_flat(16), expect, 1e-4);
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::randn({4, 9});
  Tensor y = ops::softmax(x, -1);
  for (std::int64_t r = 0; r < 4; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 9; ++c) s += y.at_flat(r * 9 + c);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(TensorOps, LayerNormNormalizes) {
  Tensor x = Tensor::randn({3, 16});
  Tensor y = ops::layer_norm(x, Tensor::ones({16}), Tensor::zeros({16}), 1e-5);
  for (std::int64_t r = 0; r < 3; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t c = 0; c < 16; ++c) mean += y.at_flat(r * 16 + c);
    mean /= 16.0;
    for (std::int64_t c = 0; c < 16; ++c) {
      var += (y.at_flat(r * 16 + c) - mean) * (y.at_flat(r * 16 + c) - mean);
    }
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var / 16.0, 1.0, 1e-2);
  }
}

TEST(TensorOps, CatAlongBothDims) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from_vector({5, 6, 7, 8}, {2, 2});
  Tensor c0 = ops::cat({a, b}, 0);
  EXPECT_EQ(c0.sizes(), (Shape{4, 2}));
  EXPECT_EQ(c0.at_flat(4), 5.0);
  Tensor c1 = ops::cat({a, b}, 1);
  EXPECT_EQ(c1.sizes(), (Shape{2, 4}));
  EXPECT_EQ(c1.at_flat(2), 5.0);
  EXPECT_EQ(c1.at_flat(4), 3.0);
}

TEST(TensorOps, SumMeanAndSumDim) {
  Tensor x = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_NEAR(ops::sum(x).item(), 21.0, 1e-6);
  EXPECT_NEAR(ops::mean(x).item(), 3.5, 1e-6);
  Tensor s0 = ops::sum_dim(x, 0);
  EXPECT_EQ(s0.sizes(), (Shape{3}));
  EXPECT_EQ(s0.at_flat(0), 5.0);
  Tensor s1 = ops::sum_dim(x, 1);
  EXPECT_EQ(s1.sizes(), (Shape{2}));
  EXPECT_EQ(s1.at_flat(1), 15.0);
}

TEST(TensorOps, EmbeddingLookup) {
  Tensor w = Tensor::randn({10, 4});
  Tensor idx(Shape{3}, DType::Int64);
  idx.set_flat(0, 7);
  idx.set_flat(1, 0);
  idx.set_flat(2, 7);
  Tensor e = ops::embedding(w, idx);
  EXPECT_EQ(e.sizes(), (Shape{3, 4}));
  EXPECT_EQ(e.at_flat(0), w.at_flat(28));
  EXPECT_EQ(e.at_flat(8), e.at_flat(0));
  Tensor bad(Shape{1}, DType::Int64);
  bad.set_flat(0, 99);
  EXPECT_THROW(ops::embedding(w, bad), std::out_of_range);
}

TEST(TensorOps, TransposeRoundTrip) {
  Tensor x = Tensor::randn({3, 5});
  Tensor t = ops::transpose(x, 0, 1);
  EXPECT_EQ(t.sizes(), (Shape{5, 3}));
  EXPECT_EQ(t.at_flat(1), x.at_flat(5));
  Tensor back = ops::transpose(t, 0, 1);
  EXPECT_TRUE(allclose(back, x));
}

TEST(TensorOps, DropoutInferenceIsIdentity) {
  Tensor x = Tensor::randn({64});
  EXPECT_TRUE(allclose(ops::dropout(x, 0.8, /*training=*/false), x));
  Tensor d = ops::dropout(x, 0.5, /*training=*/true);
  int zeros = 0;
  for (std::int64_t i = 0; i < 64; ++i) {
    if (d.at_flat(i) == 0.0) ++zeros;
  }
  EXPECT_GT(zeros, 10);  // p=0.5 over 64 elems: overwhelmingly likely
}

TEST(TensorErrors, DtypeAndShapeGuards) {
  Tensor f = Tensor::zeros({2});
  EXPECT_THROW(f.data<std::int64_t>(), std::logic_error);
  EXPECT_THROW(Tensor().data<float>(), std::logic_error);
  EXPECT_THROW(Tensor::zeros({2, 2}).item(), std::logic_error);
  EXPECT_THROW(ops::matmul(Tensor::randn({2, 3}), Tensor::randn({4, 2})),
               std::invalid_argument);
  EXPECT_THROW(ops::linear(Tensor::randn({2, 3}), Tensor::randn({4, 5}),
                           Tensor()),
               std::invalid_argument);
  EXPECT_THROW(
      ops::conv2d(Tensor::randn({1, 2, 4, 4}), Tensor::randn({1, 3, 3, 3}),
                  Tensor(), {1, 1}, {0, 0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace fxcpp
