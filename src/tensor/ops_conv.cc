#include <cstring>
#include <limits>

#include "kernels/kernels.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/pack_cache.h"

namespace fxcpp::ops {

namespace {

struct Conv2dDims {
  std::int64_t n, c, h, w;        // input
  std::int64_t o, kh, kw;         // kernel
  std::int64_t sh, sw, ph, pw;    // stride / padding
  std::int64_t oh, ow;            // output spatial
};

Conv2dDims conv_dims(const Tensor& x, const Tensor& wt,
                     const std::vector<std::int64_t>& stride,
                     const std::vector<std::int64_t>& padding) {
  if (x.dim() != 4 || wt.dim() != 4) {
    throw std::invalid_argument("conv2d: expected NCHW input and OIKK weight");
  }
  Conv2dDims d;
  d.n = x.size(0); d.c = x.size(1); d.h = x.size(2); d.w = x.size(3);
  d.o = wt.size(0); d.kh = wt.size(2); d.kw = wt.size(3);
  if (wt.size(1) != d.c) throw std::invalid_argument("conv2d: channel mismatch");
  d.sh = stride.size() > 0 ? stride[0] : 1;
  d.sw = stride.size() > 1 ? stride[1] : d.sh;
  d.ph = padding.size() > 0 ? padding[0] : 0;
  d.pw = padding.size() > 1 ? padding[1] : d.ph;
  d.oh = (d.h + 2 * d.ph - d.kh) / d.sh + 1;
  d.ow = (d.w + 2 * d.pw - d.kw) / d.sw + 1;
  if (d.oh <= 0 || d.ow <= 0) throw std::invalid_argument("conv2d: empty output");
  return d;
}

// Scatter one image into column matrix [C*kh*kw, oh*ow].
void im2col(const float* img, const Conv2dDims& d, float* col) {
  const std::int64_t spatial = d.oh * d.ow;
  for (std::int64_t c = 0; c < d.c; ++c) {
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        float* crow = col + ((c * d.kh + ky) * d.kw + kx) * spatial;
        for (std::int64_t oy = 0; oy < d.oh; ++oy) {
          const std::int64_t iy = oy * d.sh - d.ph + ky;
          if (iy < 0 || iy >= d.h) {
            std::memset(crow + oy * d.ow, 0,
                        static_cast<std::size_t>(d.ow) * sizeof(float));
            continue;
          }
          const float* irow = img + (c * d.h + iy) * d.w;
          for (std::int64_t ox = 0; ox < d.ow; ++ox) {
            const std::int64_t ix = ox * d.sw - d.pw + kx;
            crow[oy * d.ow + ox] =
                (ix >= 0 && ix < d.w) ? irow[ix] : 0.f;
          }
        }
      }
    }
  }
}

// Shared conv2d / conv2d_relu body; the ReLU rides in the GEMM epilogue.
Tensor conv2d_impl(const Tensor& x, const Tensor& w, const Tensor& b,
                   const std::vector<std::int64_t>& stride,
                   const std::vector<std::int64_t>& padding, bool relu) {
  const Tensor xc = x.contiguous();
  const Conv2dDims d = conv_dims(xc, w, stride, padding);
  Tensor out(Shape{d.n, d.o, d.oh, d.ow}, DType::Float32);

  const std::int64_t k = d.c * d.kh * d.kw;   // reduction length
  const std::int64_t spatial = d.oh * d.ow;
  const float* bias = nullptr;
  Tensor bcont;
  if (b.defined()) {
    bcont = b.contiguous();
    bias = bcont.data<float>();
  }

  // Per-image: col = im2col(x_n); out_n = W[O, k] @ col[k, spatial] through
  // the micro-kernel layer, with the per-filter bias fused as the GEMM's
  // row epilogue. The weight side is the GEMM's A operand: its strip pack
  // (keyed by the active tier's mr) is cached in the thread's PackCache,
  // while the im2col columns and their B panels live in per-call
  // workspaces — grown once to the largest conv seen, then reused across
  // forwards instead of being reallocated per call.
  const int mr = kernels::gemm_f32_mr();
  const auto pa = PackCache::local().panel_a_f32(w, mr);
  float* col = PackCache::local().workspace(static_cast<std::size_t>(k * spatial));
  float* pb = PackCache::local().panel_workspace(
      kernels::packed_b_f32_size(k, spatial));
  for (std::int64_t img = 0; img < d.n; ++img) {
    const float* xin = xc.data<float>() + img * d.c * d.h * d.w;
    im2col(xin, d, col);
    kernels::pack_b_f32_nn(col, spatial, k, spatial, pb);
    float* yout = out.data<float>() + img * d.o * spatial;
    kernels::sgemm(d.o, spatial, k, nullptr, 0, pb, yout, spatial, nullptr,
                   bias, relu, pa->data());
  }
  return out;
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              std::vector<std::int64_t> stride,
              std::vector<std::int64_t> padding) {
  return conv2d_impl(x, w, b, stride, padding, /*relu=*/false);
}

Tensor conv2d_relu(const Tensor& x, const Tensor& w, const Tensor& b,
                   std::vector<std::int64_t> stride,
                   std::vector<std::int64_t> padding) {
  return conv2d_impl(x, w, b, stride, padding, /*relu=*/true);
}

Tensor max_pool2d(const Tensor& x, std::vector<std::int64_t> kernel,
                  std::vector<std::int64_t> stride,
                  std::vector<std::int64_t> padding) {
  const Tensor xc = x.contiguous();
  if (xc.dim() != 4) throw std::invalid_argument("max_pool2d: NCHW expected");
  const std::int64_t n = xc.size(0), c = xc.size(1), h = xc.size(2), w = xc.size(3);
  const std::int64_t kh = kernel[0], kw = kernel.size() > 1 ? kernel[1] : kernel[0];
  const std::int64_t sh = stride.empty() ? kh : stride[0];
  const std::int64_t sw = stride.size() > 1 ? stride[1] : sh;
  const std::int64_t ph = padding.empty() ? 0 : padding[0];
  const std::int64_t pw = padding.size() > 1 ? padding[1] : ph;
  const std::int64_t oh = (h + 2 * ph - kh) / sh + 1;
  const std::int64_t ow = (w + 2 * pw - kw) / sw + 1;
  Tensor out(Shape{n, c, oh, ow}, DType::Float32);
  const float* in = xc.data<float>();
  float* o = out.data<float>();
  rt::parallel_for(0, n * c, 1, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t plane = p0; plane < p1; ++plane) {
      const float* ip = in + plane * h * w;
      float* op = o + plane * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float m = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = oy * sh - ph + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const std::int64_t ix = ox * sw - pw + kx;
              if (ix < 0 || ix >= w) continue;
              m = std::max(m, ip[iy * w + ix]);
            }
          }
          op[oy * ow + ox] = m;
        }
      }
    }
  });
  return out;
}

Tensor avg_pool2d(const Tensor& x, std::vector<std::int64_t> kernel,
                  std::vector<std::int64_t> stride) {
  const Tensor xc = x.contiguous();
  if (xc.dim() != 4) throw std::invalid_argument("avg_pool2d: NCHW expected");
  const std::int64_t n = xc.size(0), c = xc.size(1), h = xc.size(2), w = xc.size(3);
  const std::int64_t kh = kernel[0], kw = kernel.size() > 1 ? kernel[1] : kernel[0];
  const std::int64_t sh = stride.empty() ? kh : stride[0];
  const std::int64_t sw = stride.size() > 1 ? stride[1] : sh;
  const std::int64_t oh = (h - kh) / sh + 1;
  const std::int64_t ow = (w - kw) / sw + 1;
  Tensor out(Shape{n, c, oh, ow}, DType::Float32);
  const float* in = xc.data<float>();
  float* o = out.data<float>();
  const float inv = 1.f / static_cast<float>(kh * kw);
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float* ip = in + plane * h * w;
    float* op = o + plane * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float acc = 0.f;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            acc += ip[(oy * sh + ky) * w + ox * sw + kx];
          }
        }
        op[oy * ow + ox] = acc * inv;
      }
    }
  }
  return out;
}

Tensor adaptive_avg_pool2d(const Tensor& x, std::vector<std::int64_t> out_hw) {
  const Tensor xc = x.contiguous();
  if (xc.dim() != 4) {
    throw std::invalid_argument("adaptive_avg_pool2d: NCHW expected");
  }
  const std::int64_t n = xc.size(0), c = xc.size(1), h = xc.size(2), w = xc.size(3);
  const std::int64_t oh = out_hw[0], ow = out_hw.size() > 1 ? out_hw[1] : out_hw[0];
  Tensor out(Shape{n, c, oh, ow}, DType::Float32);
  const float* in = xc.data<float>();
  float* o = out.data<float>();
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float* ip = in + plane * h * w;
    float* op = o + plane * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      // PyTorch adaptive pooling bin boundaries.
      const std::int64_t y0 = oy * h / oh;
      const std::int64_t y1 = ((oy + 1) * h + oh - 1) / oh;
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t x0 = ox * w / ow;
        const std::int64_t x1 = ((ox + 1) * w + ow - 1) / ow;
        float acc = 0.f;
        for (std::int64_t iy = y0; iy < y1; ++iy) {
          for (std::int64_t ix = x0; ix < x1; ++ix) acc += ip[iy * w + ix];
        }
        op[oy * ow + ox] = acc / static_cast<float>((y1 - y0) * (x1 - x0));
      }
    }
  }
  return out;
}

}  // namespace fxcpp::ops
