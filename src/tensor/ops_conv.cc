#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

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

// Bytes of B panel per column block. A block's panels are packed once and
// then swept by every mr-row strip of the weight, so they must stay
// cache-resident while the strips stream past; 128 KiB sits well inside a
// per-core L2. On ResNet-50 w16 (AVX2 tier, Xeon with 2 MiB L2 per core)
// 32 KiB to 1 MiB blocks ran within 5% of each other at one intra-op
// thread, while at four threads blocks under 128 KiB ran 9-25% slower:
// each block's GEMM is one parallel_for.
constexpr std::int64_t kBlockPanelBytes = 128 * 1024;
constexpr std::int64_t kPw = kernels::kPanelWidth;

// Columns per block at reduction length k: whole panels, at least one.
std::int64_t block_cols(std::int64_t k) {
  const std::int64_t panel_bytes = kPw * std::max<std::int64_t>(k, 1) *
                                    static_cast<std::int64_t>(sizeof(float));
  const std::int64_t panels = kBlockPanelBytes / panel_bytes;
  return std::max<std::int64_t>(1, panels) * kPw;
}

// Columns [ox0, ox0 + len) of output row oy of one image. Each (c, ky) reads
// one input row at stride sw, clipped to the row with zeros outside; at
// stride 1 the in-row part is a memcpy.
void pack_row_run(const float* img, const Conv2dDims& d, std::int64_t oy,
                  std::int64_t ox0, std::int64_t len, float* panel) {
  for (std::int64_t c = 0; c < d.c; ++c) {
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      float* drow = panel + (c * d.kh + ky) * d.kw * kPw;
      const std::int64_t iy = oy * d.sh - d.ph + ky;
      if (iy < 0 || iy >= d.h) {
        for (std::int64_t kx = 0; kx < d.kw; ++kx) {
          std::memset(drow + kx * kPw, 0,
                      static_cast<std::size_t>(len) * sizeof(float));
        }
        continue;
      }
      const float* irow = img + (c * d.h + iy) * d.w;
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        float* dst = drow + kx * kPw;
        const std::int64_t ix0 = ox0 * d.sw - d.pw + kx;
        // Columns [lo, hi) read inside the row.
        const std::int64_t lo =
            ix0 >= 0 ? 0 : std::min(len, (d.sw - 1 - ix0) / d.sw);
        const std::int64_t hi = std::max(
            lo, ix0 >= d.w ? 0 : std::min(len, (d.w - 1 - ix0) / d.sw + 1));
        for (std::int64_t t = 0; t < lo; ++t) dst[t] = 0.f;
        if (d.sw == 1) {
          std::memcpy(dst + lo, irow + ix0 + lo,
                      static_cast<std::size_t>(hi - lo) * sizeof(float));
        } else {
          for (std::int64_t t = lo; t < hi; ++t) dst[t] = irow[ix0 + t * d.sw];
        }
        for (std::int64_t t = hi; t < len; ++t) dst[t] = 0.f;
      }
    }
  }
}

// Columns [first, first + width) that span output rows or images. Which
// input element a column reads at tap (ky, kx) does not depend on the
// channel, so each tap gets a table of 16 channel-0 offsets and bit masks
// (all-ones inside the input, zero in the padding or past `width`). The
// per-channel loop is then a branchless load-and-mask; a masked-off lane
// reads its image's first element and stores +0.0, like im2col's padding.
void pack_gather(const float* x, const Conv2dDims& d, std::int64_t first,
                 std::int64_t width, float* panel) {
  const std::int64_t spatial = d.oh * d.ow;
  const std::int64_t plane = d.h * d.w;
  const std::int64_t taps = d.kh * d.kw;
  thread_local std::vector<std::int64_t> off;
  thread_local std::vector<std::uint32_t> mask;
  off.assign(static_cast<std::size_t>(taps * kPw), 0);
  mask.assign(static_cast<std::size_t>(taps * kPw), 0);
  for (std::int64_t t = 0; t < width; ++t) {
    const std::int64_t j = first + t;
    const std::int64_t pix = j % spatial;
    const std::int64_t base = j / spatial * d.c * plane;
    const std::int64_t iy0 = pix / d.ow * d.sh - d.ph;
    const std::int64_t ix0 = pix % d.ow * d.sw - d.pw;
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        const std::int64_t iy = iy0 + ky, ix = ix0 + kx;
        const auto at = static_cast<std::size_t>((ky * d.kw + kx) * kPw + t);
        const bool inside = iy >= 0 && iy < d.h && ix >= 0 && ix < d.w;
        off[at] = inside ? base + iy * d.w + ix : base;
        mask[at] = inside ? ~0u : 0u;
      }
    }
  }
  for (std::int64_t c = 0; c < d.c; ++c) {
    const float* xc = x + c * plane;
    for (std::int64_t tap = 0; tap < taps; ++tap) {
      float* dst = panel + (c * taps + tap) * kPw;
      const std::int64_t* o = off.data() + tap * kPw;
      const std::uint32_t* m = mask.data() + tap * kPw;
      for (std::int64_t t = 0; t < kPw; ++t) {
        dst[t] = std::bit_cast<float>(
            std::bit_cast<std::uint32_t>(xc[o[t]]) & m[t]);
      }
    }
  }
}

// Implicit im2col: writes columns [j0, j0 + cols) of the batch-wide column
// matrix B[C*kh*kw][n*oh*ow] — row (c*kh + ky)*kw + kx, column
// img*oh*ow + oy*ow + ox — straight from the NCHW input `x`, in the
// kernels.h panel layout: exactly what pack_b_f32_nn makes of those columns.
void pack_conv_panels(const float* x, const Conv2dDims& d, std::int64_t j0,
                      std::int64_t cols, float* out) {
  const std::int64_t k = d.c * d.kh * d.kw;
  const std::int64_t spatial = d.oh * d.ow;
  const std::int64_t plane = d.h * d.w;
  const bool pointwise = d.kh == 1 && d.kw == 1 && d.sh == 1 && d.sw == 1 &&
                         d.ph == 0 && d.pw == 0;
  for (std::int64_t p0 = 0; p0 < cols; p0 += kPw) {
    float* panel = out + p0 * k;
    const std::int64_t width = std::min(kPw, cols - p0);
    if (width < kPw) {
      std::memset(panel, 0, static_cast<std::size_t>(kPw * k) * sizeof(float));
    }
    const std::int64_t first = j0 + p0, last = first + width - 1;
    const std::int64_t img = first / spatial, pix = first % spatial;
    const float* ximg = x + img * d.c * plane;
    if (last / spatial != img) {
      pack_gather(x, d, first, width, panel);
    } else if (pointwise) {
      // Output pixel p reads input pixel p: one copy per input channel.
      for (std::int64_t c = 0; c < d.c; ++c) {
        std::memcpy(panel + c * kPw, ximg + c * plane + pix,
                    static_cast<std::size_t>(width) * sizeof(float));
      }
    } else if ((last % spatial) / d.ow == pix / d.ow) {
      pack_row_run(ximg, d, pix / d.ow, pix % d.ow, width, panel);
    } else {
      pack_gather(x, d, first, width, panel);
    }
  }
}

// Shared conv2d / conv2d_relu body: one GEMM over the whole batch,
// Y[O][n*oh*ow] = W[O][C*kh*kw] @ B, the per-filter bias and the ReLU fused
// as its row epilogue. The weight is the A operand, its strip pack cached in
// the thread's PackCache. N is walked in column blocks of block_cols(k);
// each block's B panels are packed into the thread's panel workspace right
// before its GEMM. Every output element keeps one full-K chain in k order,
// so results do not depend on the blocking.
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

  PackCache& cache = PackCache::local();
  const auto pa = cache.panel_a_f32(w, kernels::gemm_f32_mr());
  const float* xin = xc.data<float>();
  float* y = out.data<float>();
  const std::int64_t cols = block_cols(k);
  auto gemm = [&](std::int64_t n_cols, const float* pb, float* c,
                  std::int64_t ldc) {
    kernels::sgemm(d.o, n_cols, k, nullptr, 0, pb, c, ldc, nullptr, bias,
                   relu, pa->data());
  };
  if (spatial >= cols) {
    // Blocks stay inside one image and store straight into its NCHW planes.
    float* pb = cache.panel_workspace(kernels::packed_b_f32_size(k, cols));
    for (std::int64_t img = 0; img < d.n; ++img) {
      for (std::int64_t j = 0; j < spatial; j += cols) {
        const std::int64_t nb = std::min(cols, spatial - j);
        pack_conv_panels(xin, d, img * spatial + j, nb, pb);
        gemm(nb, pb, y + img * d.o * spatial + j, spatial);
      }
    }
    return out;
  }
  // A block holds g whole images. One image stores directly; several go
  // through an [O, g*oh*ow] staging buffer scattered into NCHW afterwards.
  const std::int64_t g = std::min(cols / spatial, d.n);
  float* pb = cache.panel_workspace(kernels::packed_b_f32_size(k, g * spatial));
  float* stage = g > 1 ? cache.workspace(static_cast<std::size_t>(
                             d.o * g * spatial))
                       : nullptr;
  for (std::int64_t img0 = 0; img0 < d.n; img0 += g) {
    const std::int64_t gi = std::min(g, d.n - img0);
    const std::int64_t nb = gi * spatial;
    float* yimg = y + img0 * d.o * spatial;
    pack_conv_panels(xin, d, img0 * spatial, nb, pb);
    if (gi == 1) {
      gemm(nb, pb, yimg, spatial);
      continue;
    }
    gemm(nb, pb, stage, nb);
    for (std::int64_t t = 0; t < gi; ++t) {
      for (std::int64_t o = 0; o < d.o; ++o) {
        std::memcpy(yimg + (t * d.o + o) * spatial,
                    stage + o * nb + t * spatial,
                    static_cast<std::size_t>(spatial) * sizeof(float));
      }
    }
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
