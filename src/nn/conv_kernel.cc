#include "nn/conv_kernel.h"

#include <algorithm>
#include <vector>

#include "util/thread_pool.h"

namespace tasfar {

namespace {

// The output positions a tap reaches in range, [lo, lo + n), and the input
// position `first` that output `lo` reads; output lo + j reads input
// first + j * stride.
struct Taps {
  size_t lo = 0;
  size_t n = 0;
  size_t first = 0;
};

Taps TapsOf(const ConvAxis& a, size_t k) {
  const long offset =
      static_cast<long>(k * a.dilation) - static_cast<long>(a.padding);
  const long stride = static_cast<long>(a.stride);
  const long lo = offset < 0 ? (-offset + stride - 1) / stride : 0;
  const long last = static_cast<long>(a.in) - 1 - offset;  // o*stride <= last
  const long hi =
      last < 0 ? 0 : std::min(last / stride + 1, static_cast<long>(a.out));
  Taps t;
  if (hi <= lo) return t;
  t.lo = static_cast<size_t>(lo);
  t.n = static_cast<size_t>(hi - lo);
  t.first = static_cast<size_t>(lo * stride + offset);
  return t;
}

// The taps an output position reaches in range, [lo, lo + n), and the
// input position `first` that tap lo reads; tap lo + k reads input
// first + k * dilation.
struct Window {
  size_t lo = 0;
  size_t n = 0;
  size_t first = 0;
};

// Every output position's window along one axis. The in-range taps of a
// position are contiguous, so walking them downward leaves lo at the
// smallest.
std::vector<Window> WindowsOf(const ConvAxis& a) {
  std::vector<Window> wins(a.out);
  for (size_t k = a.kernel; k-- > 0;) {
    const Taps t = TapsOf(a, k);
    for (size_t j = 0; j < t.n; ++j) {
      Window& win = wins[t.lo + j];
      win.lo = k;
      win.first = t.first + j * a.stride;
      ++win.n;
    }
  }
  return wins;
}

}  // namespace

void ConvForward(const ConvGeometry& g, const double* x, const double* weight,
                 const double* bias, double* out) {
  const size_t in_plane = g.h.in * g.w.in;
  const size_t out_plane = g.h.out * g.w.out;
  const size_t taps = g.h.kernel * g.w.kernel;
  const size_t shards = g.batch * g.out_channels;
  const size_t madds = shards * out_plane * g.in_channels * taps;
  // One shard per (b, oc) output plane: fill it with the bias, then add
  // the taps in (ic, kh, kw) order, each over the outputs it reaches.
  ParallelFor(0, shards, ParallelGrain(shards, madds), [&](size_t s) {
    const size_t b = s / g.out_channels;
    const size_t oc = s % g.out_channels;
    double* o = out + s * out_plane;
    std::fill(o, o + out_plane, bias[oc]);
    for (size_t ic = 0; ic < g.in_channels; ++ic) {
      const double* xp = x + (b * g.in_channels + ic) * in_plane;
      const double* wp = weight + (oc * g.in_channels + ic) * taps;
      for (size_t kh = 0; kh < g.h.kernel; ++kh) {
        const Taps th = TapsOf(g.h, kh);
        for (size_t kw = 0; kw < g.w.kernel; ++kw) {
          const Taps tw = TapsOf(g.w, kw);
          const double wv = wp[kh * g.w.kernel + kw];
          for (size_t i = 0; i < th.n; ++i) {
            double* orow = o + (th.lo + i) * g.w.out + tw.lo;
            const double* xrow =
                xp + (th.first + i * g.h.stride) * g.w.in + tw.first;
            for (size_t j = 0; j < tw.n; ++j) {
              orow[j] += wv * xrow[j * g.w.stride];
            }
          }
        }
      }
    }
  });
}

void ConvBackward(const ConvGeometry& g, const double* x, const double* weight,
                  const double* grad_out, double* grad_weight,
                  double* grad_bias, double* grad_input) {
  const size_t in_plane = g.h.in * g.w.in;
  const size_t out_plane = g.h.out * g.w.out;
  const size_t taps = g.h.kernel * g.w.kernel;
  const size_t madds =
      g.batch * g.out_channels * out_plane * g.in_channels * taps;
  const std::vector<Window> wins_w = WindowsOf(g.w);

  // Weight and bias gradients: one shard per (oc, ic, kh) kernel row. The
  // shard visits the outputs (b, ho, wo) that row reaches, ascending, and
  // adds each nonzero upstream gradient's term to every kw accumulator of
  // the row; the shard of row (oc, 0, 0) also sums oc's bias gradient in
  // the same order.
  const size_t rows = g.out_channels * g.in_channels * g.h.kernel;
  ParallelFor(0, rows, ParallelGrain(rows, madds), [&](size_t r) {
    const size_t oc = r / (g.in_channels * g.h.kernel);
    const size_t ic = r / g.h.kernel % g.in_channels;
    const size_t kh = r % g.h.kernel;
    const Taps th = TapsOf(g.h, kh);
    double* gw = grad_weight + r * g.w.kernel;
    for (size_t b = 0; b < g.batch; ++b) {
      const double* gp = grad_out + (b * g.out_channels + oc) * out_plane;
      const double* xp = x + (b * g.in_channels + ic) * in_plane;
      for (size_t i = 0; i < th.n; ++i) {
        const double* grow = gp + (th.lo + i) * g.w.out;
        const double* xrow = xp + (th.first + i * g.h.stride) * g.w.in;
        for (size_t wo = 0; wo < g.w.out; ++wo) {
          const double go = grow[wo];
          if (go == 0.0) continue;
          const Window& win = wins_w[wo];
          double* acc = gw + win.lo;
          const double* xw = xrow + win.first;
          for (size_t k = 0; k < win.n; ++k) {
            acc[k] += go * xw[k * g.w.dilation];
          }
        }
      }
    }
    if (ic != 0 || kh != 0) return;
    double& gb = grad_bias[oc];
    for (size_t b = 0; b < g.batch; ++b) {
      const double* gp = grad_out + (b * g.out_channels + oc) * out_plane;
      for (size_t i = 0; i < out_plane; ++i) {
        if (gp[i] != 0.0) gb += gp[i];
      }
    }
  });
  if (grad_input == nullptr) return;

  // Input gradient: one shard per (b, ic) plane. The shard visits the
  // outputs (oc, ho, wo) ascending and adds each nonzero upstream
  // gradient's term to every input element its (kh, kw) window reaches,
  // so each element sums its terms in (oc, ho, wo) order.
  const std::vector<Window> wins_h = WindowsOf(g.h);
  const size_t planes = g.batch * g.in_channels;
  ParallelFor(0, planes, ParallelGrain(planes, madds), [&](size_t p) {
    const size_t b = p / g.in_channels;
    const size_t ic = p % g.in_channels;
    double* gi = grad_input + p * in_plane;
    std::fill(gi, gi + in_plane, 0.0);
    for (size_t oc = 0; oc < g.out_channels; ++oc) {
      const double* gp = grad_out + (b * g.out_channels + oc) * out_plane;
      const double* wp = weight + (oc * g.in_channels + ic) * taps;
      for (size_t ho = 0; ho < g.h.out; ++ho) {
        const Window& wh = wins_h[ho];
        const double* grow = gp + ho * g.w.out;
        for (size_t wo = 0; wo < g.w.out; ++wo) {
          const double go = grow[wo];
          if (go == 0.0) continue;
          const Window& ww = wins_w[wo];
          for (size_t i = 0; i < wh.n; ++i) {
            const double* wrow = wp + (wh.lo + i) * g.w.kernel + ww.lo;
            double* girow =
                gi + (wh.first + i * g.h.dilation) * g.w.in + ww.first;
            for (size_t k = 0; k < ww.n; ++k) {
              girow[k * g.w.dilation] += go * wrow[k];
            }
          }
        }
      }
    }
  });
}

}  // namespace tasfar
