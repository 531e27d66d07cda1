// Property-style checks of the convolutions against naive reference
// implementations across stride/padding/dilation combinations, and
// byte-identity of the sharded conv, pooling and multi-column kernels
// against the layers' original scalar loops at 1, 2 and 8 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/multi_column.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

// --- Reference loops ----------------------------------------------------
//
// The per-element loops Conv1d and Conv2d ran before their kernels were
// sharded over the thread pool (MaxPool2d's and GlobalAvgPool2d's are
// inlined in their test below). They fix the summation order of every
// output and gradient element, so the layers must reproduce them bit for
// bit, at any thread count.

Tensor RefConv1dForward(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, size_t stride, size_t padding,
                        size_t dilation) {
  const size_t batch = input.dim(0), in_ch = input.dim(1);
  const size_t t_in = input.dim(2);
  const size_t out_ch = weight.dim(0), kernel = weight.dim(2);
  const size_t t_out =
      (t_in + 2 * padding - (dilation * (kernel - 1) + 1)) / stride + 1;
  Tensor out({batch, out_ch, t_out});
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_ch; ++oc) {
      for (size_t to = 0; to < t_out; ++to) {
        double acc = bias[oc];
        for (size_t ic = 0; ic < in_ch; ++ic) {
          for (size_t k = 0; k < kernel; ++k) {
            const long ti = static_cast<long>(to * stride + k * dilation) -
                            static_cast<long>(padding);
            if (ti < 0 || ti >= static_cast<long>(t_in)) continue;
            acc += weight.At(oc, ic, k) *
                   input.At(b, ic, static_cast<size_t>(ti));
          }
        }
        out.At(b, oc, to) = acc;
      }
    }
  }
  return out;
}

Tensor RefConv1dBackward(const Tensor& input, const Tensor& weight,
                         const Tensor& grad_output, size_t stride,
                         size_t padding, size_t dilation, Tensor* grad_weight,
                         Tensor* grad_bias) {
  const size_t batch = input.dim(0), in_ch = input.dim(1);
  const size_t t_in = input.dim(2);
  const size_t out_ch = weight.dim(0), kernel = weight.dim(2);
  const size_t t_out = grad_output.dim(2);
  Tensor grad_input(input.shape());
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_ch; ++oc) {
      for (size_t to = 0; to < t_out; ++to) {
        const double go = grad_output.At(b, oc, to);
        if (go == 0.0) continue;
        (*grad_bias)[oc] += go;
        for (size_t ic = 0; ic < in_ch; ++ic) {
          for (size_t k = 0; k < kernel; ++k) {
            const long ti = static_cast<long>(to * stride + k * dilation) -
                            static_cast<long>(padding);
            if (ti < 0 || ti >= static_cast<long>(t_in)) continue;
            const size_t tiu = static_cast<size_t>(ti);
            grad_weight->At(oc, ic, k) += go * input.At(b, ic, tiu);
            grad_input.At(b, ic, tiu) += go * weight.At(oc, ic, k);
          }
        }
      }
    }
  }
  return grad_input;
}

Tensor RefConv2dForward(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, size_t stride, size_t padding) {
  const size_t batch = input.dim(0), in_ch = input.dim(1);
  const size_t h_in = input.dim(2), w_in = input.dim(3);
  const size_t out_ch = weight.dim(0), kernel = weight.dim(2);
  const size_t h_out = (h_in + 2 * padding - kernel) / stride + 1;
  const size_t w_out = (w_in + 2 * padding - kernel) / stride + 1;
  Tensor out({batch, out_ch, h_out, w_out});
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_ch; ++oc) {
      for (size_t ho = 0; ho < h_out; ++ho) {
        for (size_t wo = 0; wo < w_out; ++wo) {
          double acc = bias[oc];
          for (size_t ic = 0; ic < in_ch; ++ic) {
            for (size_t kh = 0; kh < kernel; ++kh) {
              const long hi = static_cast<long>(ho * stride + kh) -
                              static_cast<long>(padding);
              if (hi < 0 || hi >= static_cast<long>(h_in)) continue;
              for (size_t kw = 0; kw < kernel; ++kw) {
                const long wi = static_cast<long>(wo * stride + kw) -
                                static_cast<long>(padding);
                if (wi < 0 || wi >= static_cast<long>(w_in)) continue;
                acc += weight.At(oc, ic, kh, kw) *
                       input.At(b, ic, static_cast<size_t>(hi),
                                static_cast<size_t>(wi));
              }
            }
          }
          out.At(b, oc, ho, wo) = acc;
        }
      }
    }
  }
  return out;
}

Tensor RefConv2dBackward(const Tensor& input, const Tensor& weight,
                         const Tensor& grad_output, size_t stride,
                         size_t padding, Tensor* grad_weight,
                         Tensor* grad_bias) {
  const size_t batch = input.dim(0), in_ch = input.dim(1);
  const size_t h_in = input.dim(2), w_in = input.dim(3);
  const size_t out_ch = weight.dim(0), kernel = weight.dim(2);
  const size_t h_out = grad_output.dim(2), w_out = grad_output.dim(3);
  Tensor grad_input(input.shape());
  for (size_t b = 0; b < batch; ++b) {
    for (size_t oc = 0; oc < out_ch; ++oc) {
      for (size_t ho = 0; ho < h_out; ++ho) {
        for (size_t wo = 0; wo < w_out; ++wo) {
          const double go = grad_output.At(b, oc, ho, wo);
          if (go == 0.0) continue;
          (*grad_bias)[oc] += go;
          for (size_t ic = 0; ic < in_ch; ++ic) {
            for (size_t kh = 0; kh < kernel; ++kh) {
              const long hi = static_cast<long>(ho * stride + kh) -
                              static_cast<long>(padding);
              if (hi < 0 || hi >= static_cast<long>(h_in)) continue;
              for (size_t kw = 0; kw < kernel; ++kw) {
                const long wi = static_cast<long>(wo * stride + kw) -
                                static_cast<long>(padding);
                if (wi < 0 || wi >= static_cast<long>(w_in)) continue;
                const size_t hiu = static_cast<size_t>(hi);
                const size_t wiu = static_cast<size_t>(wi);
                grad_weight->At(oc, ic, kh, kw) +=
                    go * input.At(b, ic, hiu, wiu);
                grad_input.At(b, ic, hiu, wiu) +=
                    go * weight.At(oc, ic, kh, kw);
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

using Conv1dParam = std::tuple<size_t /*stride*/, size_t /*pad*/,
                               size_t /*dilation*/, size_t /*kernel*/>;

class Conv1dPropertyTest : public ::testing::TestWithParam<Conv1dParam> {};

TEST_P(Conv1dPropertyTest, ForwardMatchesReference) {
  const auto stride = std::get<0>(GetParam());
  const auto pad = std::get<1>(GetParam());
  const auto dilation = std::get<2>(GetParam());
  const auto kernel = std::get<3>(GetParam());
  Rng rng(stride * 100 + pad * 10 + dilation + kernel);
  Conv1d conv(3, 2, kernel, &rng, stride, pad, dilation);
  Tensor x = Tensor::RandomNormal({2, 3, 12}, &rng);
  Tensor y = conv.Forward(x, false);
  const Tensor ref = RefConv1dForward(x, *conv.Params()[0], *conv.Params()[1],
                                      stride, pad, dilation);
  ASSERT_EQ(y.shape(), ref.shape());
  EXPECT_NEAR(y.MaxAbsDiff(ref), 0.0, 1e-10);
}

TEST_P(Conv1dPropertyTest, BackwardIsLinearInUpstreamGradient) {
  // Backward(g1 + g2) == Backward(g1) + Backward(g2) for the input grad,
  // and parameter grads accumulate identically.
  const auto stride = std::get<0>(GetParam());
  const auto pad = std::get<1>(GetParam());
  const auto dilation = std::get<2>(GetParam());
  const auto kernel = std::get<3>(GetParam());
  Rng rng(stride + pad * 7 + dilation * 13 + kernel * 29);
  Conv1d conv(2, 3, kernel, &rng, stride, pad, dilation);
  Tensor x = Tensor::RandomNormal({1, 2, 12}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor g1 = Tensor::RandomNormal(y.shape(), &rng);
  Tensor g2 = Tensor::RandomNormal(y.shape(), &rng);

  conv.ZeroGrads();
  Tensor gi_sum = conv.Backward(g1 + g2);
  Tensor gw_sum = *conv.Grads()[0];

  conv.ZeroGrads();
  Tensor gi_split = conv.Backward(g1);
  gi_split += conv.Backward(g2);
  Tensor gw_split = *conv.Grads()[0];

  EXPECT_NEAR(gi_sum.MaxAbsDiff(gi_split), 0.0, 1e-10);
  EXPECT_NEAR(gw_sum.MaxAbsDiff(gw_split), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conv1dPropertyTest,
    ::testing::Values(Conv1dParam{1, 0, 1, 3}, Conv1dParam{1, 1, 1, 3},
                      Conv1dParam{2, 0, 1, 3}, Conv1dParam{1, 2, 2, 3},
                      Conv1dParam{2, 2, 2, 5}, Conv1dParam{1, 0, 3, 2},
                      Conv1dParam{3, 1, 1, 4}),
    [](const auto& param_info) {
      return "s" + std::to_string(std::get<0>(param_info.param)) + "p" +
             std::to_string(std::get<1>(param_info.param)) + "d" +
             std::to_string(std::get<2>(param_info.param)) + "k" +
             std::to_string(std::get<3>(param_info.param));
    });

// --- Conv2d ---------------------------------------------------------------

using Conv2dParam = std::tuple<size_t /*stride*/, size_t /*pad*/,
                               size_t /*kernel*/>;

class Conv2dPropertyTest : public ::testing::TestWithParam<Conv2dParam> {};

TEST_P(Conv2dPropertyTest, ForwardMatchesReference) {
  const auto stride = std::get<0>(GetParam());
  const auto pad = std::get<1>(GetParam());
  const auto kernel = std::get<2>(GetParam());
  Rng rng(stride * 31 + pad * 7 + kernel);
  Conv2d conv(2, 2, kernel, &rng, stride, pad);
  Tensor x = Tensor::RandomNormal({1, 2, 8, 8}, &rng);
  Tensor y = conv.Forward(x, false);
  const Tensor ref =
      RefConv2dForward(x, *conv.Params()[0], *conv.Params()[1], stride, pad);
  ASSERT_EQ(y.shape(), ref.shape());
  EXPECT_NEAR(y.MaxAbsDiff(ref), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conv2dPropertyTest,
    ::testing::Values(Conv2dParam{1, 0, 3}, Conv2dParam{1, 1, 3},
                      Conv2dParam{2, 0, 3}, Conv2dParam{2, 2, 5},
                      Conv2dParam{1, 0, 1}, Conv2dParam{3, 1, 2}),
    [](const auto& param_info) {
      return "s" + std::to_string(std::get<0>(param_info.param)) + "p" +
             std::to_string(std::get<1>(param_info.param)) + "k" +
             std::to_string(std::get<2>(param_info.param));
    });

// --- Byte identity against the original scalar loops --------------------

constexpr size_t kThreadCounts[] = {1, 2, 8};

// Every element must have the same bytes, except that any NaN matches any
// NaN: which NaN an operation on two NaNs returns depends on the operand
// order the compiler picks, which C++ leaves open.
void ExpectSameBytes(const Tensor& got, const Tensor& want,
                     const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  size_t differing = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double a = got.data()[i];
    const double b = want.data()[i];
    if (std::isnan(a) && std::isnan(b)) continue;
    if (std::memcmp(&a, &b, sizeof(double)) != 0) ++differing;
  }
  EXPECT_EQ(differing, 0u) << what;
}

// Draws N(0, 1) entries with about a quarter of them exactly ±0, so the
// kernels' zero-gradient skips and signed-zero sums are exercised.
Tensor WithZeros(std::vector<size_t> shape, Rng* rng) {
  Tensor t = Tensor::RandomNormal(std::move(shape), rng);
  for (size_t i = 0; i < t.size(); ++i) {
    const uint64_t r = rng->UniformInt(8);
    if (r == 0) t[i] = 0.0;
    if (r == 1) t[i] = -0.0;
  }
  return t;
}

// Runs Forward and two Backward calls (no ZeroGrads in between, so the
// parameter gradients accumulate) at every thread count, comparing every
// byte with the reference loops, then the same two calls through
// BackwardParams, which must leave the same parameter gradients.
// `ref_forward`/`ref_backward` close over the layer's hyper-parameters.
// Returns whether the 8-thread run fanned out over the pool rather than
// running inline (needs metrics enabled).
template <typename Conv, typename RefForward, typename RefBackward>
bool CheckConvBytes(Conv* conv, const Tensor& x, Rng* rng,
                    const RefForward& ref_forward,
                    const RefBackward& ref_backward,
                    const std::string& what) {
  const obs::Counter* regions =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.regions");
  uint64_t regions_before = 0;
  const Tensor weight = *conv->Params()[0];
  const Tensor bias = *conv->Params()[1];
  const Tensor want_out = ref_forward(x, weight, bias);
  const Tensor g1 = WithZeros(want_out.shape(), rng);
  const Tensor g2 = WithZeros(want_out.shape(), rng);
  Tensor want_gw(weight.shape());
  Tensor want_gb(bias.shape());
  const Tensor want_gi1 = ref_backward(x, weight, g1, &want_gw, &want_gb);
  const Tensor want_gi2 = ref_backward(x, weight, g2, &want_gw, &want_gb);
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    const std::string at = what + " threads=" + std::to_string(threads);
    regions_before = regions->value();
    conv->ZeroGrads();
    ExpectSameBytes(conv->Forward(x, true), want_out, at + " forward");
    ExpectSameBytes(conv->Backward(g1), want_gi1, at + " grad_input 1");
    ExpectSameBytes(conv->Backward(g2), want_gi2, at + " grad_input 2");
    ExpectSameBytes(*conv->Grads()[0], want_gw, at + " grad_weight");
    ExpectSameBytes(*conv->Grads()[1], want_gb, at + " grad_bias");
    conv->ZeroGrads();
    conv->BackwardParams(g1);
    conv->BackwardParams(g2);
    ExpectSameBytes(*conv->Grads()[0], want_gw, at + " params-only weight");
    ExpectSameBytes(*conv->Grads()[1], want_gb, at + " params-only bias");
  }
  const bool fanned_out = regions->value() > regions_before;
  SetNumThreads(0);
  return fanned_out;
}

// Enables metrics for one test so the pool's region counter runs.
class ConvByteIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetMetricsEnabled(true); }
  void TearDown() override { obs::SetMetricsEnabled(metrics_were_on_); }

 private:
  const bool metrics_were_on_ = obs::MetricsEnabled();
};

size_t Draw(Rng* rng, size_t lo, size_t hi) {  // Uniform in [lo, hi].
  return lo + static_cast<size_t>(rng->UniformInt(hi - lo + 1));
}

// Odd cases are large: at least ~1.5e5 multiply-adds, above the kernels'
// inline cut-off, so they fan out over the pool; even cases are small and
// mostly run inline. Both paths must match the reference.
constexpr int kCases = 16;

TEST_F(ConvByteIdentityTest, Conv2dMatchesScalarLoopsAtAnyThreadCount) {
  Rng rng(2024);
  int fanned_out = 0;
  for (int c = 0; c < kCases; ++c) {
    const bool large = c % 2 == 1;
    const size_t kernel = Draw(&rng, large ? 3 : 1, 7);
    const size_t stride = Draw(&rng, 1, 3);
    const size_t pad = Draw(&rng, 0, 3);
    const size_t batch = Draw(&rng, large ? 4 : 1, 6);
    const size_t in_ch = large ? 3 : Draw(&rng, 1, 3);
    const size_t out_ch = large ? 6 : Draw(&rng, 1, 4);
    // Input extent for `out` output positions (at least 1).
    auto extent = [&](size_t out) {
      const size_t span = (out - 1) * stride + kernel;
      return span > 2 * pad ? span - 2 * pad : 1;
    };
    const size_t h = extent(large ? Draw(&rng, 16, 20) : Draw(&rng, 1, 6));
    const size_t w = extent(large ? Draw(&rng, 16, 20) : Draw(&rng, 1, 6));
    Conv2d conv(in_ch, out_ch, kernel, &rng, stride, pad);
    const Tensor x = WithZeros({batch, in_ch, h, w}, &rng);
    fanned_out += CheckConvBytes(
        &conv, x, &rng,
        [&](const Tensor& in, const Tensor& wt, const Tensor& b) {
          return RefConv2dForward(in, wt, b, stride, pad);
        },
        [&](const Tensor& in, const Tensor& wt, const Tensor& g, Tensor* gw,
            Tensor* gb) {
          return RefConv2dBackward(in, wt, g, stride, pad, gw, gb);
        },
        "case " + std::to_string(c) + " " + conv.Name() + " input " +
            x.ShapeString());
  }
  EXPECT_GE(fanned_out, kCases / 2);
  EXPECT_LT(fanned_out, kCases);
}

TEST_F(ConvByteIdentityTest, Conv1dMatchesScalarLoopsAtAnyThreadCount) {
  Rng rng(2025);
  int fanned_out = 0;
  for (int c = 0; c < kCases; ++c) {
    const bool large = c % 2 == 1;
    const size_t kernel = Draw(&rng, large ? 3 : 1, 7);
    const size_t stride = Draw(&rng, 1, 3);
    const size_t pad = Draw(&rng, 0, 3);
    const size_t dilation = Draw(&rng, 1, 3);
    const size_t batch = Draw(&rng, large ? 4 : 1, 6);
    const size_t in_ch = large ? 8 : Draw(&rng, 1, 6);
    const size_t out_ch = large ? 16 : Draw(&rng, 1, 16);
    const size_t t_out = large ? Draw(&rng, 100, 140) : Draw(&rng, 1, 12);
    const size_t span = (t_out - 1) * stride + dilation * (kernel - 1) + 1;
    const size_t t = span > 2 * pad ? span - 2 * pad : 1;
    Conv1d conv(in_ch, out_ch, kernel, &rng, stride, pad, dilation);
    const Tensor x = WithZeros({batch, in_ch, t}, &rng);
    fanned_out += CheckConvBytes(
        &conv, x, &rng,
        [&](const Tensor& in, const Tensor& wt, const Tensor& b) {
          return RefConv1dForward(in, wt, b, stride, pad, dilation);
        },
        [&](const Tensor& in, const Tensor& wt, const Tensor& g, Tensor* gw,
            Tensor* gb) {
          return RefConv1dBackward(in, wt, g, stride, pad, dilation, gw,
                                   gb);
        },
        "case " + std::to_string(c) + " " + conv.Name() + " input " +
            x.ShapeString());
  }
  EXPECT_GE(fanned_out, kCases / 2);
  EXPECT_LT(fanned_out, kCases);
}

TEST_F(ConvByteIdentityTest, NanInputPoisonsExactlyTheOutputsThatReadIt) {
  Rng rng(7);
  const size_t kernel = 3, stride = 2, pad = 1;
  Conv2d conv(2, 8, kernel, &rng, stride, pad);
  Tensor x = Tensor::RandomNormal({2, 2, 48, 48}, &rng);
  const size_t nan_b = 1, nan_ic = 1, nan_h = 9, nan_w = 0;
  x.At(nan_b, nan_ic, nan_h, nan_w) = std::numeric_limits<double>::quiet_NaN();
  const Tensor weight = *conv.Params()[0];
  const Tensor bias = *conv.Params()[1];
  const Tensor want = RefConv2dForward(x, weight, bias, stride, pad);
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    const Tensor y = conv.Forward(x, false);
    ExpectSameBytes(y, want, "threads=" + std::to_string(threads));
    size_t poisoned = 0;
    for (size_t b = 0; b < y.dim(0); ++b) {
      for (size_t oc = 0; oc < y.dim(1); ++oc) {
        for (size_t ho = 0; ho < y.dim(2); ++ho) {
          for (size_t wo = 0; wo < y.dim(3); ++wo) {
            const long dh = static_cast<long>(nan_h + pad) -
                            static_cast<long>(ho * stride);
            const long dw = static_cast<long>(nan_w + pad) -
                            static_cast<long>(wo * stride);
            const bool reads = b == nan_b && dh >= 0 &&
                               dh < static_cast<long>(kernel) && dw >= 0 &&
                               dw < static_cast<long>(kernel);
            EXPECT_EQ(std::isnan(y.At(b, oc, ho, wo)), reads)
                << b << " " << oc << " " << ho << " " << wo;
            poisoned += reads ? 1 : 0;
          }
        }
      }
    }
    EXPECT_EQ(poisoned, 8u * 2u);  // 8 channels × the 2 windows over it.
  }
  SetNumThreads(0);
}

TEST_F(ConvByteIdentityTest, NonFiniteValuesPropagateAsInScalarLoops) {
  // A NaN input and an infinite weight: a zero upstream gradient must still
  // skip its terms (0 · NaN and 0 · Inf would be NaN), exactly as the
  // reference loops do.
  Rng rng(8);
  const size_t kernel = 5, stride = 1, pad = 2;
  Conv2d conv(2, 6, kernel, &rng, stride, pad);
  Tensor x = WithZeros({3, 2, 20, 20}, &rng);
  x.At(2, 0, 7, 19) = std::numeric_limits<double>::quiet_NaN();
  conv.Params()[0]->At(4, 1, 2, 3) = std::numeric_limits<double>::infinity();
  CheckConvBytes(
      &conv, x, &rng,
      [&](const Tensor& in, const Tensor& wt, const Tensor& b) {
        return RefConv2dForward(in, wt, b, stride, pad);
      },
      [&](const Tensor& in, const Tensor& wt, const Tensor& g, Tensor* gw,
          Tensor* gb) {
        return RefConv2dBackward(in, wt, g, stride, pad, gw, gb);
      },
      "non-finite");
}

TEST_F(ConvByteIdentityTest, PoolingMatchesScalarLoops) {
  Rng rng(11);
  for (size_t window : {1u, 2u, 3u}) {
    Tensor x = WithZeros({3, 4, 7, 8}, &rng);
    x.At(1, 2, 3, 3) = std::numeric_limits<double>::quiet_NaN();
    const size_t h_out = 7 / window, w_out = 8 / window;
    Tensor want({3, 4, h_out, w_out});
    std::vector<size_t> argmax;
    for (size_t b = 0; b < 3; ++b) {
      for (size_t c = 0; c < 4; ++c) {
        for (size_t ho = 0; ho < h_out; ++ho) {
          for (size_t wo = 0; wo < w_out; ++wo) {
            double best = -std::numeric_limits<double>::infinity();
            size_t best_idx = 0;
            for (size_t kh = 0; kh < window; ++kh) {
              for (size_t kw = 0; kw < window; ++kw) {
                const size_t idx =
                    ((b * 4 + c) * 7 + ho * window + kh) * 8 + wo * window +
                    kw;
                if (x[idx] > best) {
                  best = x[idx];
                  best_idx = idx;
                }
              }
            }
            want.At(b, c, ho, wo) = best;
            argmax.push_back(best_idx);
          }
        }
      }
    }
    const Tensor g = WithZeros(want.shape(), &rng);
    Tensor want_gi(x.shape());
    for (size_t i = 0; i < argmax.size(); ++i) want_gi[argmax[i]] += g[i];
    MaxPool2d pool(window);
    const std::string what = "window=" + std::to_string(window);
    ExpectSameBytes(pool.Forward(x, true), want, what);
    ExpectSameBytes(pool.Backward(g), want_gi, what);
  }

  const Tensor x = WithZeros({3, 5, 6, 7}, &rng);
  Tensor want({3, 5});
  for (size_t b = 0; b < 3; ++b) {
    for (size_t c = 0; c < 5; ++c) {
      double s = 0.0;
      for (size_t h = 0; h < 6; ++h) {
        for (size_t w = 0; w < 7; ++w) s += x.At(b, c, h, w);
      }
      want.At(b, c) = s / 42.0;
    }
  }
  const Tensor g = WithZeros({3, 5}, &rng);
  Tensor want_gi(x.shape());
  for (size_t b = 0; b < 3; ++b) {
    for (size_t c = 0; c < 5; ++c) {
      for (size_t h = 0; h < 6; ++h) {
        for (size_t w = 0; w < 7; ++w) {
          want_gi.At(b, c, h, w) = g.At(b, c) * (1.0 / 42.0);
        }
      }
    }
  }
  GlobalAvgPool2d gap;
  ExpectSameBytes(gap.Forward(x, true), want, "global avg pool");
  ExpectSameBytes(gap.Backward(g), want_gi, "global avg pool backward");
}

TEST_F(ConvByteIdentityTest, MultiColumnConcatAndSplitMatchBranches) {
  Rng rng(13);
  auto column = [&](size_t kernel) {
    auto branch = std::make_unique<Sequential>();
    branch->Emplace<Conv2d>(1, 3, kernel, &rng, 1, kernel / 2);
    branch->Emplace<GlobalAvgPool2d>();
    return branch;
  };
  MultiColumn mc;
  std::vector<std::unique_ptr<Sequential>> copies;
  for (size_t kernel : {1u, 3u, 5u}) {
    auto branch = column(kernel);
    copies.push_back(branch->CloneSequential());
    mc.AddBranch(std::move(branch));
  }
  const Tensor x = WithZeros({4, 1, 9, 9}, &rng);
  const Tensor g = WithZeros({4, 9}, &rng);
  Tensor want({4, 9});
  Tensor want_gi;
  for (size_t k = 0; k < copies.size(); ++k) {
    const Tensor y = copies[k]->Forward(x, true);
    Tensor gk({4, 3});
    for (size_t b = 0; b < 4; ++b) {
      for (size_t j = 0; j < 3; ++j) {
        want.At(b, 3 * k + j) = y.At(b, j);
        gk.At(b, j) = g.At(b, 3 * k + j);
      }
    }
    const Tensor gi = copies[k]->Backward(gk);
    if (k == 0) {
      want_gi = gi;
    } else {
      want_gi += gi;
    }
  }
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    const std::string what = "threads=" + std::to_string(threads);
    ExpectSameBytes(mc.Forward(x, true), want, what);
    ExpectSameBytes(mc.Backward(g), want_gi, what);
  }
  SetNumThreads(0);
}

}  // namespace
}  // namespace tasfar
