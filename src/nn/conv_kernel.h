#ifndef TASFAR_NN_CONV_KERNEL_H_
#define TASFAR_NN_CONV_KERNEL_H_

#include <cstddef>

namespace tasfar {

/// One spatial axis of a convolution. Output position `o` reads input
/// position `o * stride + k * dilation - padding` through tap `k`; taps
/// that land outside [0, in) read the zero padding and are skipped.
struct ConvAxis {
  size_t in = 1;
  size_t out = 1;
  size_t kernel = 1;
  size_t stride = 1;
  size_t padding = 0;
  size_t dilation = 1;
};

/// Shapes of one convolution over row-major {batch, channels, h, w}
/// tensors with {out_ch, in_ch, kernel_h, kernel_w} weights. Conv1d is the
/// case of a unit h axis ({batch, channels, time} is {batch, channels, 1,
/// time} in memory).
struct ConvGeometry {
  size_t batch = 0;
  size_t in_channels = 0;
  size_t out_channels = 0;
  ConvAxis h;
  ConvAxis w;
};

/// out = bias + weight ⋆ x. Sharded over (batch, out_channel) planes on
/// the global pool; each element adds its taps in (in_channel, kh, kw)
/// order, so the result is the same bytes at every thread count.
void ConvForward(const ConvGeometry& g, const double* x, const double* weight,
                 const double* bias, double* out);

/// Adds the weight and bias gradients of upstream `grad_out` into
/// `grad_weight`/`grad_bias` and overwrites `grad_input` with the input
/// gradient; a null `grad_input` means parameter gradients only. Each
/// weight element sums its (batch, ho, wo) terms and each input element
/// its (out_channel, ho, wo) terms in ascending order, skipping zero
/// upstream gradients; byte-identical at every thread count. The outputs
/// must not overlap each other or the inputs; take them on the calling
/// thread (a mutable `Tensor::data()` may detach, which workers must not
/// do).
void ConvBackward(const ConvGeometry& g, const double* x, const double* weight,
                  const double* grad_out, double* grad_weight,
                  double* grad_bias, double* grad_input);

}  // namespace tasfar

#endif  // TASFAR_NN_CONV_KERNEL_H_
