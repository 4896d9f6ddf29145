// Dense-layer batch microkernels for Mlp training and inference.
//
// dense_forward computes, for a block of rows,
//
//   out[r][o] = bias[o] + sum_i w[o][i] * in[r][i]   (i ascending)
//
// which is exactly a per-row dot-product loop. The AVX2 tier packs a
// 4-row panel of the input transposed (panel[i*4 + lane] = in[r+lane][i])
// so the inner product becomes contiguous vector loads, broadcasts one
// weight at a time, and accumulates with separate mul + add — each SIMD
// lane runs one row's scalar FP sequence unchanged, so the AVX2 tier is
// bit-identical to the scalar one.
//
// dense_backward is the matching gradient step of a mini-batch. Every
// element keeps the order of additions of a per-row backward pass that
// visits the batch rows in ascending order:
//
//   gw[o][i] += d[r][o] * in[r][i]   r ascending
//   gb[o]    += d[r][o]              r ascending
//   din[r][i] = +0.0 + sum_o d[r][o] * w[o][i]   o ascending
//
// and a term whose delta d[r][o] is exactly zero (+0.0 or -0.0) is
// skipped rather than added, since adding a signed zero could flip the
// sign of a zero accumulator. Both tiers vectorize only across
// independent elements (different i), so the AVX2 tier is bit-identical
// to the scalar one.
//
// adam_update applies the optimizer step to one parameter array. Every
// element is independent and each tier runs the same sequence of
// correctly rounded operations (mul, add, div, sqrt) per element, so
// the tiers agree bit for bit.
#pragma once

#include <cstddef>

namespace iotax::ml::kernels {

/// in: n_rows x in_dim row-major block (contiguous, stride == in_dim).
/// w:  out_dim x in_dim row-major weights. out: n_rows x out_dim.
void dense_forward(const double* in, std::size_t n_rows, std::size_t in_dim,
                   const double* w, const double* bias, std::size_t out_dim,
                   double* out);

/// in:   n_rows x in_dim layer input (contiguous).
/// dout: n_rows x out_dim deltas of the layer's pre-activations.
/// w:    out_dim x in_dim row-major weights.
/// gw (out_dim x in_dim) and gb (out_dim) are accumulated into, not
/// overwritten. din (n_rows x in_dim) is overwritten with the deltas of
/// the layer input; pass nullptr when they are not needed.
void dense_backward(const double* in, const double* dout, std::size_t n_rows,
                    std::size_t in_dim, const double* w, std::size_t out_dim,
                    double* gw, double* gb, double* din);

/// Adam's fixed moment decays (beta1, beta2) and denominator guard (eps).
inline constexpr double kAdamBeta1 = 0.9;
inline constexpr double kAdamBeta2 = 0.999;
inline constexpr double kAdamEps = 1e-8;

/// What changes per Adam step: the learning rate and decoupled weight
/// decay, gradients that arrive summed over a batch of batch_n rows,
/// and the bias corrections bc1 = 1 - beta1^t and bc2 = 1 - beta2^t.
struct AdamStep {
  double learning_rate = 1e-3;
  double weight_decay = 0.0;
  double batch_n = 1.0;
  double bc1 = 1.0;
  double bc2 = 1.0;
};

/// For each of the n parameters p[i], with moments m[i] and v[i]:
///   g = g_sum[i] / batch_n
///   m = beta1 * m + (1 - beta1) * g;   v = beta2 * v + (1 - beta2) * g * g
///   den = sqrt(v / bc2) + eps
///   decay:  p -= lr * ((m / bc1) / den + weight_decay * p)
///   else:   p -= lr * (m / bc1) / den
void adam_update(const AdamStep& step, bool decay, std::size_t n,
                 const double* g_sum, double* m, double* v, double* p);

}  // namespace iotax::ml::kernels
