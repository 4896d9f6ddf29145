#include "src/ml/kernels/gemm.hpp"

#include <algorithm>

#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/internal.hpp"

namespace iotax::ml::kernels {

namespace {

// Literal transcription of the per-row dense loop — the reference
// the AVX2 tier must match bit for bit.
void dense_forward_scalar(const double* in, std::size_t n_rows,
                          std::size_t in_dim, const double* w,
                          const double* bias, std::size_t out_dim,
                          double* out) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = in + r * in_dim;
    double* orow = out + r * out_dim;
    for (std::size_t o = 0; o < out_dim; ++o) {
      const double* wo = w + o * in_dim;
      double acc = bias[o];
      for (std::size_t i = 0; i < in_dim; ++i) acc += wo[i] * row[i];
      orow[o] = acc;
    }
  }
}

// Literal transcription of the per-row backward pass: rows ascending,
// outputs ascending within a row, zero deltas skipped. The reference
// the AVX2 tier must match bit for bit.
void dense_backward_scalar(const double* in, const double* dout,
                           std::size_t n_rows, std::size_t in_dim,
                           const double* w, std::size_t out_dim, double* gw,
                           double* gb, double* din) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = in + r * in_dim;
    const double* drow = dout + r * out_dim;
    double* dinrow = din != nullptr ? din + r * in_dim : nullptr;
    if (dinrow != nullptr) std::fill(dinrow, dinrow + in_dim, 0.0);
    for (std::size_t o = 0; o < out_dim; ++o) {
      const double d = drow[o];
      if (d == 0.0) continue;
      double* gwo = gw + o * in_dim;
      for (std::size_t i = 0; i < in_dim; ++i) gwo[i] += d * row[i];
      if (dinrow != nullptr) {
        const double* wo = w + o * in_dim;
        for (std::size_t i = 0; i < in_dim; ++i) dinrow[i] += d * wo[i];
      }
      gb[o] += d;
    }
  }
}

}  // namespace

void dense_forward(const double* in, std::size_t n_rows, std::size_t in_dim,
                   const double* w, const double* bias, std::size_t out_dim,
                   double* out) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::dense_forward(in, n_rows, in_dim, w, bias, out_dim, out);
    return;
  }
#endif
  dense_forward_scalar(in, n_rows, in_dim, w, bias, out_dim, out);
}

void dense_backward(const double* in, const double* dout, std::size_t n_rows,
                    std::size_t in_dim, const double* w, std::size_t out_dim,
                    double* gw, double* gb, double* din) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::dense_backward(in, dout, n_rows, in_dim, w, out_dim, gw, gb, din);
    return;
  }
#endif
  dense_backward_scalar(in, dout, n_rows, in_dim, w, out_dim, gw, gb, din);
}

void adam_update(const AdamStep& step, bool decay, std::size_t n,
                 const double* g_sum, double* m, double* v, double* p) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::adam_update(step, decay, n, g_sum, m, v, p);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    adam_element(step, decay, g_sum[i], m[i], v[i], p[i]);
  }
}

}  // namespace iotax::ml::kernels
