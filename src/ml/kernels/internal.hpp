// Declarations of the AVX2 kernel variants, defined in the *_avx2.cpp
// translation units (the only ones compiled with -mavx2). Dispatchers
// reference these under #if defined(IOTAX_KERNELS_AVX2) so the symbols
// are never needed in a nosimd build. Also the scalar pieces both tiers
// share.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/ml/kernels/forest.hpp"
#include "src/ml/kernels/gemm.hpp"

namespace iotax::ml::kernels {

// One element of adam_update: the scalar tier's loop body and the AVX2
// tier's remainder.
inline void adam_element(const AdamStep& s, bool decay, double g_sum,
                         double& m, double& v, double& p) {
  const double g = g_sum / s.batch_n;
  m = kAdamBeta1 * m + (1.0 - kAdamBeta1) * g;
  v = kAdamBeta2 * v + (1.0 - kAdamBeta2) * g * g;
  const double mhat = m / s.bc1;
  const double den = std::sqrt(v / s.bc2) + kAdamEps;
  if (decay) {
    p -= s.learning_rate * (mhat / den + s.weight_decay * p);
  } else {
    p -= s.learning_rate * mhat / den;
  }
}

}  // namespace iotax::ml::kernels

namespace iotax::ml::kernels::avx2 {

// Forest traversal over rows [0, n_rows) for trees [t_begin, t_end).
void forest_codes(const ForestView& f, std::size_t t_begin, std::size_t t_end,
                  const std::uint16_t* codes, std::size_t stride,
                  std::size_t n_rows, double* out);

void forest_values(const ForestView& f, const double* x, std::size_t stride,
                   std::size_t n_rows, double* out);

void dense_forward(const double* in, std::size_t n_rows, std::size_t in_dim,
                   const double* w, const double* bias, std::size_t out_dim,
                   double* out);

void dense_backward(const double* in, const double* dout, std::size_t n_rows,
                    std::size_t in_dim, const double* w, std::size_t out_dim,
                    double* gw, double* gb, double* din);

void adam_update(const AdamStep& step, bool decay, std::size_t n,
                 const double* g_sum, double* m, double* v, double* p);

}  // namespace iotax::ml::kernels::avx2
