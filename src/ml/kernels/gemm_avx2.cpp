// AVX2 tier of the dense-layer kernels. Both directions keep up to 8
// independent accumulators in registers, so the loop is bounded by
// load and arithmetic throughput rather than by the latency of one
// add chain.
//
// The forward is a 4-row × up-to-8-output register tile over a
// transposed input panel: each SIMD lane carries one row's accumulator
// and the reduction index i ascends exactly as in the scalar loop, with
// separate mul + add, so the result is bit-identical.
// The backward vectorizes across the input index i, whose elements are
// independent, and streams the nonzero delta terms through a tile of up
// to 32 accumulators in the scalar reference's order.
//
// This TU is compiled with -ffp-contract=off, so the compiler cannot
// fuse a mul + add pair into an FMA.
#if defined(IOTAX_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "src/ml/kernels/internal.hpp"
#include "src/util/aligned.hpp"

namespace iotax::ml::kernels::avx2 {

namespace {

// Widest tile, in vectors: 8 accumulators plus the broadcast and load
// temporaries fit the 16 ymm registers.
constexpr int kMaxTile = 8;

inline void store_lanes(__m256d acc, double* out, std::size_t stride) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  out[0] = lanes[0];
  out[stride] = lanes[1];
  out[2 * stride] = lanes[2];
  out[3 * stride] = lanes[3];
}

// out[lane][v] = bias[v] + sum_i w[v][i] * panel[i][lane] for V
// consecutive outputs of a 4-row panel (panel[i*4 + lane]).
template <int V>
void forward_tile(const double* panel, std::size_t in_dim, const double* w,
                  const double* bias, double* out, std::size_t out_dim) {
  __m256d acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm256_set1_pd(bias[v]);
  for (std::size_t i = 0; i < in_dim; ++i) {
    const __m256d p = _mm256_load_pd(panel + i * 4);
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(
          acc[v], _mm256_mul_pd(_mm256_set1_pd(w[v * in_dim + i]), p));
    }
  }
  for (int v = 0; v < V; ++v) store_lanes(acc[v], out + v, out_dim);
}

using ForwardTile = void (*)(const double*, std::size_t, const double*,
                             const double*, double*, std::size_t);
constexpr ForwardTile kForwardTiles[kMaxTile + 1] = {
    nullptr,         forward_tile<1>, forward_tile<2>,
    forward_tile<3>, forward_tile<4>, forward_tile<5>,
    forward_tile<6>, forward_tile<7>, forward_tile<8>};

// The first `lanes` (1..4) lanes set.
inline __m256i lane_mask(std::size_t lanes) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(lanes)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

// acc[j] += sum_k val[k] * src[k][off + j] for j in [0, width), k
// ascending, with width in (4V - 4, 4V]; the last vector is masked to
// the width. Each element sees the same sequence of separate mul + add
// as a scalar loop over the terms.
template <int V>
void accumulate_tile(const double* const* src, const double* val,
                     std::size_t n_terms, std::size_t off, std::size_t width,
                     double* acc) {
  // The unroll pragmas keep `a` in registers: left to itself GCC -O3
  // stores the array back to the stack on every term.
  constexpr int kFull = V - 1;
  const __m256i tail = lane_mask(width - 4 * kFull);
  __m256d a[V];
#pragma GCC unroll 8
  for (int v = 0; v < kFull; ++v) a[v] = _mm256_loadu_pd(acc + 4 * v);
  __m256d last = _mm256_maskload_pd(acc + 4 * kFull, tail);
  for (std::size_t k = 0; k < n_terms; ++k) {
    const __m256d d = _mm256_set1_pd(val[k]);
    const double* s = src[k] + off;
#pragma GCC unroll 8
    for (int v = 0; v < kFull; ++v) {
      a[v] = _mm256_add_pd(a[v], _mm256_mul_pd(d, _mm256_loadu_pd(s + 4 * v)));
    }
    last = _mm256_add_pd(
        last, _mm256_mul_pd(d, _mm256_maskload_pd(s + 4 * kFull, tail)));
  }
#pragma GCC unroll 8
  for (int v = 0; v < kFull; ++v) _mm256_storeu_pd(acc + 4 * v, a[v]);
  _mm256_maskstore_pd(acc + 4 * kFull, tail, last);
}

using AccumulateTile = void (*)(const double* const*, const double*,
                                std::size_t, std::size_t, std::size_t,
                                double*);
constexpr AccumulateTile kAccumulateTiles[kMaxTile + 1] = {
    nullptr,            accumulate_tile<1>, accumulate_tile<2>,
    accumulate_tile<3>, accumulate_tile<4>, accumulate_tile<5>,
    accumulate_tile<6>, accumulate_tile<7>, accumulate_tile<8>};

}  // namespace

void dense_forward(const double* in, std::size_t n_rows, std::size_t in_dim,
                   const double* w, const double* bias, std::size_t out_dim,
                   double* out) {
  // Pool workers are long-lived; the panel grows to the widest layer
  // seen and stays.
  static thread_local util::aligned_vector<double> panel;
  if (panel.size() < in_dim * 4) panel.resize(in_dim * 4);

  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    // Transpose a 4-row panel: panel[i*4 + lane] = in[r+lane][i], so the
    // inner product loads one contiguous vector per reduction step.
    for (std::size_t i = 0; i < in_dim; ++i) {
      panel[i * 4 + 0] = in[(r + 0) * in_dim + i];
      panel[i * 4 + 1] = in[(r + 1) * in_dim + i];
      panel[i * 4 + 2] = in[(r + 2) * in_dim + i];
      panel[i * 4 + 3] = in[(r + 3) * in_dim + i];
    }
    double* orow = out + r * out_dim;
    for (std::size_t o = 0; o < out_dim; o += kMaxTile) {
      const std::size_t v = std::min<std::size_t>(kMaxTile, out_dim - o);
      kForwardTiles[v](panel.data(), in_dim, w + o * in_dim, bias + o,
                       orow + o, out_dim);
    }
  }
  // Row remainder: the scalar reference loop.
  for (; r < n_rows; ++r) {
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

void dense_backward(const double* in, const double* dout, std::size_t n_rows,
                    std::size_t in_dim, const double* w, std::size_t out_dim,
                    double* gw, double* gb, double* din) {
  // Nonzero terms of every sum, in ascending order, grouped per sum
  // (CSR style): the zero-delta skip of the scalar reference, hoisted
  // out of the vector loops. Sum o of gw runs over rows r; sum r of din
  // runs over outputs o. Every candidate term is written and the count
  // advances only past nonzero ones, so the build has no branch to
  // mispredict on ReLU-sparse deltas.
  struct Terms {
    std::vector<std::size_t> start;
    std::vector<const double*> src;
    std::vector<double> val;
    std::size_t n = 0;
    void reset(std::size_t n_sums, std::size_t max_terms) {
      start.resize(n_sums + 1);
      if (src.size() < max_terms) {
        src.resize(max_terms);
        val.resize(max_terms);
      }
      n = 0;
    }
    void add(const double* s, double v) {
      src[n] = s;
      val[n] = v;
      n += v != 0.0 ? 1 : 0;
    }
  };
  static thread_local Terms cols;
  static thread_local Terms rows;

  cols.reset(out_dim, n_rows * out_dim);
  for (std::size_t o = 0; o < out_dim; ++o) {
    cols.start[o] = cols.n;
    for (std::size_t r = 0; r < n_rows; ++r) {
      cols.add(in + r * in_dim, dout[r * out_dim + o]);
    }
    // gb[o] += d[r][o], r ascending.
    for (std::size_t k = cols.start[o]; k < cols.n; ++k) gb[o] += cols.val[k];
  }
  cols.start[out_dim] = cols.n;
  if (din != nullptr) {
    rows.reset(n_rows, n_rows * out_dim);
    for (std::size_t r = 0; r < n_rows; ++r) {
      rows.start[r] = rows.n;
      for (std::size_t o = 0; o < out_dim; ++o) {
        rows.add(w + o * in_dim, dout[r * out_dim + o]);
      }
    }
    rows.start[n_rows] = rows.n;
    std::fill(din, din + n_rows * in_dim, 0.0);
  }

  // One column tile at a time, so the slices of `in` and `w` it reads
  // stay in L1 across every sum instead of streaming from L2 per sum.
  constexpr std::size_t kTileWidth = 4 * kMaxTile;
  for (std::size_t off = 0; off < in_dim; off += kTileWidth) {
    const std::size_t width = std::min(kTileWidth, in_dim - off);
    const AccumulateTile tile = kAccumulateTiles[(width + 3) / 4];
    // gw[o][.] += d[r][o] * in[r][.], r ascending.
    for (std::size_t o = 0; o < out_dim; ++o) {
      const std::size_t k = cols.start[o];
      tile(cols.src.data() + k, cols.val.data() + k, cols.start[o + 1] - k,
           off, width, gw + o * in_dim + off);
    }
    if (din == nullptr) continue;
    // din[r][.] = +0.0 + d[r][o] * w[o][.], o ascending.
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::size_t k = rows.start[r];
      tile(rows.src.data() + k, rows.val.data() + k, rows.start[r + 1] - k,
           off, width, din + r * in_dim + off);
    }
  }
}

void adam_update(const AdamStep& step, bool decay, std::size_t n,
                 const double* g_sum, double* m, double* v, double* p) {
  const __m256d batch_n = _mm256_set1_pd(step.batch_n);
  const __m256d beta1 = _mm256_set1_pd(kAdamBeta1);
  const __m256d beta1c = _mm256_set1_pd(1.0 - kAdamBeta1);
  const __m256d beta2 = _mm256_set1_pd(kAdamBeta2);
  const __m256d beta2c = _mm256_set1_pd(1.0 - kAdamBeta2);
  const __m256d bc1 = _mm256_set1_pd(step.bc1);
  const __m256d bc2 = _mm256_set1_pd(step.bc2);
  const __m256d eps = _mm256_set1_pd(kAdamEps);
  const __m256d lr = _mm256_set1_pd(step.learning_rate);
  const __m256d wd = _mm256_set1_pd(step.weight_decay);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_div_pd(_mm256_loadu_pd(g_sum + i), batch_n);
    const __m256d mi =
        _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                      _mm256_mul_pd(beta1c, g));
    const __m256d vi = _mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(beta2c, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d den =
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vi, bc2)), eps);
    const __m256d pi = _mm256_loadu_pd(p + i);
    const __m256d upd =
        decay ? _mm256_mul_pd(lr, _mm256_add_pd(_mm256_div_pd(mhat, den),
                                                _mm256_mul_pd(wd, pi)))
              : _mm256_div_pd(_mm256_mul_pd(lr, mhat), den);
    _mm256_storeu_pd(p + i, _mm256_sub_pd(pi, upd));
  }
  for (; i < n; ++i) adam_element(step, decay, g_sum[i], m[i], v[i], p[i]);
}

}  // namespace iotax::ml::kernels::avx2

#endif  // IOTAX_KERNELS_AVX2
