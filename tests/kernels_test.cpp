// Kernel equivalence suite: the AVX2 tier of every dispatched
// src/ml/kernels kernel must be BIT-identical to the scalar tier (which
// is the seed code verbatim), across randomized inputs, edge shapes, and
// the IOTAX_KERNELS × IOTAX_THREADS matrix. On machines or builds
// without AVX2 the comparisons still run — dispatch just resolves both
// sides to scalar — so the suite is green (if tautological) on the
// nosimd CI leg. The GBT split scan has one tier and is checked against
// a brute-force oracle instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/data/matrix.hpp"
#include "src/ml/binning.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/forest.hpp"
#include "src/ml/kernels/gemm.hpp"
#include "src/ml/kernels/hist.hpp"
#include "src/ml/nn.hpp"

namespace iotax {
namespace {

namespace kn = ml::kernels;

// Pin the kernel tier for one scope; restores "auto" on exit.
class ScopedKernels {
 public:
  explicit ScopedKernels(const char* policy) {
    ::setenv("IOTAX_KERNELS", policy, 1);
    kn::refresh();
  }
  ~ScopedKernels() {
    ::unsetenv("IOTAX_KERNELS");
    kn::refresh();
  }
};

class ScopedThreads {
 public:
  explicit ScopedThreads(long n) {
    ::setenv("IOTAX_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ScopedThreads() { ::unsetenv("IOTAX_THREADS"); }
};

bool avx2_active_possible() {
  return kn::avx2_compiled() && kn::avx2_supported();
}

// ---------------------------------------------------------------------
// feature_scan: the split scan against a brute-force oracle.

struct ScanCase {
  std::vector<std::uint16_t> col;   // feature-major codes, one per row
  std::vector<std::size_t> order;   // node rows
  std::vector<double> grad;         // gathered per node row
  std::size_t bins;
  kn::FeatureScanParams params;
};

ScanCase random_scan_case(std::mt19937& rng, std::size_t n_rows,
                          std::size_t bins) {
  ScanCase c;
  c.bins = bins;
  std::uniform_int_distribution<int> bin_dist(
      0, static_cast<int>(bins) - 1);
  std::normal_distribution<double> grad_dist(0.0, 3.0);
  c.col.resize(n_rows);
  for (auto& v : c.col) v = static_cast<std::uint16_t>(bin_dist(rng));
  // A shuffled subset of rows, as build_tree's partitioning produces.
  std::vector<std::size_t> all(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) all[i] = i;
  std::shuffle(all.begin(), all.end(), rng);
  const std::size_t take = n_rows == 0 ? 0 : 1 + rng() % n_rows;
  c.order.assign(all.begin(), all.begin() + static_cast<long>(take));
  c.grad.resize(c.order.size());
  double g_total = 0.0;
  for (auto& g : c.grad) {
    g = grad_dist(rng);
    g_total += g;
  }
  c.params.g_total = g_total;
  c.params.h_total = static_cast<double>(c.order.size());
  c.params.reg_lambda = 1.0;
  c.params.min_child_weight = 1.0;
  c.params.min_split_gain = 0.0;
  c.params.parent_score =
      g_total * g_total / (c.params.h_total + c.params.reg_lambda);
  return c;
}

kn::SplitScan run_scan(const ScanCase& c) {
  return kn::feature_scan(c.col.data(), c.order.data(), c.order.size(),
                          c.grad.data(), c.bins, c.params);
}

// For every split bin b, sum the rows with code <= b directly and apply
// the child-weight rule and gain formula. The scan must report a bin
// whose gain matches the oracle there and that no bin beats, or no
// split when no bin clears min_split_gain. The oracle adds in another
// order, so gains agree to a tolerance (each gain term is at most the
// sum of squared gradients), not bit for bit.
void expect_best_split(const ScanCase& c) {
  const kn::FeatureScanParams& p = c.params;
  double sum_sq = 0.0;
  for (const double g : c.grad) sum_sq += g * g;
  const double tol = 1e-9 * (1.0 + sum_sq);
  std::vector<double> gain(c.bins, -INFINITY);  // -inf: infeasible bin
  double best = p.min_split_gain;
  for (std::size_t b = 0; b + 1 < c.bins; ++b) {
    double gl = 0.0;
    double hl = 0.0;
    for (std::size_t i = 0; i < c.order.size(); ++i) {
      if (c.col[c.order[i]] > b) continue;
      gl += c.grad[i];
      hl += 1.0;
    }
    const double hr = p.h_total - hl;
    if (hl < p.min_child_weight || hr < p.min_child_weight) continue;
    const double gr = p.g_total - gl;
    gain[b] = gl * gl / (hl + p.reg_lambda) + gr * gr / (hr + p.reg_lambda) -
              p.parent_score;
    best = std::max(best, gain[b]);
  }
  const kn::SplitScan got = run_scan(c);
  if (!got.valid) {
    EXPECT_LE(best, p.min_split_gain + tol);
    return;
  }
  ASSERT_LT(got.bin + 1, c.bins);
  ASSERT_NE(gain[got.bin], -INFINITY) << "bin " << got.bin;
  EXPECT_GT(got.gain, p.min_split_gain);
  EXPECT_NEAR(got.gain, gain[got.bin], tol) << "bin " << got.bin;
  EXPECT_GE(got.gain, best - tol);
}

TEST(KernelsHist, RandomizedScanFindsBestSplit) {
  std::mt19937 rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t rows = 1 + rng() % 400;
    const std::size_t bins = 2 + rng() % 60;
    expect_best_split(random_scan_case(rng, rows, bins));
  }
}

TEST(KernelsHist, MaxBinsEdge) {
  std::mt19937 rng(11);
  expect_best_split(random_scan_case(rng, 1000, ml::kMaxBins));
}

TEST(KernelsHist, SingleRow) {
  std::mt19937 rng(13);
  expect_best_split(random_scan_case(rng, 1, 2));
}

TEST(KernelsHist, EmptyNode) {
  // n == 0: no rows reach this node, so there is no split.
  std::mt19937 rng(15);
  ScanCase c = random_scan_case(rng, 8, 4);
  c.order.clear();
  c.grad.clear();
  c.params.g_total = 0.0;
  c.params.h_total = 0.0;
  c.params.parent_score = 0.0;
  expect_best_split(c);
  EXPECT_FALSE(run_scan(c).valid);
}

TEST(KernelsHist, EmptyFeature) {
  // All rows land in bin 0 (a constant feature): no valid split.
  std::mt19937 rng(17);
  ScanCase c = random_scan_case(rng, 64, 4);
  std::fill(c.col.begin(), c.col.end(), std::uint16_t{0});
  expect_best_split(c);
  EXPECT_FALSE(run_scan(c).valid);
}

TEST(KernelsHist, SparseOffsetBins) {
  // Codes confined to a narrow high window of a wide bin space: bin 0
  // and a long suffix stay empty, so the split comes from the window.
  std::mt19937 rng(29);
  for (int rep = 0; rep < 20; ++rep) {
    ScanCase c = random_scan_case(rng, 48, 256);
    const std::uint16_t lo = static_cast<std::uint16_t>(96 + rng() % 32);
    for (auto& v : c.col) {
      v = static_cast<std::uint16_t>(lo + v % 24);
    }
    expect_best_split(c);
  }
}

TEST(KernelsHist, AllRowsInLastBin) {
  // Every row sits in the last bin, which is never a split point: every
  // left child is empty, so there is no split.
  std::mt19937 rng(31);
  ScanCase c = random_scan_case(rng, 32, 8);
  std::fill(c.col.begin(), c.col.end(), std::uint16_t{7});
  expect_best_split(c);
  EXPECT_FALSE(run_scan(c).valid);
}

TEST(KernelsHist, NegativeMinSplitGainZeroChildWeight) {
  // With min_split_gain < 0 and min_child_weight == 0 an empty left
  // child is allowed and scores +0.0 at bin 0 (untouched here), so a
  // split is always found and must still be the best one.
  std::mt19937 rng(37);
  for (int rep = 0; rep < 20; ++rep) {
    ScanCase c = random_scan_case(rng, 24, 64);
    for (auto& v : c.col) {
      v = static_cast<std::uint16_t>(20 + v % 16);  // bin 0 untouched
    }
    c.params.min_child_weight = 0.0;
    c.params.min_split_gain = -0.5;
    expect_best_split(c);
    EXPECT_TRUE(run_scan(c).valid);
  }
}

TEST(KernelsHist, ScratchInvariantAcrossCalls) {
  // A wide scan followed by narrow ones on the same thread: the
  // histogram scratch is reused, so residue from the wide scan's bins
  // would corrupt the later histograms unless each scan clears it.
  std::mt19937 rng(41);
  expect_best_split(random_scan_case(rng, 300, 128));
  for (int rep = 0; rep < 10; ++rep) {
    expect_best_split(random_scan_case(rng, 16, 2 + rng() % 127));
  }
}

// ---------------------------------------------------------------------
// PackedForest: traversal vs a reference walk of the source nodes.

using NodeDesc = kn::PackedForest::NodeDesc;

// Build a random tree in Tree::Node form: internal nodes split on a
// random feature/bin, leaves carry random values.
std::vector<NodeDesc> random_tree(std::mt19937& rng, std::size_t n_features,
                                  std::size_t bins, int depth) {
  std::vector<NodeDesc> nodes;
  std::normal_distribution<double> val(0.0, 1.0);
  // Recursive build via explicit stack of (node index, remaining depth).
  nodes.push_back({});
  std::vector<std::pair<int, int>> stack = {{0, depth}};
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    auto& n = nodes[static_cast<std::size_t>(idx)];
    if (d == 0 || rng() % 4 == 0) {  // leaf
      n.feature = -1;
      n.split_bin = -1;
      n.threshold = 0.0;
      n.left = n.right = -1;
      n.value = val(rng);
      continue;
    }
    n.feature = static_cast<int>(rng() % n_features);
    n.split_bin = static_cast<int>(rng() % (bins - 1));
    // Thresholds consistent with a 1-unit-per-bin encoding so value and
    // code traversal route identically.
    n.threshold = static_cast<double>(n.split_bin);
    const int left = static_cast<int>(nodes.size());
    n.left = left;
    n.right = left + 1;
    nodes.push_back({});  // may reallocate: `n` is dangling from here
    nodes.push_back({});
    stack.push_back({left, d - 1});
    stack.push_back({left + 1, d - 1});
  }
  return nodes;
}

double reference_codes(const std::vector<NodeDesc>& nodes,
                       const std::uint16_t* row) {
  int idx = 0;
  while (nodes[static_cast<std::size_t>(idx)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(idx)];
    idx = static_cast<int>(row[n.feature]) <= n.split_bin ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(idx)].value;
}

double reference_values(const std::vector<NodeDesc>& nodes,
                        const double* row) {
  int idx = 0;
  while (nodes[static_cast<std::size_t>(idx)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(idx)];
    idx = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(idx)].value;
}

TEST(KernelsForest, CodesMatchReferenceBothTiers) {
  std::mt19937 rng(29);
  const std::size_t n_features = 9;
  const std::size_t bins = 16;
  std::vector<std::vector<NodeDesc>> trees;
  kn::PackedForest forest;
  for (int t = 0; t < 7; ++t) {
    trees.push_back(random_tree(rng, n_features, bins, 5));
    forest.add_tree(trees.back(), /*with_codes=*/true);
  }
  // Row counts straddling the 8-row vector block and its scalar tail.
  for (const std::size_t n_rows : {1UL, 7UL, 8UL, 9UL, 64UL, 203UL}) {
    std::vector<std::uint16_t> codes(n_rows * n_features);
    for (auto& c : codes) c = static_cast<std::uint16_t>(rng() % bins);
    std::vector<double> expected(n_rows, 0.5);
    for (std::size_t i = 0; i < n_rows; ++i) {
      for (const auto& tree : trees) {
        expected[i] += reference_codes(tree, codes.data() + i * n_features);
      }
    }
    for (const char* policy : {"scalar", "avx2"}) {
      ScopedKernels tier(policy);
      std::vector<double> out(n_rows, 0.5);
      forest.predict_codes(codes.data(), n_features, n_rows, out.data());
      for (std::size_t i = 0; i < n_rows; ++i) {
        EXPECT_EQ(std::memcmp(&expected[i], &out[i], sizeof(double)), 0)
            << "policy=" << policy << " rows=" << n_rows << " i=" << i;
      }
    }
  }
}

TEST(KernelsForest, ValuesMatchReferenceBothTiers) {
  std::mt19937 rng(31);
  const std::size_t n_features = 5;
  std::vector<std::vector<NodeDesc>> trees;
  kn::PackedForest forest;
  for (int t = 0; t < 5; ++t) {
    trees.push_back(random_tree(rng, n_features, 8, 4));
    forest.add_tree(trees.back(), /*with_codes=*/false);
  }
  std::uniform_real_distribution<double> xd(-1.0, 8.0);
  for (const std::size_t n_rows : {1UL, 3UL, 4UL, 5UL, 33UL}) {
    std::vector<double> x(n_rows * n_features);
    for (auto& v : x) v = xd(rng);
    // A NaN feature must route right under both tiers.
    if (n_rows > 2) x[n_features + 1] = std::nan("");
    std::vector<double> expected(n_rows, -0.25);
    for (std::size_t i = 0; i < n_rows; ++i) {
      for (const auto& tree : trees) {
        expected[i] += reference_values(tree, x.data() + i * n_features);
      }
    }
    for (const char* policy : {"scalar", "avx2"}) {
      ScopedKernels tier(policy);
      std::vector<double> out(n_rows, -0.25);
      forest.predict_values(x.data(), n_features, n_rows, out.data());
      for (std::size_t i = 0; i < n_rows; ++i) {
        EXPECT_EQ(std::memcmp(&expected[i], &out[i], sizeof(double)), 0)
            << "policy=" << policy << " rows=" << n_rows << " i=" << i;
      }
    }
  }
}

TEST(KernelsForest, CodeTraversalRejectedWithoutBins) {
  std::mt19937 rng(37);
  kn::PackedForest forest;
  forest.add_tree(random_tree(rng, 3, 4, 2), /*with_codes=*/false);
  std::vector<std::uint16_t> codes(3, 0);
  std::vector<double> out(1, 0.0);
  EXPECT_THROW(forest.predict_codes(codes.data(), 3, 1, out.data()),
               std::logic_error);
}

// ---------------------------------------------------------------------
// dense_forward: scalar vs AVX2 bit-identity across odd shapes.

TEST(KernelsGemm, ScalarVsAvx2Randomized) {
  std::mt19937 rng(41);
  std::normal_distribution<double> d(0.0, 1.0);
  for (const std::size_t n_rows : {1UL, 3UL, 4UL, 5UL, 8UL, 17UL}) {
    for (const std::size_t in_dim : {1UL, 2UL, 13UL, 64UL}) {
      for (const std::size_t out_dim : {1UL, 2UL, 3UL, 64UL}) {
        std::vector<double> in(n_rows * in_dim);
        std::vector<double> w(out_dim * in_dim);
        std::vector<double> bias(out_dim);
        for (auto& v : in) v = d(rng);
        for (auto& v : w) v = d(rng);
        for (auto& v : bias) v = d(rng);
        std::vector<double> out_s(n_rows * out_dim);
        std::vector<double> out_v(n_rows * out_dim);
        {
          ScopedKernels tier("scalar");
          kn::dense_forward(in.data(), n_rows, in_dim, w.data(),
                            bias.data(), out_dim, out_s.data());
        }
        {
          ScopedKernels tier("avx2");
          kn::dense_forward(in.data(), n_rows, in_dim, w.data(),
                            bias.data(), out_dim, out_v.data());
        }
        EXPECT_EQ(std::memcmp(out_s.data(), out_v.data(),
                              out_s.size() * sizeof(double)),
                  0)
            << n_rows << "x" << in_dim << "->" << out_dim;
      }
    }
  }
}

// ---------------------------------------------------------------------
// dense_backward: both tiers against a per-row reference, bit for bit.

// The per-row backward pass the kernel must reproduce: rows ascending,
// outputs ascending, zero deltas skipped, din rebuilt from +0.0.
void backward_per_row(const std::vector<double>& in,
                      const std::vector<double>& dout, std::size_t n_rows,
                      std::size_t in_dim, const std::vector<double>& w,
                      std::size_t out_dim, std::vector<double>* gw,
                      std::vector<double>* gb, std::vector<double>* din) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::fill(din->begin() + r * in_dim, din->begin() + (r + 1) * in_dim,
              0.0);
    for (std::size_t o = 0; o < out_dim; ++o) {
      const double d = dout[r * out_dim + o];
      if (d == 0.0) continue;
      for (std::size_t i = 0; i < in_dim; ++i) {
        (*gw)[o * in_dim + i] += d * in[r * in_dim + i];
        (*din)[r * in_dim + i] += d * w[o * in_dim + i];
      }
      (*gb)[o] += d;
    }
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(KernelsGemm, BackwardBothTiersMatchPerRowReference) {
  std::mt19937 rng(61);
  std::normal_distribution<double> d(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, 9);
  // Deltas are ~20% +0.0 and ~10% -0.0 (ReLU-dead and dropped units);
  // the accumulators start non-zero, some at -0.0.
  auto delta = [&] {
    const int k = pick(rng);
    return k < 2 ? 0.0 : k < 3 ? -0.0 : d(rng);
  };
  auto accum = [&] { return pick(rng) == 0 ? -0.0 : d(rng); };
  for (const std::size_t n_rows : {1UL, 3UL, 4UL, 5UL, 7UL, 17UL, 67UL}) {
    for (const std::size_t in_dim : {1UL, 3UL, 5UL, 13UL, 16UL, 33UL}) {
      for (const std::size_t out_dim : {1UL, 2UL, 3UL, 9UL}) {
        std::vector<double> in(n_rows * in_dim);
        std::vector<double> w(out_dim * in_dim);
        std::vector<double> dout(n_rows * out_dim);
        std::vector<double> gw0(out_dim * in_dim);
        std::vector<double> gb0(out_dim);
        for (auto& v : in) v = d(rng);
        for (auto& v : w) v = d(rng);
        for (auto& v : dout) v = delta();
        for (auto& v : gw0) v = accum();
        for (auto& v : gb0) v = accum();
        // din is overwritten, so its prior contents must not matter.
        const std::vector<double> din0(n_rows * in_dim, 7.0);

        std::vector<double> ref_gw = gw0, ref_gb = gb0, ref_din = din0;
        backward_per_row(in, dout, n_rows, in_dim, w, out_dim, &ref_gw,
                         &ref_gb, &ref_din);
        for (const char* policy : {"scalar", "avx2"}) {
          ScopedKernels tier(policy);
          std::vector<double> gw = gw0, gb = gb0, din = din0;
          kn::dense_backward(in.data(), dout.data(), n_rows, in_dim,
                             w.data(), out_dim, gw.data(), gb.data(),
                             din.data());
          const std::string shape = std::string(policy) + " " +
                                    std::to_string(n_rows) + "x" +
                                    std::to_string(in_dim) + "->" +
                                    std::to_string(out_dim);
          EXPECT_TRUE(same_bits(gw, ref_gw)) << shape;
          EXPECT_TRUE(same_bits(gb, ref_gb)) << shape;
          EXPECT_TRUE(same_bits(din, ref_din)) << shape;
          // Without din the gradients are unchanged.
          std::vector<double> gw2 = gw0, gb2 = gb0;
          kn::dense_backward(in.data(), dout.data(), n_rows, in_dim,
                             w.data(), out_dim, gw2.data(), gb2.data(),
                             nullptr);
          EXPECT_TRUE(same_bits(gw2, ref_gw)) << shape << " din=null";
          EXPECT_TRUE(same_bits(gb2, ref_gb)) << shape << " din=null";
        }
      }
    }
  }
}

TEST(KernelsGemm, BackwardSkipsSignedZeroDeltas) {
  // One row, one output whose delta is +0.0 or -0.0, accumulators at
  // -0.0: adding the zero terms would turn -0.0 into +0.0; skipping
  // them keeps every sign bit.
  const std::size_t in_dim = 21;
  const std::vector<double> in(in_dim, 1.5);
  const std::vector<double> w(in_dim, -2.0);
  for (const double zero : {0.0, -0.0}) {
    for (const char* policy : {"scalar", "avx2"}) {
      ScopedKernels tier(policy);
      std::vector<double> gw(in_dim, -0.0);
      std::vector<double> gb(1, -0.0);
      std::vector<double> din(in_dim, 3.0);
      kn::dense_backward(in.data(), &zero, 1, in_dim, w.data(), 1, gw.data(),
                         gb.data(), din.data());
      for (std::size_t i = 0; i < in_dim; ++i) {
        EXPECT_TRUE(gw[i] == 0.0 && std::signbit(gw[i])) << policy;
        EXPECT_TRUE(din[i] == 0.0 && !std::signbit(din[i])) << policy;
      }
      EXPECT_TRUE(std::signbit(gb[0])) << policy;
    }
  }
}

TEST(KernelsGemm, AdamUpdateScalarVsAvx2) {
  std::mt19937 rng(67);
  std::normal_distribution<double> d(0.0, 1.0);
  for (const std::size_t n : {1UL, 3UL, 4UL, 7UL, 64UL, 99UL}) {
    for (const bool decay : {false, true}) {
      std::vector<double> g(n), m0(n), v0(n), p0(n);
      for (auto& x : g) x = d(rng) * 5.0;
      for (auto& x : m0) x = d(rng) * 0.1;
      for (auto& x : v0) x = std::abs(d(rng)) * 0.01;
      for (auto& x : p0) x = d(rng);
      g[0] = 0.0;  // a zero gradient still decays the moments
      kn::AdamStep step;
      step.bc1 = 1.0 - std::pow(0.9, 7.0);
      step.bc2 = 1.0 - std::pow(0.999, 7.0);
      step.learning_rate = 3e-3;
      step.weight_decay = 1e-5;
      step.batch_n = 13.0;
      std::vector<double> ms = m0, vs = v0, ps = p0;
      std::vector<double> mv = m0, vv = v0, pv = p0;
      {
        ScopedKernels tier("scalar");
        kn::adam_update(step, decay, n, g.data(), ms.data(), vs.data(),
                        ps.data());
      }
      {
        ScopedKernels tier("avx2");
        kn::adam_update(step, decay, n, g.data(), mv.data(), vv.data(),
                        pv.data());
      }
      EXPECT_TRUE(same_bits(ms, mv)) << n << " decay=" << decay;
      EXPECT_TRUE(same_bits(vs, vv)) << n << " decay=" << decay;
      EXPECT_TRUE(same_bits(ps, pv)) << n << " decay=" << decay;
      EXPECT_FALSE(same_bits(ps, p0)) << n << " decay=" << decay;
    }
  }
}

// ---------------------------------------------------------------------
// Model-level determinism matrix: IOTAX_KERNELS x IOTAX_THREADS must
// not change a single bit of fitted-model predictions.

data::Matrix random_matrix(std::mt19937& rng, std::size_t rows,
                           std::size_t cols) {
  data::Matrix x(rows, cols);
  std::lognormal_distribution<double> d(1.0, 1.5);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) x(r, c) = d(rng);
  }
  return x;
}

TEST(KernelsDeterminism, GbtMatrixBitIdentical) {
  std::mt19937 rng(47);
  const auto x = random_matrix(rng, 300, 7);
  std::vector<double> y(x.rows());
  std::normal_distribution<double> yd(10.0, 2.0);
  for (auto& v : y) v = yd(rng);

  std::vector<double> ref_pred;
  std::vector<double> ref_codes_pred;
  bool first = true;
  for (const char* policy : {"scalar", "avx2", "auto"}) {
    for (const long threads : {1L, 4L}) {
      ScopedKernels tier(policy);
      ScopedThreads tc(threads);
      ml::GbtParams params;
      params.n_estimators = 25;
      params.max_depth = 4;
      ml::GradientBoostedTrees model(params);
      model.fit(x, y);
      const auto pred = model.predict(x);
      const ml::BinnedMatrix binned(x, params.max_bins);
      const auto codes = binned.encode_all(x);
      const auto cpred = model.predict_codes(codes);
      if (first) {
        ref_pred = pred;
        ref_codes_pred = cpred;
        first = false;
        continue;
      }
      ASSERT_EQ(pred.size(), ref_pred.size());
      EXPECT_EQ(std::memcmp(pred.data(), ref_pred.data(),
                            pred.size() * sizeof(double)),
                0)
          << "policy=" << policy << " threads=" << threads;
      EXPECT_EQ(std::memcmp(cpred.data(), ref_codes_pred.data(),
                            cpred.size() * sizeof(double)),
                0)
          << "policy=" << policy << " threads=" << threads;
    }
  }
}

TEST(KernelsDeterminism, MlpMatrixBitIdentical) {
  std::mt19937 rng(53);
  const auto x = random_matrix(rng, 200, 6);
  std::vector<double> y(x.rows());
  std::normal_distribution<double> yd(5.0, 1.0);
  for (auto& v : y) v = yd(rng);

  std::vector<double> ref_pred;
  bool first = true;
  for (const char* policy : {"scalar", "avx2", "auto"}) {
    for (const long threads : {1L, 4L}) {
      ScopedKernels tier(policy);
      ScopedThreads tc(threads);
      ml::MlpParams params;
      params.hidden = {16, 16};
      params.epochs = 3;
      ml::Mlp model(params);
      model.fit(x, y);
      const auto pred = model.predict(x);
      if (first) {
        ref_pred = pred;
        first = false;
        continue;
      }
      ASSERT_EQ(pred.size(), ref_pred.size());
      EXPECT_EQ(std::memcmp(pred.data(), ref_pred.data(),
                            pred.size() * sizeof(double)),
                0)
          << "policy=" << policy << " threads=" << threads;
    }
  }
}

TEST(KernelsDeterminism, GbtSaveLoadPredictBitIdentical) {
  // A loaded model (no split bins) predicts through PackedForest value
  // traversal; it must reproduce the fit-time model's predict() bits
  // under every tier.
  std::mt19937 rng(59);
  const auto x = random_matrix(rng, 150, 5);
  std::vector<double> y(x.rows());
  std::normal_distribution<double> yd(0.0, 1.0);
  for (auto& v : y) v = yd(rng);
  ml::GbtParams params;
  params.n_estimators = 10;
  ml::GradientBoostedTrees model(params);
  model.fit(x, y);
  const auto expected = model.predict(x);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::GradientBoostedTrees::load(buf);
  for (const char* policy : {"scalar", "avx2"}) {
    ScopedKernels tier(policy);
    const auto got = loaded.predict(x);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(double)),
              0)
        << "policy=" << policy;
  }
  std::vector<std::uint16_t> codes(x.cols(), 0);
  EXPECT_THROW(loaded.predict_codes(codes), std::logic_error);
}

TEST(KernelsDispatch, PolicyResolution) {
  {
    ScopedKernels tier("scalar");
    EXPECT_EQ(kn::active_tier(), kn::Tier::kScalar);
  }
  {
    ScopedKernels tier("avx2");
    if (avx2_active_possible()) {
      EXPECT_EQ(kn::active_tier(), kn::Tier::kAvx2);
    } else {
      EXPECT_EQ(kn::active_tier(), kn::Tier::kScalar);  // graceful fallback
    }
  }
  {
    ScopedKernels tier("auto");
    EXPECT_EQ(kn::active_tier(),
              avx2_active_possible() ? kn::Tier::kAvx2 : kn::Tier::kScalar);
  }
  EXPECT_FALSE(kn::describe().empty());
  EXPECT_STREQ(kn::tier_name(kn::Tier::kScalar), "scalar");
  EXPECT_STREQ(kn::tier_name(kn::Tier::kAvx2), "avx2");
}

}  // namespace
}  // namespace iotax
