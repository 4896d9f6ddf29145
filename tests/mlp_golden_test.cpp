// Golden training bytes: the sha256 of Mlp::save and DeepEnsemble::save
// output for a matrix of training configurations, pinned as recorded
// from the per-row training loop. Any rewrite of the training path
// (batched GEMM forward, dense_backward, kernel tiers) must reproduce
// these checkpoints byte for byte under every IOTAX_KERNELS tier.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/data/matrix.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/nn.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

namespace kn = ml::kernels;

// Minimal SHA-256 (FIPS 180-4) over a byte string, hex-encoded.
std::string sha256_hex(const std::string& msg) {
  static constexpr std::array<std::uint32_t, 64> k = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  auto rotr = [](std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };

  std::string data = msg;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  data.push_back(static_cast<char>(0x80));
  while (data.size() % 64 != 56) data.push_back('\0');
  for (int s = 56; s >= 0; s -= 8) {
    data.push_back(static_cast<char>((bit_len >> s) & 0xff));
  }

  for (std::size_t off = 0; off < data.size(); off += 64) {
    std::array<std::uint32_t, 64> w{};
    for (int t = 0; t < 16; ++t) {
      const auto* p =
          reinterpret_cast<const unsigned char*>(data.data() + off + 4 * t);
      w[t] = (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
             (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
    }
    for (int t = 16; t < 64; ++t) {
      const std::uint32_t s0 =
          rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    std::array<std::uint32_t, 8> v = h;
    for (int t = 0; t < 64; ++t) {
      const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + k[t] + w[t];
      const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      const std::uint32_t t2 = s0 + maj;
      v = {t1 + t2, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
    }
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }
  std::string hex;
  char buf[9];
  for (const std::uint32_t word : h) {
    std::snprintf(buf, sizeof(buf), "%08x", word);
    hex += buf;
  }
  return hex;
}

TEST(MlpGolden, Sha256KnownAnswers) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256_hex(std::string(1000, 'a')),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

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

// Raw counter-like features (positive, heavy-tailed) and a noisy
// log-throughput-like target, from the portable util::Rng.
struct Data {
  data::Matrix x;
  std::vector<double> y;
};

Data make_data(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  Data d{data::Matrix(rows, 5), std::vector<double>(rows)};
  for (std::size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < 5; ++c) {
      d.x(r, c) = rng.lognormal(1.0, 1.5);
      s += static_cast<double>(c + 1) * std::log1p(d.x(r, c));
    }
    d.y[r] = 0.1 * s + rng.normal(0.0, 0.3);
  }
  return d;
}

template <typename Model>
std::string save_digest(const Model& model) {
  std::ostringstream out;
  model.save(out);
  return sha256_hex(out.str());
}

struct MlpCase {
  const char* name;
  std::size_t rows;
  std::vector<std::size_t> hidden;
  double dropout;
  bool nll_head;
  std::size_t batch_size;
  const char* digest;
};

// 70 rows: batch 3 ends on a 1-row batch, batch 64 on a 6-row batch.
// The 3-row fits never fill the AVX2 tier's 4-row panel.
const std::vector<MlpCase>& mlp_cases() {
  static const std::vector<MlpCase> cases = {
      {"h9_do0_mse_b1", 70, {9}, 0.0, false, 1,
       "12fd488a7f5b70736ef8f1d97e528d573ffa85b193c3fc4c39bdf2b1edb2e13c"},
      {"h9_do0_mse_b3", 70, {9}, 0.0, false, 3,
       "5419477908485ef4ca4f09ca014e156303725300e7dfeff5cf30c2ecdf7c961a"},
      {"h9_do0_mse_b64", 70, {9}, 0.0, false, 64,
       "f7692f3816a6b18defc3ed25251324e78f0953e77bf779097f00efe858784fa8"},
      {"h9_do0_nll_b1", 70, {9}, 0.0, true, 1,
       "ee570fc0b96b56f9bb1c1e1139400d879cdceb7d23ee94a5d5db65fa7a4c9d41"},
      {"h9_do0_nll_b3", 70, {9}, 0.0, true, 3,
       "83dad0e57bb59cd40521ae8a52737cd68d53d263d054376f6c38000a144062f2"},
      {"h9_do0_nll_b64", 70, {9}, 0.0, true, 64,
       "0620f885e10127a524e17d2919c71a82df782ef2a1462d8fedd49fca7425d427"},
      {"h9_do15_mse_b1", 70, {9}, 0.15, false, 1,
       "95250ff300101fb586bb4f387323b63ddba948fbe1ef00060ac608da3285070e"},
      {"h9_do15_mse_b3", 70, {9}, 0.15, false, 3,
       "7191da29fd8178c3471a64a6adc38054ddd885d3761f1611c36c9906618f613f"},
      {"h9_do15_mse_b64", 70, {9}, 0.15, false, 64,
       "805d0184bf64e0cd7f01a6c20e4c75b79f5e2e804c20422fd6a2bdc79b88147d"},
      {"h9_do15_nll_b1", 70, {9}, 0.15, true, 1,
       "45ab84a652f44f9e511271503f058f888fd0ba5e3a829a3960b79c762d3c3d1b"},
      {"h9_do15_nll_b3", 70, {9}, 0.15, true, 3,
       "4e51b74765bc00a3c3244317023a98f2268301351142e02f220177b482d22df5"},
      {"h9_do15_nll_b64", 70, {9}, 0.15, true, 64,
       "5a9617d9c4f6cdce1f96d5af50d4ca1504a7f0eac4244ae49a09ba9023fa73fa"},
      {"h753_do0_mse_b1", 70, {7, 5, 3}, 0.0, false, 1,
       "1592da68331462ec58422262b6da53d577f95f5ffa679bb130ee2fc9b914e480"},
      {"h753_do0_mse_b3", 70, {7, 5, 3}, 0.0, false, 3,
       "0cd3e055b25838fcdade1e58d8af6aa470e5c97b138e032ad473ac65cf887c58"},
      {"h753_do0_mse_b64", 70, {7, 5, 3}, 0.0, false, 64,
       "f2c1ba546cf34ea6eeebf31fcbb03600b7b462f9f0adaae884cc73c7e9f93b3d"},
      {"h753_do0_nll_b1", 70, {7, 5, 3}, 0.0, true, 1,
       "c332554cf636477c33c557d9558b46de91474aa8eeae6a7ef12dd91de3a061b7"},
      {"h753_do0_nll_b3", 70, {7, 5, 3}, 0.0, true, 3,
       "02be1a62800eb7cb0daecd7e1284ab8315ba5b889307a0a20e9d13b45e77e114"},
      {"h753_do0_nll_b64", 70, {7, 5, 3}, 0.0, true, 64,
       "f81d345fd11d1841043b2ea877a2ed870470251e92b3bd88021632322f4c4a36"},
      {"h753_do15_mse_b1", 70, {7, 5, 3}, 0.15, false, 1,
       "29cc84aa0e8ba276040aa0b427880d912875a6064f25d81197fe4be06a239dda"},
      {"h753_do15_mse_b3", 70, {7, 5, 3}, 0.15, false, 3,
       "25b32e344fa830d994ba27c412fc546509d5626e16e9589ae3993d7fa72a440a"},
      {"h753_do15_mse_b64", 70, {7, 5, 3}, 0.15, false, 64,
       "d1f266c5174abe5214c4670b4049e31c12f327f17e14f415e81bd0ede75ba5a3"},
      {"h753_do15_nll_b1", 70, {7, 5, 3}, 0.15, true, 1,
       "a82f7b3eaeee4f6fb92d60c94755e38871734ed6006e21ff2da0fc42e237a236"},
      {"h753_do15_nll_b3", 70, {7, 5, 3}, 0.15, true, 3,
       "8dc34cf1d73cac1af658da78c95aa89259562c36dd58815612c1e7f68e52bd56"},
      {"h753_do15_nll_b64", 70, {7, 5, 3}, 0.15, true, 64,
       "832919b395973b8e1b2641a7b987283e9fbe73b1e61fd5c4c2224d4fd60fc186"},
      {"rows3_h753_do15_nll_b64", 3, {7, 5, 3}, 0.15, true, 64,
       "476c4aed9929496775f430ad8e0c7b1727bc9a8a9d5533be38617bc121924416"},
      {"rows3_h9_do0_mse_b1", 3, {9}, 0.0, false, 1,
       "e7395fa82e9225687f364e80edf6e09251e9e09835e1002284fe08039b6acf51"},
  };
  return cases;
}

ml::Mlp fit_case(const MlpCase& c, std::size_t epochs) {
  const Data d = make_data(c.rows, 101);
  ml::MlpParams p;
  p.hidden = c.hidden;
  p.dropout = c.dropout;
  p.nll_head = c.nll_head;
  p.batch_size = c.batch_size;
  p.epochs = epochs;
  p.learning_rate = 3e-3;
  p.seed = 7;
  ml::Mlp model(p);
  model.fit(d.x, d.y);
  return model;
}

ml::DeepEnsemble fit_ensemble(std::size_t epochs) {
  const Data d = make_data(70, 103);
  ml::EnsembleParams p;
  p.size = 3;
  p.epochs = epochs;
  p.space.max_layers = 3;
  p.space.widths = {5, 8};
  ml::DeepEnsemble ens(p);
  ens.fit(d.x, d.y);
  return ens;
}

constexpr const char* kEnsembleDigest =
    "756ef788b33e8baeb268b3209cec0daafb5ccae09b77fbd029588ae14cdecb72";

TEST(MlpGolden, CheckpointDigestsPinnedOnEveryTier) {
  for (const char* policy : {"scalar", "avx2"}) {
    ScopedKernels tier(policy);
    for (const MlpCase& c : mlp_cases()) {
      EXPECT_EQ(save_digest(fit_case(c, 3)), c.digest)
          << "policy=" << policy << " case=" << c.name;
    }
    EXPECT_EQ(save_digest(fit_ensemble(3)), kEnsembleDigest)
        << "policy=" << policy << " ensemble";
  }
}

TEST(MlpGolden, ContinuationMatchesColdFit) {
  for (const char* policy : {"scalar", "avx2"}) {
    ScopedKernels tier(policy);
    for (const MlpCase& c : mlp_cases()) {
      const Data d = make_data(c.rows, 101);
      ml::Mlp warm = fit_case(c, 2);
      warm.fit_continue(d.x, d.y, 3);
      EXPECT_EQ(save_digest(warm), save_digest(fit_case(c, 5)))
          << "policy=" << policy << " case=" << c.name;
    }
    const Data e = make_data(70, 103);
    ml::DeepEnsemble warm = fit_ensemble(2);
    warm.fit_continue(e.x, e.y, 3);
    EXPECT_EQ(save_digest(warm), save_digest(fit_ensemble(5)))
        << "policy=" << policy << " ensemble";
  }
}

}  // namespace
}  // namespace iotax
