#include "src/ml/kernels/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace iotax::ml::kernels {

namespace {

// Resolved policy, packed into one atomic word: bit 0 = avx2 active,
// bit 1 = resolved. refresh() clears the resolved bit; the next query
// re-reads the environment.
std::atomic<int> g_state{0};
constexpr int kAvx2Bit = 1;
constexpr int kResolvedBit = 2;

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

int resolve() {
  int state = kResolvedBit;
  const char* policy = std::getenv("IOTAX_KERNELS");
  const bool want_avx2 =
      policy == nullptr || std::strcmp(policy, "auto") == 0 ||
      std::strcmp(policy, "avx2") == 0;  // anything else means scalar
  if (want_avx2 && avx2_compiled() && cpu_has_avx2()) state |= kAvx2Bit;
  g_state.store(state, std::memory_order_relaxed);
  return state;
}

int state() {
  const int s = g_state.load(std::memory_order_relaxed);
  return (s & kResolvedBit) != 0 ? s : resolve();
}

}  // namespace

Tier active_tier() {
  return (state() & kAvx2Bit) != 0 ? Tier::kAvx2 : Tier::kScalar;
}

bool avx2_compiled() {
#if defined(IOTAX_KERNELS_AVX2)
  return true;
#else
  return false;
#endif
}

bool avx2_supported() { return cpu_has_avx2(); }

void refresh() { g_state.store(0, std::memory_order_relaxed); }

const char* tier_name(Tier tier) {
  return tier == Tier::kAvx2 ? "avx2" : "scalar";
}

std::string describe() {
  const char* policy = std::getenv("IOTAX_KERNELS");
  std::string out = tier_name(active_tier());
  out += " (compiled=";
  out += avx2_compiled() ? "yes" : "no";
  out += " cpu=";
  out += avx2_supported() ? "yes" : "no";
  out += " policy=";
  out += policy != nullptr ? policy : "auto";
  out += ")";
  return out;
}

}  // namespace iotax::ml::kernels
