// Deterministic pseudo-random generation for simulation and workloads.
//
// All randomness in Hyperion flows through Rng so that every test, bench,
// and simulated workload is reproducible from a single seed. The core is
// xoshiro256**, seeded via splitmix64.

#ifndef HYPERION_SRC_COMMON_RNG_H_
#define HYPERION_SRC_COMMON_RNG_H_

#include <cstdint>
#include <cmath>

#include "src/common/check.h"

namespace hyperion {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // splitmix64 to spread a possibly-low-entropy seed over the state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  // Uniform over the full 64-bit range.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) {
    DCHECK_GT(bound, 0u);
    // Lemire's multiply-shift rejection-free approximation is fine here: the
    // simulation does not need cryptographic uniformity, only balance.
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform in [lo, hi] inclusive.
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    DCHECK_LE(lo, hi);
    return lo + Uniform(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Zipfian over [0, n) with skew theta (0 = uniform-ish, 0.99 = YCSB
  // default). Uses the Gray et al. rejection-free approximation.
  uint64_t Zipf(uint64_t n, double theta) {
    DCHECK_GT(n, 0u);
    if (n != zipf_n_ || theta != zipf_theta_) {
      PrepareZipf(n, theta);
    }
    const double u = NextDouble();
    const double uz = u * zipf_zeta_n_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, zipf_theta_)) {
      return 1;
    }
    return static_cast<uint64_t>(static_cast<double>(n) *
                                 std::pow(zipf_eta_ * u - zipf_eta_ + 1.0, zipf_alpha_));
  }

  // Exponential with the given mean (> 0); used for inter-arrival times.
  double Exponential(double mean) {
    DCHECK_GT(mean, 0.0);
    double u = NextDouble();
    // Guard the log(0) corner.
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(u);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  void PrepareZipf(uint64_t n, double theta) {
    zipf_n_ = n;
    zipf_theta_ = theta;
    zipf_zeta_n_ = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      zipf_zeta_n_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    zipf_alpha_ = 1.0 / (1.0 - theta);
    zipf_eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
                (1.0 - zeta2 / zipf_zeta_n_);
  }

  uint64_t state_[4];

  // Cached Zipf parameters (recomputed when n or theta changes).
  uint64_t zipf_n_ = 0;
  double zipf_theta_ = 0.0;
  double zipf_zeta_n_ = 0.0;
  double zipf_alpha_ = 0.0;
  double zipf_eta_ = 0.0;
};

// x % d for a divisor fixed at construction, without a hardware divide:
// Lemire's fastmod (Lemire, Kaser and Kurz, "Faster Remainder by Direct
// Computation", 2019) with a 128-bit multiplier, exact for every 64-bit x
// and every d >= 1. For generators that reduce a hash by a runtime count
// on every draw.
class FastMod {
 public:
  explicit FastMod(uint64_t d) : d_(d), m_(~Wide{0} / d + 1) {}  // d = 1 wraps m_ to 0

  uint64_t operator()(uint64_t x) const {
    // The fractional part of x / d in 128 bits, then the top 64 bits of
    // its 192-bit product with d.
    const Wide fraction = m_ * x;
    const Wide low = static_cast<uint64_t>(fraction) * Wide{d_};
    const Wide high = (fraction >> 64) * d_;
    return static_cast<uint64_t>((high + (low >> 64)) >> 64);
  }

 private:
  using Wide = unsigned __int128;

  uint64_t d_;
  Wide m_;
};

}  // namespace hyperion

#endif  // HYPERION_SRC_COMMON_RNG_H_
