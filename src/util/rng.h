// Deterministic random number generation. Every stochastic component of the
// library takes an explicit seed (or an Rng&) so that simulations, tests and
// benches are bit-reproducible across runs and machines.
#pragma once

#include <cstdint>

namespace ds {

// xoshiro256** with a splitmix64 seeding stage. Small, fast, and —
// unlike std::mt19937 distributions — the derived draws below are fully
// specified here, so results are identical across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal();
  double normal(double mean, double stddev);
  // Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  // Exponential with given rate (mean 1/rate).
  double exponential(double rate);
  // Bernoulli trial.
  bool chance(double p);
  // Derive an independent child generator (stable function of parent state).
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace ds
