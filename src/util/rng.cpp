#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/check.h"

namespace ds {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  DS_CHECK_MSG(lo <= hi, "uniform(" << lo << ", " << hi << ")");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DS_CHECK_MSG(lo <= hi, "uniform_int(" << lo << ", " << hi << ")");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is < 2^-40 for any span we use; acceptable for simulation.
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::normal() {
  // Box–Muller; u1 is nudged away from 0 to keep log() finite.
  const double u1 = std::max(uniform(), 0x1.0p-60);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) {
  DS_CHECK(rate > 0);
  const double u = std::max(uniform(), 0x1.0p-60);
  return -std::log(u) / rate;
}

bool Rng::chance(double p) { return uniform() < p; }

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace ds
