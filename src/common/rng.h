// Deterministic random number generation.
//
// All randomness in the library flows through Rng instances that are seeded
// explicitly, so every simulation run is reproducible from its seed. Child
// generators can be split off deterministically so that adding randomness to
// one subsystem does not perturb the stream seen by another.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <random>

namespace optimus {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed), seed_(seed) {}

  // Derives an independent child generator. The same (seed, stream) pair
  // always yields the same child sequence.
  Rng Split(uint64_t stream) const;

  uint64_t seed() const { return seed_; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Log-normal such that the multiplicative factor has median 1 and the given
  // sigma in log space. Useful for runtime noise that must stay positive.
  double LogNormalFactor(double sigma);

  // Exponential with the given rate (events per unit time).
  double Exponential(double rate);

  // Poisson-distributed count with the given mean.
  int64_t Poisson(double mean);

  // True with probability p.
  bool Bernoulli(double p);

 private:
  std::mt19937_64 engine_;
  uint64_t seed_;
};

}  // namespace optimus

#endif  // SRC_COMMON_RNG_H_
