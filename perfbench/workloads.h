// Seeded program generators with known answers.
//
// Every generator sits beside the function that computes its variant's
// answer. The answer is derived from the generator's parameters alone —
// never from a copar engine — so the benchmark can judge every verdict the
// engines return.
//
//   phil-n  n dining philosophers that take their forks in ascending order
//           (a global lock order, hence deadlock-free). The seed picks which
//           philosophers bump the shared `total` (the rest bump their own
//           `meals<i>`) and permutes the cobegin branch order. Two
//           `total`-bumpers race exactly when they share no fork; the pairs
//           that share a fork are guarded by it.
//   lh-n    the acyclic left-handed dining philosophers: n philosophers, each
//           bumping its own `meals<i>`, all right-handed except one
//           left-hander at a seeded position. The only terminal is the one
//           where every `meals<i>` is 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny, fully specified generator, so a seed means the same
/// program on every compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform-enough index in [0, bound); bound > 0.
  std::size_t below(std::size_t bound) { return static_cast<std::size_t>(next() % bound); }

 private:
  std::uint64_t state_;
};

/// An unordered philosopher pair, first < second.
using PhilPair = std::pair<std::size_t, std::size_t>;

struct PhilVariant {
  std::size_t n = 0;
  /// bumps_total[i]: philosopher i increments `total` (else `meals<i>`).
  std::vector<bool> bumps_total;
  /// order[k]: the philosopher written as the k-th cobegin branch.
  std::vector<std::size_t> order;
};

struct PhilAnswer {
  /// Pairs of `total`-bumpers that share no fork: real races.
  std::set<PhilPair> races;
  /// Pairs of `total`-bumpers that share a fork: race-free.
  std::set<PhilPair> guarded;
  bool deadlock_free = true;
};

struct PhilProgram {
  std::string source;
  /// Source line of each philosopher's branch (one branch per line), the
  /// key that maps a finding's span back to a philosopher.
  std::map<std::uint32_t, std::size_t> philosopher_at_line;
};

/// `bumpers` of the n philosophers, chosen by the seed, bump `total`.
PhilVariant phil_variant(std::size_t n, std::size_t bumpers, std::uint64_t seed);
PhilProgram phil_program(const PhilVariant& v);
PhilAnswer phil_answer(const PhilVariant& v);

struct LhVariant {
  std::size_t n = 0;
  /// The one philosopher that takes fork (i+1) mod n before fork i.
  std::size_t left_hander = 0;
};

struct LhAnswer {
  /// The single terminal: every listed global holds `value`.
  std::vector<std::string> counters;
  std::int64_t value = 1;
  bool deadlock_free = true;
};

LhVariant lh_variant(std::size_t n, std::uint64_t seed);
std::string lh_program(const LhVariant& v);
LhAnswer lh_answer(const LhVariant& v);

/// The seed of variant `index` within a run seeded with `seed`.
std::uint64_t variant_seed(std::uint64_t seed, std::size_t index);

}  // namespace perfbench
