#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace perfbench {

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t variant_seed(std::uint64_t seed, std::size_t index) {
  Rng r(seed * 0x100000001b3ULL + index);
  return r.next();
}

namespace {

/// Fisher-Yates over 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

/// Philosopher i uses forks i and (i+1) mod n.
bool share_fork(std::size_t i, std::size_t j, std::size_t n) {
  return i == j || (i + 1) % n == j || (j + 1) % n == i;
}

}  // namespace

PhilVariant phil_variant(std::size_t n, std::size_t bumpers, std::uint64_t seed) {
  Rng rng(seed);
  PhilVariant v;
  v.n = n;
  v.bumps_total.assign(n, false);
  const std::vector<std::size_t> pick = permutation(n, rng);
  for (std::size_t k = 0; k < std::min(bumpers, n); ++k) v.bumps_total[pick[k]] = true;
  v.order = permutation(n, rng);
  return v;
}

PhilProgram phil_program(const PhilVariant& v) {
  PhilProgram out;
  std::ostringstream os;
  std::uint32_t line = 1;
  auto emit = [&](const std::string& text) {
    os << text << '\n';
    ++line;
  };
  for (std::size_t i = 0; i < v.n; ++i) emit("var fork" + std::to_string(i) + ";");
  for (std::size_t i = 0; i < v.n; ++i) emit("var meals" + std::to_string(i) + ";");
  emit("var total;");
  emit("fun main() {");
  emit("  cobegin");
  for (std::size_t k = 0; k < v.order.size(); ++k) {
    const std::size_t i = v.order[k];
    const std::size_t lo = std::min(i, (i + 1) % v.n);
    const std::size_t hi = std::max(i, (i + 1) % v.n);
    const std::string target = v.bumps_total[i] ? "total" : "meals" + std::to_string(i);
    if (k > 0) emit("  ||");
    out.philosopher_at_line[line] = i;
    emit("    { lock(fork" + std::to_string(lo) + "); lock(fork" + std::to_string(hi) + "); " +
         target + " = " + target + " + 1; unlock(fork" + std::to_string(hi) + "); unlock(fork" +
         std::to_string(lo) + "); }");
  }
  emit("  coend;");
  emit("}");
  out.source = os.str();
  return out;
}

PhilAnswer phil_answer(const PhilVariant& v) {
  PhilAnswer a;
  for (std::size_t i = 0; i < v.n; ++i) {
    for (std::size_t j = i + 1; j < v.n; ++j) {
      if (!v.bumps_total[i] || !v.bumps_total[j]) continue;
      (share_fork(i, j, v.n) ? a.guarded : a.races).insert({i, j});
    }
  }
  // Every philosopher locks its lower-numbered fork first: one global lock
  // order, so no circular wait can form.
  a.deadlock_free = true;
  return a;
}

LhVariant lh_variant(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return LhVariant{n, rng.below(n)};
}

std::string lh_program(const LhVariant& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.n; ++i) os << "var fork" << i << ";\n";
  for (std::size_t i = 0; i < v.n; ++i) os << "var meals" << i << ";\n";
  os << "fun main() {\n  cobegin\n";
  for (std::size_t i = 0; i < v.n; ++i) {
    std::size_t first = i;
    std::size_t second = (i + 1) % v.n;
    if (i == v.left_hander) std::swap(first, second);
    if (i > 0) os << "  ||\n";
    os << "    { lock(fork" << first << "); lock(fork" << second << "); meals" << i
       << " = meals" << i << " + 1; unlock(fork" << second << "); unlock(fork" << first
       << "); }\n";
  }
  os << "  coend;\n}\n";
  return os.str();
}

LhAnswer lh_answer(const LhVariant& v) {
  LhAnswer a;
  for (std::size_t i = 0; i < v.n; ++i) a.counters.push_back("meals" + std::to_string(i));
  // Each philosopher eats exactly once; the single left-hander breaks the
  // circular wait, so every schedule ends with all meals at 1.
  a.value = 1;
  a.deadlock_free = true;
  return a;
}

}  // namespace perfbench
