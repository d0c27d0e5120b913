#include "speedprobe.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <stdexcept>
#include <unordered_map>

#include "spans.h"

namespace perfbench {

namespace {

/// Keeps the probe's results observable, so no part is optimised away.
volatile std::uint64_t g_sink = 0;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

double elapsed_ms(std::uint64_t since) { return static_cast<double>(now_ns() - since) / 1e6; }

/// A register-only dependency chain: tracks the core's own speed.
double arithmetic_ms() {
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 1;
  for (int i = 0; i < 2'500'000; ++i) acc = acc * 31 + (xorshift(x) >> (acc & 15));
  g_sink = g_sink + acc;
  return elapsed_ms(t0);
}

/// About 72k entries hashed into a table of a few MiB, then sorted: cache
/// misses past the private L2.
double hash_table_ms() {
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 75'000; ++i) table[xorshift(x) % 1'000'003] += i;
  std::vector<std::uint64_t> values;
  values.reserve(table.size());
  for (const auto& [k, v] : table) values.push_back(k ^ v);
  std::sort(values.begin(), values.end());
  g_sink = g_sink + values[values.size() / 2];
  return elapsed_ms(t0);
}

/// Short strings and small vectors in an ordered map: allocator traffic and
/// pointer chasing.
double ordered_map_ms() {
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::map<std::string, std::vector<int>> map;
  for (int i = 0; i < 20'000; ++i) map[std::to_string(xorshift(x) % 30'011)].push_back(i);
  std::uint64_t total = 0;
  for (const auto& [k, v] : map) total += k.size() + v.size();
  g_sink = g_sink + total;
  return elapsed_ms(t0);
}

double speed_probe_ms() { return std::cbrt(arithmetic_ms() * hash_table_ms() * ordered_map_ms()); }

/// Reads or writes exactly `n` bytes; false on end of file or error.
bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

/// The probe process: one probe per request byte, until the pipe closes.
[[noreturn]] void serve_probes(int requests, int replies) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  char request = 0;
  while (read_all(requests, &request, 1)) {
    const double ms = speed_probe_ms();
    if (!write_all(replies, &ms, sizeof ms)) break;
  }
  ::_exit(0);
}

}  // namespace

SpeedScale::SpeedScale() {
  // A write to a probe process that has died then fails instead of ending
  // the benchmark.
  ::signal(SIGPIPE, SIG_IGN);
  int requests[2];
  int replies[2];
  if (::pipe(requests) != 0) throw std::runtime_error("speed probe: pipe failed");
  if (::pipe(replies) != 0) {
    ::close(requests[0]);
    ::close(requests[1]);
    throw std::runtime_error("speed probe: pipe failed");
  }
  child_ = ::fork();
  if (child_ == 0) {
    ::close(requests[1]);
    ::close(replies[0]);
    serve_probes(requests[0], replies[1]);
  }
  ::close(requests[0]);
  ::close(replies[1]);
  to_child_ = requests[1];
  from_child_ = replies[0];
  if (child_ < 0) {
    ::close(to_child_);
    ::close(from_child_);
    throw std::runtime_error("speed probe: fork failed");
  }
  probes_ms_.push_back(probe());
}

SpeedScale::~SpeedScale() {
  ::close(to_child_);
  ::close(from_child_);
  int status = 0;
  while (::waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

double SpeedScale::probe() {
  const char request = 1;
  double ms = 0;
  if (!write_all(to_child_, &request, 1) || !read_all(from_child_, &ms, sizeof ms)) {
    throw std::runtime_error("speed probe: the probe process stopped answering");
  }
  return ms;
}

double SpeedScale::scale(double ms) {
  const double before = probes_ms_.back();
  probes_ms_.push_back(probe());
  return ms * std::pow(kReferenceProbeMs / std::sqrt(before * probes_ms_.back()),
                       kProbeElasticity);
}

}  // namespace perfbench
