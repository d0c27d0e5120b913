// In-memory spans for the traced run.
//
// Each span records a name, start and end (steady clock), the span that
// encloses it, and the verdict it belongs to. Spans stay in memory while
// the benchmark runs and are written once at the end, as a Chrome
// trace_event file in the layout `copar-cli --trace` writes
// (docs/OBSERVABILITY.md), so Perfetto and chrome://tracing open it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Index of the enclosing span; kNoParent for a root.
  std::size_t parent = 0;
  std::uint64_t verdict = 0;

  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// Ordered key/value pairs describing the environment of a record.
using EnvStamp = std::vector<std::pair<std::string, std::string>>;

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one and closes it on
  /// destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name, std::uint64_t verdict);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span now and returns its duration in milliseconds.
    double close();

   private:
    SpanRecorder& rec_;
    std::size_t id_;
    bool open_ = true;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Summed self time per span name (a span's duration minus its
  /// children's), in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  void write_chrome_trace(std::ostream& os, const EnvStamp& env) const;

 private:
  std::size_t open(std::string name, std::uint64_t verdict);
  void close(std::size_t id);

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Monotonic nanoseconds.
std::uint64_t now_ns();

}  // namespace perfbench
