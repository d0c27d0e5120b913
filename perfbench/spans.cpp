#include "spans.h"

#include <chrono>
#include <ostream>

#include "src/support/json.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, std::string name, std::uint64_t verdict)
    : rec_(rec), id_(rec.open(std::move(name), verdict)) {}

SpanRecorder::Scope::~Scope() {
  if (open_) close();
}

double SpanRecorder::Scope::close() {
  open_ = false;
  rec_.close(id_);
  return rec_.spans_[id_].ms();
}

std::size_t SpanRecorder::open(std::string name, std::uint64_t verdict) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.verdict = verdict;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t id) {
  spans_[id].end_ns = now_ns();
  // Scopes nest, so the closing span is the innermost open one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_ms() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ms[s.parent] += s.ms();
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += spans_[i].ms() - child_ms[i];
  return out;
}

void SpanRecorder::write_chrome_trace(std::ostream& os, const EnvStamp& env) const {
  copar::support::JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("otherData");
  w.begin_object();
  for (const auto& [k, v] : env) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
  w.key("traceEvents");
  w.begin_array();
  for (const auto& [kind, label] : {std::pair{"process_name", "perfbench"},
                                    std::pair{"thread_name", "main"}}) {
    w.begin_object();
    w.key("name");
    w.value(kind);
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(std::uint64_t{1});
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(label);
    w.end_object();
    w.end_object();
  }
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("cat");
    w.value("perfbench");
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value_fixed(static_cast<double>(s.start_ns - base) / 1000.0);  // microseconds
    w.key("dur");
    w.value_fixed(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(std::uint64_t{1});
    w.key("args");
    w.begin_object();
    w.key("verdict");
    w.value(s.verdict);
    w.key("parent");
    if (s.parent == kNoParent) {
      w.null();
    } else {
      w.value(spans_[s.parent].name);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace perfbench
