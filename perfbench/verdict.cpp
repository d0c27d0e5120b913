#include "verdict.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

namespace perfbench {

using copar::Diagnostic;
using copar::Severity;

namespace {

struct PairReport {
  bool any = false;
  bool definite_with_witness = false;
  bool definite = false;
};

bool has_witness(const Diagnostic& d) {
  for (const copar::DiagNote& n : d.notes) {
    if (n.message.starts_with("witness interleaving")) return true;
  }
  return false;
}

std::string pair_name(const PhilPair& p) {
  return "philosophers " + std::to_string(p.first) + " and " + std::to_string(p.second);
}

}  // namespace

Judgement judge_check(const std::vector<Diagnostic>& findings, const PhilProgram& prog,
                      const PhilAnswer& answer) {
  Judgement j;
  auto philosopher = [&](const copar::SourceSpan& s) -> std::optional<std::size_t> {
    const auto it = prog.philosopher_at_line.find(s.begin.line);
    if (it == prog.philosopher_at_line.end()) return std::nullopt;
    return it->second;
  };

  std::map<PhilPair, PairReport> reported;
  for (const Diagnostic& d : findings) {
    if (d.code != "race") {
      if (d.severity == Severity::Error) {
        j.problems.push_back("definite " + d.code + " finding: " + d.message);
      }
      continue;
    }
    const auto a = philosopher(d.span);
    const auto b = d.related_spans.empty() ? std::nullopt : philosopher(d.related_spans[0]);
    if (!a || !b) {
      j.problems.push_back("race finding outside any philosopher's branch: " + d.message);
      continue;
    }
    const PhilPair pair{std::min(*a, *b), std::max(*a, *b)};
    const bool definite = !d.message.starts_with("possible ");
    PairReport& r = reported[pair];
    r.any = true;
    r.definite = r.definite || definite;
    r.definite_with_witness = r.definite_with_witness || (definite && has_witness(d));
  }

  for (const auto& [pair, r] : reported) {
    if (r.definite && !answer.races.contains(pair)) {
      j.problems.push_back("definite race on race-free " + pair_name(pair));
    }
  }
  for (const PhilPair& pair : answer.races) {
    const auto it = reported.find(pair);
    if (it == reported.end()) {
      j.problems.push_back("true race missing on " + pair_name(pair));
    } else if (it->second.definite_with_witness) {
      ++j.settled;
    }
  }
  for (const PhilPair& pair : answer.guarded) {
    if (!reported.contains(pair)) ++j.settled;
  }
  j.facts = answer.races.size() + answer.guarded.size();
  return j;
}

Judgement judge_explore(const copar::explore::ExploreResult& result, const LhAnswer& answer) {
  Judgement j;
  j.facts = 1;
  if (result.truncated) j.problems.push_back("exploration truncated");
  if (result.deadlock_found && answer.deadlock_free) j.problems.push_back("deadlock reported");
  if (!result.violations.empty()) j.problems.push_back("assertion violation reported");
  if (!result.faults.empty()) j.problems.push_back("run-time fault reported");
  if (result.terminals.size() != 1) {
    j.problems.push_back(std::to_string(result.terminals.size()) + " terminals, expected 1");
  }
  for (const std::string& name : answer.counters) {
    if (result.terminal_int_values(name) != std::set<std::int64_t>{answer.value}) {
      j.problems.push_back("terminal values of " + name + " differ from {" +
                           std::to_string(answer.value) + "}");
    }
  }
  if (!result.truncated) j.settled = 1;
  return j;
}

}  // namespace perfbench
