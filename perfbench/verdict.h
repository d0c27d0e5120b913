// The verdict checker: compares one engine verdict with the known answer.
//
// A check verdict (phil-n) is wrong when it reports
//   * a definite race on a pair the answer does not list as a race,
//   * no race at all (neither definite nor "possible") on a true race pair,
//   * a definite error other than a race;
// an explore verdict (lh-n) is wrong when the exploration was truncated,
// found a deadlock, violation or fault, or ended in any terminal set other
// than the single terminal the answer names.
//
// Besides right/wrong, the checker counts how much of the answer the
// verdict settles definitely: a true race pair reported definitely, with a
// witness; a guarded pair with no race finding on it; an lh-n terminal set
// established by a complete exploration.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/explore/explorer.h"
#include "src/support/diagnostics.h"
#include "workloads.h"

namespace perfbench {

struct Judgement {
  /// Human-readable contradictions; empty iff the verdict is right.
  std::vector<std::string> problems;
  /// Known-answer facts, and those the verdict settles definitely.
  std::size_t facts = 0;
  std::size_t settled = 0;

  [[nodiscard]] bool right() const { return problems.empty(); }
};

Judgement judge_check(const std::vector<copar::Diagnostic>& findings, const PhilProgram& prog,
                      const PhilAnswer& answer);

Judgement judge_explore(const copar::explore::ExploreResult& result, const LhAnswer& answer);

}  // namespace perfbench
