// The traced run: each verdict replayed layer by layer.
//
// A check verdict is compile → check::run_checks → render_json. The traced
// run makes the real run_checks call (the reference, span
// `check.run_checks`) and then replays the same work stage by stage,
// calling the same public layer functions with the same options and
// recording a span around each: the abstract fixpoint, StaticInfo, MHP,
// locksets, candidate generation, the thread-modular fixpoint, the full
// exploration, each directed witness search and the dead-store pass. The
// replay's counts (candidates, confirmed, refuted, budget-exhausted,
// configs explored, abstract states) must equal the reference
// CheckSummary, or the run fails: the per-layer numbers then describe the
// same work as the verdict. Run_checks time not covered by a replayed stage
// is reported as `check.unattributed_ms` — the cost of turning facts into
// findings.
//
// An explore verdict (lh-n) is compile → explore::explore with stubborn
// sets on several workers; its replay is the call itself plus the engine's
// own counters, checked against a sequential stubborn exploration of the
// same program.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/explore/explorer.h"
#include "src/support/diagnostics.h"
#include "spans.h"
#include "verdict.h"

namespace perfbench {

/// Per-layer sums over the traced verdicts, keyed by metric name.
struct LayerTotals {
  std::map<std::string, double> sum;
  double witness_ms_max = 0;
  std::uint64_t verdicts = 0;

  void add(const std::string& name, double v) { sum[name] += v; }
  [[nodiscard]] double get(const std::string& name) const;
};

/// The staged replay disagrees with the reference call.
class FidelityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One traced check verdict, judged against `answer`. Supports the auto and
/// tmod tiers. Throws FidelityError on a mismatch.
Judgement traced_check(const PhilProgram& prog, const PhilAnswer& answer,
                       const copar::check::CheckOptions& opts, std::uint64_t verdict,
                       SpanRecorder& rec, LayerTotals& totals);

/// The sequential stubborn exploration an explore verdict is compared with.
struct ExploreReference {
  std::uint64_t configs = 0;
  std::set<std::string> terminal_keys;
};

ExploreReference explore_reference(const std::string& source);

/// One traced explore verdict, judged against `answer` while the program
/// its configurations point into is alive. Throws FidelityError when the
/// terminal set differs from the reference's.
Judgement traced_explore(const std::string& source, const copar::explore::ExploreOptions& opts,
                         const ExploreReference& ref, const LhAnswer& answer,
                         std::uint64_t verdict, SpanRecorder& rec, LayerTotals& totals);

}  // namespace perfbench
