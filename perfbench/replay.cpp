#include "replay.h"

#include <algorithm>
#include <ctime>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

#include "src/absdom/interval.h"
#include "src/absem/absexplore.h"
#include "src/absem/tmod.h"
#include "src/analysis/deadstore.h"
#include "src/analysis/lockset.h"
#include "src/analysis/mhp.h"
#include "src/analysis/racecand.h"
#include "src/analysis/staticmhp.h"
#include "src/explore/staticinfo.h"
#include "src/explore/witness.h"
#include "src/lang/parser.h"
#include "src/sem/lower.h"
#include "src/sem/program.h"
#include "src/sem/step.h"

namespace perfbench {

namespace absem = copar::absem;
namespace analysis = copar::analysis;
namespace check = copar::check;
namespace explore = copar::explore;
namespace sem = copar::sem;

double LayerTotals::get(const std::string& name) const {
  const auto it = sum.find(name);
  return it == sum.end() ? 0.0 : it->second;
}

namespace {

/// The co-enabledness predicate of a race witness search, re-derived from
/// sem::all_action_infos (check.cpp keeps its copy private): a state where
/// both statements are enabled — two enabled instances for a self-pair.
std::function<bool(const sem::Configuration&)> race_reach_predicate(std::uint32_t s1,
                                                                    std::uint32_t s2) {
  return [s1, s2](const sem::Configuration& cfg) {
    int n1 = 0;
    int n2 = 0;
    for (const sem::ActionInfo& info : sem::all_action_infos(cfg)) {
      if (!info.enabled || info.stmt_id == sem::kNoStmt) continue;
      if (info.stmt_id == s1) ++n1;
      if (info.stmt_id == s2) ++n2;
    }
    return s1 == s2 ? n1 >= 2 : (n1 >= 1 && n2 >= 1);
  };
}

/// The counts the replay must share with the reference CheckSummary.
struct Counts {
  std::uint64_t candidates = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t refuted = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t configs_explored = 0;
  std::uint64_t abstract_states = 0;
};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Replays run_checks stage by stage (mirrors src/check/check.cpp for the
/// auto and tmod tiers).
class Replayer {
 public:
  Replayer(const sem::LoweredProgram& prog, const check::CheckOptions& opts,
           std::uint64_t verdict, SpanRecorder& rec, LayerTotals& totals)
      : prog_(prog), opts_(opts), verdict_(verdict), rec_(rec), totals_(totals) {}

  Counts run() {
    if (opts_.tier == check::Tier::Tmod) {
      run_tmod();
    } else {
      run_auto();
    }
    stage("analysis.deadstore", [&] { (void)analysis::find_dead_stores(prog_); });
    return counts_;
  }

  /// Summed time of the replayed stages.
  [[nodiscard]] double staged_ms() const { return staged_ms_; }

 private:
  /// Runs `fn` under a span named `name`; adds its time to `<name>_ms`.
  template <class Fn>
  double stage(const std::string& name, Fn&& fn) {
    SpanRecorder::Scope s(rec_, name, verdict_);
    fn();
    const double ms = s.close();
    totals_.add(name + "_ms", ms);
    staged_ms_ += ms;
    return ms;
  }

  /// One directed witness search, budgeted at `max_configs`.
  std::optional<explore::Witness> search(explore::WitnessQuery q, std::uint64_t max_configs,
                                         explore::WitnessStats& ws) {
    q.explore.max_configs = max_configs;
    std::optional<explore::Witness> w;
    const double ms = stage("explore.witness", [&] { w = explore::find_witness(prog_, q, &ws); });
    totals_.witness_ms_max = std::max(totals_.witness_ms_max, ms);
    totals_.add("explore.witness_searches", 1);
    totals_.add("explore.witness_configs", static_cast<double>(ws.configs));
    totals_.add(w.has_value() || !ws.truncated ? "explore.witness_decided"
                                               : "explore.witness_exhausted",
                1);
    counts_.configs_explored += ws.configs;
    return w;
  }

  /// A race candidate's search: a co-enabled state confirms, an exhausted
  /// search refutes, a truncated one leaves the pair undecided.
  void race_search(std::uint32_t s1, std::uint32_t s2) {
    explore::WitnessQuery q;
    q.reach_predicate = race_reach_predicate(s1, s2);
    explore::WitnessStats ws;
    if (search(std::move(q), opts_.pair_budget, ws).has_value()) {
      ++counts_.confirmed;
    } else if (!ws.truncated) {
      ++counts_.refuted;
    } else {
      ++counts_.budget_exhausted;
    }
  }

  /// A fault / deadlock / violation witness, under the run's witness cap.
  void finding_search(explore::WitnessQuery q) {
    if (witness_budget_ == 0) return;
    --witness_budget_;
    explore::WitnessStats ws;
    (void)search(std::move(q), opts_.max_configs, ws);
  }

  /// StaticInfo, MHP, locksets and candidates: run_checks' StaticTier.
  void run_static(bool stmt_mhp) {
    stage("explore.static_info", [&] { info_.emplace(prog_); });
    stage("analysis.mhp", [&] {
      par_.emplace(prog_, *info_);
      if (stmt_mhp) mhp_ = par_->stmt_mhp();
    });
    stage("analysis.lockset", [&] { locks_.emplace(prog_, *info_); });
    stage("analysis.candidates",
          [&] { cands_ = analysis::race_candidates(prog_, *info_, *par_, *locks_); });
  }

  void run_auto() {
    absem::AbsOptions aopts;
    aopts.max_states = opts_.abs_max_states;
    absem::AbsResult<copar::absdom::Interval> abs;
    stage("absem.abs",
          [&] { abs = absem::AbsExplorer<copar::absdom::Interval>(prog_, aopts).run(); });
    counts_.abstract_states = abs.num_states;
    totals_.add("absem.abs_states", static_cast<double>(abs.num_states));
    totals_.add("absem.abs_truncated", abs.truncated ? 1 : 0);

    run_static(false);
    counts_.candidates = cands_.candidates.size();
    totals_.add("analysis.pairs_total", static_cast<double>(cands_.pairs_total));
    totals_.add("analysis.candidates", static_cast<double>(cands_.candidates.size()));

    const bool explore_now = abs.truncated || !abs.may_faults.empty() ||
                             !abs.may_fail_asserts.empty() || !locks_->deadlock_free() ||
                             !locks_->unlocks_safe();
    explore::ExploreResult conc;
    if (explore_now) {
      explore::ExploreOptions eopts;
      eopts.record_pairs = false;
      eopts.max_configs = opts_.max_configs;
      stage("explore.full", [&] { conc = explore::explore(prog_, eopts); });
      counts_.configs_explored += conc.num_configs;
      totals_.add("explore.full_configs", static_cast<double>(conc.num_configs));
    }

    witness_budget_ = opts_.witnesses ? opts_.max_witnesses : 0;
    for (const auto& [stmt, fault] : conc.faults) {
      explore::WitnessQuery q;
      q.want_fault = stmt;
      finding_search(std::move(q));
    }
    for (const analysis::RaceCandidate& c : cands_.candidates) race_search(c.stmt1, c.stmt2);
    if (conc.deadlock_found) {
      explore::WitnessQuery q;
      q.want_deadlock = true;
      finding_search(std::move(q));
    }
    for (const std::uint32_t stmt : conc.violations) {
      explore::WitnessQuery q;
      q.want_violation = stmt;
      finding_search(std::move(q));
    }
  }

  void run_tmod() {
    run_static(true);
    absem::TmodOptions topts;
    if (locks_->pristine()) {
      topts.must_locks = [this](std::uint32_t p, std::uint32_t pc) -> std::uint64_t {
        return locks_->live(p, pc) ? locks_->held(p, pc) : 0;
      };
    }
    topts.self_parallel = [this](std::uint32_t p) { return par_->parallel_procs(p, p); };
    topts.parallel = [this](std::uint32_t s, std::uint32_t t) { return mhp_.parallel(s, t); };
    absem::TmodResult<copar::absdom::Interval> tm;
    stage("absem.tmod", [&] { tm = absem::tmod_analyze<copar::absdom::Interval>(prog_, topts); });
    totals_.add("absem.tmod_rounds", tm.rounds);
    totals_.add("absem.tmod_interference_facts", static_cast<double>(tm.interference_facts));
    counts_.candidates = tm.races.races.size();
    totals_.add("analysis.pairs_total", static_cast<double>(tm.races.pairs_total));
    totals_.add("analysis.candidates", static_cast<double>(tm.races.races.size()));
    if (opts_.witnesses) {
      for (const absem::TmodRace& c : tm.races.races) race_search(c.stmt1, c.stmt2);
    }
  }

  const sem::LoweredProgram& prog_;
  const check::CheckOptions& opts_;
  std::uint64_t verdict_;
  SpanRecorder& rec_;
  LayerTotals& totals_;
  Counts counts_;
  double staged_ms_ = 0;
  std::size_t witness_budget_ = 0;

  std::optional<explore::StaticInfo> info_;
  std::optional<analysis::StaticParallelism> par_;
  std::optional<analysis::LockSets> locks_;
  analysis::Mhp mhp_;
  analysis::CandidateReport cands_;
};

void expect_equal(const char* what, std::uint64_t replay, std::uint64_t reference,
                  std::string& mismatches) {
  if (replay == reference) return;
  mismatches += std::string(" ") + what + ": replay " + std::to_string(replay) + " vs run_checks " +
                std::to_string(reference) + ";";
}

/// Parse and lower under their own spans (the two halves of copar::compile).
copar::CompiledProgram traced_compile(const std::string& source, std::uint64_t verdict,
                                      SpanRecorder& rec, LayerTotals& totals) {
  copar::CompiledProgram cp;
  {
    SpanRecorder::Scope s(rec, "lang.parse", verdict);
    cp.module = copar::lang::parse_program(source);
    totals.add("lang.parse_ms", s.close());
  }
  {
    SpanRecorder::Scope s(rec, "sem.lower", verdict);
    cp.lowered = sem::lower(*cp.module);
    totals.add("sem.lower_ms", s.close());
  }
  return cp;
}

}  // namespace

Judgement traced_check(const PhilProgram& prog, const PhilAnswer& answer,
                       const check::CheckOptions& opts, std::uint64_t verdict, SpanRecorder& rec,
                       LayerTotals& totals) {
  if (opts.tier != check::Tier::Auto && opts.tier != check::Tier::Tmod) {
    throw std::invalid_argument("the replay covers the auto and tmod tiers only");
  }
  SpanRecorder::Scope root(rec, "verdict", verdict);
  const copar::CompiledProgram cp = traced_compile(prog.source, verdict, rec, totals);

  copar::DiagnosticEngine engine;
  check::CheckSummary sum;
  double run_ms = 0;
  {
    SpanRecorder::Scope s(rec, "check.run_checks", verdict);
    sum = check::run_checks(cp, engine, opts);
    run_ms = s.close();
  }
  totals.add("check.run_checks_ms", run_ms);

  Replayer replay(*cp.lowered, opts, verdict, rec, totals);
  const Counts c = replay.run();
  totals.add("check.unattributed_ms", run_ms - replay.staged_ms());

  std::string mismatches;
  expect_equal("candidates", c.candidates, sum.stats.candidates, mismatches);
  expect_equal("confirmed", c.confirmed, sum.stats.confirmed, mismatches);
  expect_equal("refuted", c.refuted, sum.stats.refuted, mismatches);
  expect_equal("budget_exhausted", c.budget_exhausted, sum.stats.budget_exhausted, mismatches);
  expect_equal("configs_explored", c.configs_explored, sum.stats.configs_explored, mismatches);
  expect_equal("abstract_states", c.abstract_states, sum.abstract_states, mismatches);
  if (!mismatches.empty()) {
    throw FidelityError("verdict " + std::to_string(verdict) + ":" + mismatches);
  }

  {
    SpanRecorder::Scope s(rec, "support.render", verdict);
    std::ostringstream os;
    engine.render_json(os, "variant.cop");
    totals.add("support.render_ms", s.close());
  }
  root.close();
  ++totals.verdicts;
  return judge_check(engine.all(), prog, answer);
}

ExploreReference explore_reference(const std::string& source) {
  const auto cp = copar::compile(source);
  explore::ExploreOptions o;
  o.reduction = explore::Reduction::Stubborn;
  const explore::ExploreResult r = explore::explore(*cp->lowered, o);
  return ExploreReference{r.num_configs, r.terminal_keys()};
}

Judgement traced_explore(const std::string& source, const explore::ExploreOptions& opts,
                         const ExploreReference& ref, const LhAnswer& answer,
                         std::uint64_t verdict, SpanRecorder& rec, LayerTotals& totals) {
  SpanRecorder::Scope root(rec, "verdict", verdict);
  const copar::CompiledProgram cp = traced_compile(source, verdict, rec, totals);

  explore::ExploreResult r;
  double ms = 0;
  double cpu_s = 0;
  {
    SpanRecorder::Scope s(rec, "explore.par", verdict);
    const double cpu0 = process_cpu_s();
    r = explore::explore(*cp.lowered, opts);
    ms = s.close();
    cpu_s = process_cpu_s() - cpu0;
  }
  totals.add("explore.par_ms", ms);
  totals.add("explore.par_configs", static_cast<double>(r.num_configs));
  totals.add("explore.seq_configs", static_cast<double>(ref.configs));
  totals.add("explore.proviso_full_expansions",
             static_cast<double>(r.stats.get("proviso_full_expansions")));
  totals.add("explore.steals", static_cast<double>(r.stats.get("steals")));
  totals.add("explore.steal_misses", static_cast<double>(r.stats.get("steal_misses")));
  totals.add("explore.cpu_s", cpu_s);
  if (r.terminal_keys() != ref.terminal_keys) {
    throw FidelityError("verdict " + std::to_string(verdict) +
                        ": parallel terminal set differs from the sequential stubborn run");
  }
  root.close();
  ++totals.verdicts;
  return judge_explore(r, answer);
}

}  // namespace perfbench
