// The verdict checker must flag deliberately wrong findings, one defect per
// case, and accept the engines' real verdicts on the benchmark's programs.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/check/check.h"
#include "src/explore/explorer.h"
#include "src/sem/program.h"
#include "verdict.h"
#include "workloads.h"

namespace perfbench {
namespace {

using copar::Diagnostic;

std::uint32_t line_of(const PhilProgram& prog, std::size_t philosopher) {
  for (const auto& [line, p] : prog.philosopher_at_line) {
    if (p == philosopher) return line;
  }
  ADD_FAILURE() << "no line for philosopher " << philosopher;
  return 0;
}

Diagnostic race(const PhilProgram& prog, const PhilPair& pair, bool definite) {
  Diagnostic d;
  d.code = "race";
  d.severity = copar::Severity::Error;
  d.span.begin = {line_of(prog, pair.first), 33};
  d.loc = d.span.begin;
  d.related_spans.push_back({{line_of(prog, pair.second), 33}, {}});
  d.message = std::string(definite ? "" : "possible ") + "write/write data race";
  if (definite) d.notes.push_back({{}, "witness interleaving (4 steps):"});
  return d;
}

struct PhilCase {
  PhilVariant variant = phil_variant(6, 6, 7);
  PhilProgram prog = phil_program(variant);
  PhilAnswer answer = phil_answer(variant);

  /// The right verdict: every true race definite, with a witness.
  std::vector<Diagnostic> right_findings() const {
    std::vector<Diagnostic> out;
    for (const PhilPair& p : answer.races) out.push_back(race(prog, p, true));
    return out;
  }
};

TEST(Answers, PhilSixAllBumpersHasNineRacesAndSixGuardedPairs) {
  const PhilCase c;
  EXPECT_EQ(c.answer.races.size(), 9u);
  EXPECT_EQ(c.answer.guarded.size(), 6u);
  EXPECT_TRUE(c.answer.races.contains({0, 2}));
  EXPECT_TRUE(c.answer.guarded.contains({0, 5}));  // share fork 0
}

TEST(Answers, SeedPicksBumpersAndOrder) {
  const PhilVariant a = phil_variant(8, 5, 1);
  const PhilVariant b = phil_variant(8, 5, 2);
  EXPECT_EQ(std::count(a.bumps_total.begin(), a.bumps_total.end(), true), 5);
  EXPECT_TRUE(a.bumps_total != b.bumps_total || a.order != b.order);
  EXPECT_EQ(phil_program(a).source, phil_program(phil_variant(8, 5, 1)).source);
}

TEST(JudgeCheck, AcceptsTheRightVerdict) {
  const PhilCase c;
  const Judgement j = judge_check(c.right_findings(), c.prog, c.answer);
  EXPECT_TRUE(j.right());
  EXPECT_EQ(j.facts, 15u);
  EXPECT_EQ(j.settled, 15u);
}

TEST(JudgeCheck, FlagsADroppedTrueRace) {
  const PhilCase c;
  std::vector<Diagnostic> findings = c.right_findings();
  findings.pop_back();
  const Judgement j = judge_check(findings, c.prog, c.answer);
  ASSERT_FALSE(j.right());
  EXPECT_NE(j.problems[0].find("true race missing"), std::string::npos);
}

TEST(JudgeCheck, FlagsADefiniteRaceOnAForkGuardedPair) {
  const PhilCase c;
  std::vector<Diagnostic> findings = c.right_findings();
  findings.push_back(race(c.prog, *c.answer.guarded.begin(), true));
  const Judgement j = judge_check(findings, c.prog, c.answer);
  ASSERT_FALSE(j.right());
  EXPECT_NE(j.problems[0].find("definite race on race-free"), std::string::npos);
}

TEST(JudgeCheck, FlagsADefiniteNonRaceError) {
  const PhilCase c;
  std::vector<Diagnostic> findings = c.right_findings();
  Diagnostic d;
  d.code = "deadlock";
  d.severity = copar::Severity::Error;
  d.message = "the program can deadlock";
  findings.push_back(d);
  EXPECT_FALSE(judge_check(findings, c.prog, c.answer).right());
}

TEST(JudgeCheck, PossibleRacesAreRightButUnsettled) {
  const PhilCase c;
  std::vector<Diagnostic> findings;
  for (const PhilPair& p : c.answer.races) findings.push_back(race(c.prog, p, false));
  findings.push_back(race(c.prog, *c.answer.guarded.begin(), false));
  const Judgement j = judge_check(findings, c.prog, c.answer);
  EXPECT_TRUE(j.right());
  EXPECT_EQ(j.settled, c.answer.guarded.size() - 1);
}

TEST(JudgeCheck, AcceptsRunChecksOnPhilFive) {
  const PhilVariant v = phil_variant(5, 4, 3);
  const PhilProgram prog = phil_program(v);
  const auto cp = copar::compile(prog.source);
  copar::DiagnosticEngine engine;
  (void)copar::check::run_checks(*cp, engine, {});
  const Judgement j = judge_check(engine.all(), prog, phil_answer(v));
  EXPECT_TRUE(j.right()) << (j.problems.empty() ? "" : j.problems[0]);
  EXPECT_EQ(j.settled, j.facts);
}

/// Explores and judges while the program the terminals point into is alive.
Judgement judge_lh(const LhVariant& v, std::uint64_t max_configs, bool* truncated = nullptr) {
  const auto cp = copar::compile(lh_program(v));
  copar::explore::ExploreOptions o;
  o.reduction = copar::explore::Reduction::Stubborn;
  o.max_configs = max_configs;
  const copar::explore::ExploreResult r = copar::explore::explore(*cp->lowered, o);
  if (truncated != nullptr) *truncated = r.truncated;
  return judge_explore(r, lh_answer(v));
}

TEST(JudgeExplore, AcceptsACompleteExploration) {
  const LhVariant v = lh_variant(5, 11);
  const Judgement j = judge_lh(v, 2'000'000);
  EXPECT_TRUE(j.right()) << (j.problems.empty() ? "" : j.problems[0]);
  EXPECT_EQ(j.settled, 1u);
}

TEST(JudgeExplore, FlagsATruncatedExploration) {
  const LhVariant v = lh_variant(5, 11);
  bool truncated = false;
  const Judgement j = judge_lh(v, 10, &truncated);
  ASSERT_TRUE(truncated);
  ASSERT_FALSE(j.right());
  EXPECT_EQ(j.problems[0], "exploration truncated");
  EXPECT_EQ(j.settled, 0u);
}

TEST(JudgeExplore, FlagsTheDeadlockOfAllRightHandedPhilosophers) {
  // Without a left-hander the ring can deadlock.
  LhVariant v = lh_variant(4, 5);
  v.left_hander = v.n;  // nobody
  const Judgement j = judge_lh(v, 2'000'000);
  EXPECT_FALSE(j.right());
}

}  // namespace
}  // namespace perfbench
