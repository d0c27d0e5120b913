// perfbench: the time-to-verdict benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--source-digest <hex>]
//
// One process runs one workload. It generates the seeded variants and
// their known answers, warms up, then times verdicts back to back (a closed
// loop, one client) for --seconds, judging every verdict against its
// answer. --trace 0 prints the end-to-end metrics, every time scaled to a
// reference host speed by probes around each sample (speedprobe.h);
// --trace 1 replays every verdict layer by layer instead and prints the
// per-layer metrics, a self-time summary on stderr, and a Chrome trace file
// in --out-dir. The last line on stdout is the result object.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "spans.h"
#include "speedprobe.h"
#include "src/check/check.h"
#include "src/explore/explorer.h"
#include "src/sem/program.h"
#include "src/support/json.h"
#include "verdict.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace check = copar::check;
namespace explore = copar::explore;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/// The untraced run repeats a set-up round after every this many verdicts,
/// so the set-up samples span the run the way the verdict samples do;
/// setup_s is their median.
constexpr std::size_t kSetupEvery = 16;
/// A run always times enough verdicts for a tail percentile with ten
/// samples beyond it, and stops early only at this wall-clock cap.
constexpr std::size_t kMinVerdicts = 11;
constexpr double kMaxRunSeconds = 150.0;

struct Workload {
  std::string name;
  bool explore = false;
  std::size_t n = 0;
  /// Variants generated per run; verdicts cycle through them. Enough that a
  /// run's mix of variant costs hardly depends on the seed.
  std::size_t variants = 48;
  /// phil-n only: how many philosophers bump `total`.
  std::size_t bumpers = 0;
  check::CheckOptions check;
  explore::ExploreOptions explore_opts;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w{"phil-auto"};
    w.n = 5;
    w.bumpers = 4;
    w.check.tier = check::Tier::Auto;
    out.push_back(w);
  }
  {
    Workload w{"phil-witness"};
    w.n = 10;
    w.bumpers = 10;
    w.check.tier = check::Tier::Tmod;
    w.check.pair_budget = 1000;
    out.push_back(w);
  }
  {
    Workload w{"phil-wide"};
    w.n = 64;
    w.bumpers = 63;
    // Its variants cost the same to within a few percent, and the answer of
    // each holds ~2k pairs, which would weigh in the peak RSS.
    w.variants = 16;
    w.check.tier = check::Tier::Tmod;
    w.check.witnesses = false;
    out.push_back(w);
  }
  {
    Workload w{"lh-par"};
    w.explore = true;
    w.n = 8;
    w.explore_opts.reduction = explore::Reduction::Stubborn;
    w.explore_opts.threads = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
    out.push_back(w);
  }
  return out;
}

struct Variant {
  std::string source;
  PhilProgram phil;
  PhilAnswer phil_answer;
  LhAnswer lh_answer;
  /// Traced lh-n runs only: the sequential stubborn reference.
  ExploreReference reference;
};

std::vector<Variant> make_variants(const Workload& w, std::uint64_t seed) {
  std::vector<Variant> out;
  for (std::size_t i = 0; i < w.variants; ++i) {
    const std::uint64_t s = variant_seed(seed, i);
    Variant v;
    if (w.explore) {
      const LhVariant lv = lh_variant(w.n, s);
      v.source = lh_program(lv);
      v.lh_answer = lh_answer(lv);
    } else {
      const PhilVariant pv = phil_variant(w.n, w.bumpers, s);
      v.phil = phil_program(pv);
      v.source = v.phil.source;
      v.phil_answer = phil_answer(pv);
    }
    out.push_back(std::move(v));
  }
  return out;
}

/// One untraced verdict: the work of `copar-cli check --json` (or
/// `explore`) without process start. Only the verdict itself is timed; the
/// judgement runs after the clock stops.
Judgement timed_verdict(const Workload& w, const Variant& v, double& ms) {
  const std::uint64_t t0 = now_ns();
  if (w.explore) {
    const auto cp = copar::compile(v.source);
    const explore::ExploreResult r = explore::explore(*cp->lowered, w.explore_opts);
    ms = static_cast<double>(now_ns() - t0) / 1e6;
    return judge_explore(r, v.lh_answer);
  }
  const auto cp = copar::compile(v.source);
  copar::DiagnosticEngine engine;
  (void)check::run_checks(*cp, engine, w.check);
  std::ostringstream rendered;
  engine.render_json(rendered, "variant.cop");
  ms = static_cast<double>(now_ns() - t0) / 1e6;
  return judge_check(engine.all(), v.phil, v.phil_answer);
}

Judgement traced_verdict(const Workload& w, const Variant& v, std::uint64_t id,
                         SpanRecorder& rec, LayerTotals& totals) {
  if (w.explore) {
    return traced_explore(v.source, w.explore_opts, v.reference, v.lh_answer, id, rec, totals);
  }
  return traced_check(v.phil, v.phil_answer, w.check, id, rec, totals);
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the launching parent's peak: it survives the
/// fork and the exec.)
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("model name")) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value != "0";
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else if (flag == "--commit") {
        a.commit = value;
      } else if (flag == "--source-digest") {
        a.source_digest = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
  return a;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Shortest round-trip decimal form: every digit as measured.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// The result line; written by hand because JsonWriter rounds doubles to
/// six significant digits.
void write_result(std::ostream& os, bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}" << std::endl;
}

/// Per-verdict means, maxima and ratios of the traced run's layer totals.
std::vector<Metric> layer_metrics(const LayerTotals& t, unsigned workers) {
  const double verdicts = std::max<double>(1, static_cast<double>(t.verdicts));
  auto mean = [&](const std::string& name) { return t.get(name) / verdicts; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double par_s = t.get("explore.par_ms") / 1000.0;

  std::vector<Metric> out;
  for (const char* name : {"lang.parse_ms", "sem.lower_ms", "explore.static_info_ms",
                           "analysis.mhp_ms", "analysis.lockset_ms", "analysis.candidates_ms",
                           "analysis.deadstore_ms", "absem.abs_ms", "absem.tmod_ms",
                           "explore.full_ms", "explore.witness_ms", "explore.par_ms",
                           "support.render_ms", "check.run_checks_ms",
                           "check.unattributed_ms"}) {
    out.push_back({name, mean(name), "ms"});
  }
  out.push_back({"explore.witness_ms_max", t.witness_ms_max, "ms"});
  for (const char* name : {"absem.abs_states", "absem.tmod_rounds",
                           "absem.tmod_interference_facts", "analysis.pairs_total",
                           "analysis.candidates", "explore.full_configs",
                           "explore.witness_searches", "explore.witness_configs",
                           "explore.witness_exhausted", "explore.par_configs",
                           "explore.proviso_full_expansions", "explore.steals",
                           "explore.steal_misses"}) {
    out.push_back({name, mean(name), "count"});
  }
  out.push_back({"absem.abs_truncated", mean("absem.abs_truncated"), "share"});
  out.push_back({"explore.witness_decided_ratio",
                 ratio(t.get("explore.witness_decided"), t.get("explore.witness_searches")),
                 "share"});
  out.push_back({"explore.configs_per_s", ratio(t.get("explore.par_configs"), par_s), "1/s"});
  out.push_back({"explore.par_inflation",
                 ratio(t.get("explore.par_configs"), t.get("explore.seq_configs")), "ratio"});
  out.push_back({"explore.cpu_util", ratio(t.get("explore.cpu_s"), par_s * workers), "share"});
  return out;
}

/// Prints the self-time summary: every span name, then per module prefix.
/// `verdict` roots and the reference `check.run_checks` call are listed
/// apart from the layers.
void print_self_times(const SpanRecorder& rec, std::ostream& os) {
  const std::map<std::string, double> self = rec.self_ms();
  std::vector<std::pair<double, std::string>> layers;
  std::map<std::string, double> modules;
  double total = 0;
  for (const auto& [name, ms] : self) {
    if (name == "verdict" || name == "check.run_checks") continue;
    layers.emplace_back(ms, name);
    modules[name.substr(0, name.find('.'))] += ms;
    total += ms;
  }
  std::sort(layers.rbegin(), layers.rend());
  os << "self time by layer (ms, share of replayed layers):\n" << std::fixed << std::setprecision(2);
  for (const auto& [ms, name] : layers) {
    os << "  " << std::left << std::setw(28) << name << std::right << std::setw(12) << ms
       << std::setw(8) << (total > 0 ? 100 * ms / total : 0) << "%\n";
  }
  os << "self time by module:\n";
  for (const auto& [module, ms] : modules) {
    os << "  " << std::left << std::setw(28) << module << std::right << std::setw(12) << ms
       << std::setw(8) << (total > 0 ? 100 * ms / total : 0) << "%\n";
  }
  for (const char* ref : {"check.run_checks", "verdict"}) {
    const auto it = self.find(ref);
    if (it != self.end()) os << "  (" << ref << " self: " << it->second << " ms)\n";
  }
  os.unsetf(std::ios::fixed);
}

int run(const Args& args) {
  const std::vector<Workload> all = workloads();
  const auto wit = std::find_if(all.begin(), all.end(),
                                [&](const Workload& w) { return w.name == args.workload; });
  if (wit == all.end()) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload& w = *wit;

  const EnvStamp env = {
      {"workload", w.name},
      {"seed", std::to_string(args.seed)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu_model()},
#ifdef __clang__
      {"compiler", "clang " __clang_version__},
#else
      {"compiler", "gcc " __VERSION__},
#endif
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"git_commit", args.commit},
      {"source_sha256", args.source_digest},
      {"explore_workers", std::to_string(w.explore_opts.threads)},
      {"reference_probe_ms", json_number(kReferenceProbeMs)},
      {"probe_elasticity", json_number(kProbeElasticity)},
  };
  {
    copar::support::JsonWriter jw(std::cout);
    jw.begin_object();
    jw.key("env");
    jw.begin_object();
    for (const auto& [k, v] : env) {
      jw.key(k);
      jw.value(v);
    }
    jw.end_object();
    jw.end_object();
    std::cout << '\n';
  }

  // The untraced run scales every timed sample to the reference speed.
  std::optional<SpeedScale> speed;
  if (!args.trace) speed.emplace();

  // --- set-up: generate, compile each variant once, one warm-up verdict ----
  std::vector<double> setup_wall_s;
  std::vector<double> setup_s;
  auto setup_round = [&] {
    const std::uint64_t t0 = now_ns();
    std::vector<Variant> fresh = make_variants(w, args.seed);
    for (const Variant& v : fresh) (void)copar::compile(v.source);
    double ignored = 0;
    (void)timed_verdict(w, fresh[setup_wall_s.size() % fresh.size()], ignored);
    setup_wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (speed) setup_s.push_back(speed->scale(setup_wall_s.back()));
    return fresh;
  };
  std::vector<Variant> variants = setup_round();
  if (args.trace && w.explore) {
    for (Variant& v : variants) v.reference = explore_reference(v.source);
  }

  // --- the timed loop ---------------------------------------------------------
  SpanRecorder rec;
  LayerTotals totals;
  std::vector<double> verdict_wall_ms;
  std::vector<double> verdict_ms;
  std::size_t attempted = 0;
  std::size_t wrong = 0;
  std::size_t facts = 0;
  std::size_t settled = 0;
  const std::uint64_t start = now_ns();
  auto elapsed_s = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  while ((elapsed_s() < args.seconds || attempted < kMinVerdicts) &&
         elapsed_s() < kMaxRunSeconds) {
    if (!args.trace && attempted > 0 && attempted % kSetupEvery == 0) {
      // The loop goes on with the regenerated (identical) set, so only one
      // set of variants is alive at a time.
      variants.clear();
      variants = setup_round();
    }
    const Variant& v = variants[attempted % variants.size()];
    ++attempted;
    Judgement j;
    try {
      if (args.trace) {
        j = traced_verdict(w, v, attempted, rec, totals);
      } else {
        double ms = 0;
        j = timed_verdict(w, v, ms);
        verdict_wall_ms.push_back(ms);
        verdict_ms.push_back(speed->scale(ms));
      }
    } catch (const FidelityError& e) {
      std::cerr << "perfbench: replay fidelity check failed: " << e.what() << '\n';
      return 1;
    } catch (const std::exception& e) {
      j.problems.push_back(std::string("exception: ") + e.what());
    }
    facts += j.facts;
    settled += j.settled;
    if (!j.right()) {
      ++wrong;
      std::cerr << "perfbench: wrong verdict " << attempted << ":";
      for (const std::string& p : j.problems) std::cerr << ' ' << p << ';';
      std::cerr << '\n';
    }
  }

  std::vector<Metric> metrics;
  std::ostringstream note;
  if (args.trace) {
    metrics = layer_metrics(totals, w.explore_opts.threads);
    print_self_times(rec, std::cerr);
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/trace-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::ofstream out(path);
    rec.write_chrome_trace(out, env);
    note << "trace written to " << path;
  } else {
    std::vector<double> sorted = verdict_ms;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    if (n < kMinVerdicts) {
      std::cerr << "perfbench: only " << n << " verdicts timed in " << kMaxRunSeconds
                << " s; a tail needs " << kMinVerdicts << '\n';
      return 1;
    }
    // The highest percentile with at least ten samples beyond it.
    const std::size_t tail_index = n - 11;
    const double tail_pct = 100.0 * static_cast<double>(tail_index + 1) / static_cast<double>(n);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"verdict_ms_p50", median(verdict_ms), "ms"},
        {"verdict_ms_tail", sorted[tail_index], "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"decided_share", facts > 0 ? static_cast<double>(settled) / facts : 0.0, "share"},
        {"right_verdict_share", 1.0 - static_cast<double>(wrong) / attempted, "share"},
    };
    note << std::fixed << std::setprecision(1) << "verdict_ms_tail is p" << tail_pct << " of "
         << n << " verdicts; decided " << settled << " of " << facts
         << " known-answer facts; unscaled wall: verdict p50 " << median(verdict_wall_ms)
         << " ms, set-up " << std::setprecision(3) << median(setup_wall_s) << " s; speed probe p50 "
         << median(speed->probes_ms()) << " ms (reference " << kReferenceProbeMs << ")";
  }
  std::cerr << "perfbench: " << w.name << " seed " << args.seed << ": " << attempted
            << " verdicts, " << wrong << " wrong; " << note.str() << '\n';

  write_result(std::cout, wrong == 0, attempted, wrong, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kOptimized) {
    std::cerr << "perfbench: refusing to record from an unoptimised build (build type "
              << PERFBENCH_BUILD_TYPE << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 1;
  }
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--out-dir <dir>] [--commit <id>] [--source-digest <hex>]\n";
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
