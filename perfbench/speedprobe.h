// The host speed probe that the end-to-end times are scaled by.
//
// The benchmark runs on a few vCPUs of a host whose other tenants compete
// for the shared L3 cache and memory bandwidth. That contention changes
// within seconds and over minutes, and it slows a verdict by up to 2×
// without showing in CPU time. Run medians of raw wall time then move more
// between runs of the same code than any bound a later change could be
// held to.
//
// The probe is a fixed piece of work that uses only the standard library,
// never copar: a register-only arithmetic chain, a hash-table build over a
// few MiB with a sort, and an ordered map of short strings with small
// vectors. Its time is the geometric mean of the three parts' times. Each
// timed sample is bracketed by two probes, and its wall time is scaled by
// (kReferenceProbeMs / p)^kProbeElasticity, where p is the geometric mean of
// the two probes. The scaled time estimates what the sample would take at
// the speed where the probe takes kReferenceProbeMs. A change to copar moves
// the sample but not the probe, so it shows in full; a change in the host's
// load moves both.
//
// The probe runs in a helper process, forked once and driven over a pipe,
// so its heap never counts towards the benchmark process's peak RSS. Only
// one of the two processes runs at a time.
#pragma once

#include <sys/types.h>

#include <vector>

namespace perfbench {

/// The probe's time on the host the baseline was recorded on (4 vCPUs of a
/// 2.0 GHz Xeon, gcc 12 Release), in its calmer periods. It only sets the
/// unit: scaled times read as milliseconds at that speed.
inline constexpr double kReferenceProbeMs = 10.0;

/// How strongly a verdict's wall time follows the probe's: the slope of
/// log(run median) over log(probe median) across runs of one workload at
/// different host loads. On the baseline host it measured 0.63 (lh-par) to
/// 0.89 (phil-wide); the probe, with its larger hash table, is hit harder
/// by contention than the verdicts are, and scaling by the full ratio
/// over-corrects the most loaded runs.
inline constexpr double kProbeElasticity = 0.75;

/// Scales each timed sample by the probes on either side of it.
class SpeedScale {
 public:
  /// Forks the probe process and runs the first probe. Call it while the
  /// process has a single thread.
  SpeedScale();
  /// Closes the pipe, which ends the probe process, and waits for it.
  ~SpeedScale();
  SpeedScale(const SpeedScale&) = delete;
  SpeedScale& operator=(const SpeedScale&) = delete;

  /// Probes again and returns `ms` at the reference speed: ms ×
  /// (kReferenceProbeMs / geomean(previous probe, this probe))^kProbeElasticity.
  double scale(double ms);

  /// Every probe run so far, in milliseconds.
  [[nodiscard]] const std::vector<double>& probes_ms() const noexcept { return probes_ms_; }

 private:
  double probe();

  pid_t child_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::vector<double> probes_ms_;
};

}  // namespace perfbench
