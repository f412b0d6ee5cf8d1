#pragma once

// Shared plumbing of the workload runner: configuration, the per-run
// report that run.py turns into metrics, timing helpers, and the output
// checks every workload applies to what the program returns.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"
#include "solver/solver.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// SplitMix64 step: derives independent, reproducible streams from the
/// benchmark seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// Uniform [0, 1) draws from a SplitMix64 stream (portable, unlike the
/// standard distributions).
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  std::uint64_t state_;
};

/// Workload parameters passed as key=value arguments by run.py.
class Params {
public:
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  std::string get(const std::string& key) const;
  std::int64_t getInt(const std::string& key) const;
  double getDouble(const std::string& key) const;
  std::vector<std::string> getList(const std::string& key) const;

private:
  std::map<std::string, std::string> values_;
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: falsify the first reported cost before it is
  /// checked, so the run must fail its output check.
  bool corrupt = false;
  std::string workDir; ///< directory for the run's temporary files
  Params params;
};

/// Everything one workload run measured. Thread-safe where noted.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> setupS;
  std::vector<double> latenciesMs;
  std::int64_t ops = 0;
  double measuredS = 0.0;
  /// Wall time per operation of the pass (the mean; serve-skewed uses the
  /// median latency), compared between an untraced and a traced pass.
  double perOpMs = 0.0;
  /// Σ heuristic carbon cost and Σ ASAP cost over the same instances.
  double heuristicCost = 0.0;
  double asapCost = 0.0;
  /// Peak RSS right after the measured passes, before the output checks
  /// (which hold the benchmark's own copies of the instances).
  double peakRssMb = 0.0;
  /// Workload-specific end-to-end figures printed in the report
  /// (slo_rate_rps, generator lateness, hot-entry share, ...).
  std::map<std::string, double> extra;
  /// Per-layer values measured outside the span tree (traced runs).
  std::map<std::string, double> counters;

  /// Record an output-check failure (thread-safe). Any failure makes the
  /// benchmark exit non-zero.
  void checkFailed(const std::string& what);
  std::vector<std::string> checkErrors() const;

private:
  mutable std::mutex mutex_;
  std::vector<std::string> errors_;
};

/// Run `setup` `times` times and record each wall time in `report.setupS`.
void timeSetup(Report& report, int times, const std::function<void()>& setup);

/// Peak resident set size of this process so far (VmHWM), in MB.
double peakRssMb();

/// The output check shared by every workload: the schedule the program
/// returned must validate against the deadline, its recomputed carbon
/// cost must equal the reported one, and that cost may not undercut the
/// instance's carbon lower bound. Runs `validateSchedule` and
/// `evaluateCost` inside the spans `core.validate` / `core.cost`.
void checkSchedule(Report& report, const cawo::EnhancedGraph& gc,
                   const cawo::PowerProfile& profile, cawo::Time deadline,
                   const cawo::Schedule& schedule, cawo::Cost reported,
                   cawo::Cost lowerBound, const std::string& what);

/// Same check for a `Solver::solve` result on its (possibly re-mapped)
/// problem; an infeasible result counts as a failed operation.
void checkSolveResult(Report& report, const cawo::EnhancedGraph& gc,
                      const cawo::PowerProfile& profile, cawo::Time deadline,
                      const cawo::SolveResult& result, cawo::Cost lowerBound,
                      const std::string& what);

/// Compare a reported cost with the recomputed one; applies the
/// self-test corruption to the first comparison of the process.
void checkCostEqual(Report& report, cawo::Cost reported, cawo::Cost recomputed,
                    const std::string& what);

void setCorruption(bool enabled);

// Workloads. Each fills `report`; with `config.trace` each runs its
// measured pass twice (recorder off, then recording) and leaves the
// recorder's events for the caller to write out.
void runCampaignGrid(const Config& config, Report& report);
void runSolveLarge(const Config& config, Report& report);
void runServeSkewed(const Config& config, Report& report);
void runReplayReactive(const Config& config, Report& report);

/// Run `pass(seconds, report)` once untraced for the end-to-end metrics,
/// or, for a traced run, once with the recorder off and once recording
/// (half the time each) to derive `obs.trace_overhead_frac`.
void runPasses(const Config& config, Report& report,
               const std::function<void(double, Report&)>& pass);

} // namespace perfbench
