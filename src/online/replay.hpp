#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/est_lst.hpp"
#include "core/schedule.hpp"
#include "core/solve_context.hpp"
#include "online/policy.hpp"
#include "sim/instance.hpp"
#include "solver/solver.hpp"

/// \file replay.hpp
/// The online execution replay engine (see DESIGN.md, "Online execution
/// engine").
///
/// The paper grades CaWoSched offline: the solver sees one carbon profile
/// and the schedule is billed against that same profile. This engine plays
/// the schedule *forward through reality*: the solver plans against a
/// **forecast** profile, execution is billed against an **actual** profile,
/// per-task runtimes may drift from ω(u), and at every task-completion
/// event a pluggable `ReschedulePolicy` decides whether the not-yet-started
/// remainder is re-solved against the latest state.
///
/// Execution model — a deterministic event loop over task completions:
///   * a task starts at max(plan start, release by real predecessor
///     completions); Gc's per-processor chain edges make predecessor
///     release subsume processor exclusivity;
///   * completed and running tasks are pinned; the engine maintains the
///     pinned-prefix EST/LST windows *incrementally* (`WindowState::place`
///     per start event — the PR-4 worklist machinery, never a full sweep);
///   * re-solves build a residual `SolveRequest` (pinned starts, effective
///     durations, release time, the live windows) against the shared
///     per-replay `SolveContext`, so each re-solve pays only for the
///     movable remainder; an infeasible re-solve is rejected and the
///     previous plan keeps executing.
///
/// With the `static` policy, zero runtime perturbation and
/// actual == forecast, the replay reproduces the offline solver's cost bit
/// for bit (pinned by test) — the engine is a strict generalisation of the
/// offline evaluation.

namespace cawo {

/// Knobs of one replay.
struct OnlineOptions {
  /// Registry solver producing the offline plan (and the clairvoyant
  /// reference solve against actuals).
  std::string solver = "pressWR-LS";
  /// Rescheduling policy spec (see ReschedulePolicyRegistry).
  std::string policy = "static";
  /// Per-task multiplicative runtime perturbation amplitude in [0, 1):
  /// actual duration = max(1, round(ω(u) · (1 + U(−A, A)))). 0 = exact.
  double runtimeNoise = 0.0;
  std::uint64_t runtimeSeed = 1;
  /// Forwarded to every solve (block-size, ls-radius, alpha, ...).
  SolverOptions solverOptions;
  /// Also solve the instance offline against the *actual* profile — the
  /// clairvoyant reference that regret is measured against. Costs one
  /// extra solve; switch off for pure execution replays.
  bool clairvoyant = true;
  /// Optional precomputed offline plan: `solver` solved against exactly
  /// (instance.gc, forecast, instance.deadline) with `solverOptions`.
  /// The plan and the clairvoyant reference are policy-independent, so
  /// per-policy loops solve each once and share them (see
  /// `applyClairvoyantReference`); when set the engine skips its own
  /// planning solve. Must outlive the replay.
  const SolveResult* precomputedPlan = nullptr;
  /// Optional shared per-instance context describing exactly
  /// (instance.gc, forecast, instance.deadline). Per-policy loops pass
  /// one so the memoized windows/score-order/refined-interval artifacts
  /// are derived once per row, not once per policy. The context
  /// synchronizes itself, so replays sharing it may run concurrently.
  /// Must outlive the replay.
  const SolveContext* sharedContext = nullptr;
};

/// One re-solve attempt.
struct ResolveRecord {
  Time at = 0;          ///< event time of the attempt
  double wallMs = 0.0;  ///< wall time of the residual solve
  /// The new plan was adopted: feasible AND projected no worse than the
  /// incumbent. Otherwise the old plan keeps executing.
  bool accepted = false;
};

/// Everything one replay produced.
struct OnlineResult {
  std::string solver;
  std::string policy;
  bool ran = false;   ///< false: the offline solve failed (see `error`)
  std::string error;  ///< why the replay did not run

  Cost forecastCost = 0;    ///< offline plan billed against the forecast
  Cost actualCost = 0;      ///< executed trajectory billed against actuals
  Cost clairvoyantCost = 0; ///< same solver solved against actuals
  bool clairvoyantFeasible = false;
  /// actualCost − clairvoyantCost (meaningful when clairvoyantFeasible;
  /// can be negative — the clairvoyant reference is heuristic, not a
  /// proven optimum).
  Cost regret = 0;
  /// actualCost / clairvoyantCost; NaN when undefined.
  double regretRatio = 0.0;

  std::size_t resolveCount = 0;    ///< re-solve attempts
  std::size_t resolveAccepted = 0; ///< attempts that replaced the plan
  double resolveWallMs = 0.0;      ///< Σ wall time over all attempts
  double solveWallMs = 0.0;        ///< wall time of the offline solve
  std::vector<ResolveRecord> resolves;

  Time deadline = 0;   ///< effective deadline the replay ran under
  Time finishTime = 0; ///< completion time of the last task
  bool deadlineMet = false;
};

/// Event-driven replay of one instance. Construct, then either `run()` in
/// one go or `step()` through completion-event batches (tests use the
/// fine-grained form to check the incremental windows after every event).
/// The instance, forecast and actual must outlive the engine.
class ReplayEngine {
public:
  /// Solves the offline plan in the constructor; throws PreconditionError
  /// when the solver cannot run on the instance (capability mismatch) and
  /// InvariantError-style failures propagate. An *infeasible* offline
  /// solve is reported via `planFeasible()` instead of thrown.
  ReplayEngine(const Instance& instance, const PowerProfile& forecast,
               const PowerProfile& actual, const OnlineOptions& options);

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  bool planFeasible() const { return planFeasible_; }

  /// All tasks completed?
  bool finished() const {
    return completedCount_ == static_cast<std::size_t>(numNodes());
  }

  /// Advance to the next completion-event batch: start everything
  /// startable, apply the batch's completions, consult the policy (and
  /// possibly re-solve). Returns the batch time. Requires
  /// `planFeasible() && !finished()`.
  Time step();

  /// Drive to completion and assemble the result. Also usable after
  /// partial manual stepping.
  OnlineResult run();

  // Introspection (tests and diagnostics).
  const EnhancedGraph& gc() const { return *gc_; }
  Time deadline() const { return deadline_; }
  Time now() const { return now_; }
  const WindowState& windows() const { return *windows_; }
  const Schedule& plan() const { return plan_; }
  const Schedule& executedStarts() const { return executed_; }
  const std::vector<std::uint8_t>& startedMask() const { return started_; }
  const std::vector<Time>& actualDurations() const { return durations_; }
  std::size_t resolveCount() const { return resolves_.size(); }

private:
  TaskId numNodes() const { return gc_->numNodes(); }
  void startReady();
  void startNode(TaskId v, Time at);
  void applyPolicy();
  bool attemptResolve();
  double windowedDeviation();
  std::int64_t intervalIndexAt(Time t) const;

  OnlineOptions options_;

  // Effective problem (differs from the instance for re-mapping solvers).
  const EnhancedGraph* gc_ = nullptr;
  const PowerProfile* forecast_ = nullptr;
  const PowerProfile* actual_ = nullptr;
  Time deadline_ = 0;
  std::shared_ptr<const EnhancedGraph> remappedGc_;    // keepalive
  std::shared_ptr<const PowerProfile> forecastOwned_;  // keepalive
  std::optional<PowerProfile> actualOwned_; // extended copy (remap case)

  const SolveContext* ctx_ = nullptr; ///< context of the effective problem
  std::optional<SolveContext> ownedCtx_; ///< backing storage unless shared
  SolverPtr resolveSolver_;         ///< residual-capable re-solver
  PolicyPtr policy_;

  bool planFeasible_ = false;
  std::string planError_;
  Cost forecastCost_ = 0;
  double solveWallMs_ = 0.0;

  Schedule plan_;                     ///< current plan (complete schedule)
  Schedule executed_;                 ///< actual starts (unset = unstarted)
  std::vector<Time> durations_;       ///< actual (perturbed) durations
  std::vector<Time> plannedLens_;     ///< ω(u) of the effective graph
  std::vector<std::uint8_t> started_, completed_;
  std::vector<TaskId> predsLeft_;
  /// Unstarted tasks whose predecessors have all completed — each task
  /// enters exactly once (when its last predecessor completes) and is
  /// compacted out once started, keeping dispatch scans proportional to
  /// the ready frontier instead of N.
  std::vector<TaskId> ready_;
  std::optional<WindowState> windows_; ///< live pinned-prefix windows
  std::size_t startedCount_ = 0, completedCount_ = 0;
  Time now_ = 0;
  Time finishTime_ = 0;

  using CompletionEvent = std::pair<Time, TaskId>;
  std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                      std::greater<CompletionEvent>>
      queue_;

  // Policy bookkeeping.
  std::int64_t baselineInterval_ = 0;
  Cost baselineObserved_ = 0;
  Cost baselinePlanned_ = 0;
  bool deviationCached_ = false;
  double deviationValue_ = 0.0;
  Cost observedNow_ = 0, plannedNow_ = 0;
  std::vector<ResolveRecord> resolves_;
  std::size_t resolveAccepted_ = 0;
  std::vector<Time> residualDurations_; ///< scratch for re-solves
};

/// Fill the clairvoyant-reference fields of `result` (clairvoyant cost,
/// regret, regret ratio) from an already-computed reference solve. The
/// reference depends only on (instance, solver, actual) — per-policy
/// loops solve it once (`OnlineOptions::clairvoyant` on the first
/// replay) and share it across the row with this helper.
void applyClairvoyantReference(OnlineResult& result, bool feasible,
                               Cost clairvoyantCost);

/// One-call replay: build the engine, run to completion, fold solver
/// capability errors into `OnlineResult::error` instead of throwing.
/// `forecast`/`actual` must cover the instance deadline.
OnlineResult replayOnline(const Instance& instance,
                          const PowerProfile& forecast,
                          const PowerProfile& actual,
                          const OnlineOptions& options);

/// Convenience overload resolving the forecast/actual pair from the
/// instance's own scenario spec (the `+noise` modifier is the forecast
/// error — see generateForecastActualPair) or, when `actualSpec` is
/// non-empty, generating the actual from that spec through the instance's
/// own ProfileRequest.
OnlineResult replayOnline(const Instance& instance,
                          const std::string& actualSpec,
                          const OnlineOptions& options);

/// Replay one instance under several policies, sharing the
/// policy-independent work: the offline plan is solved once (not once per
/// policy) and the clairvoyant reference — when `options.clairvoyant` —
/// once, then spread across the rows with `applyClairvoyantReference`.
/// Results come back in policy order; `options.policy` is ignored. This
/// is the loop behind every policy-comparison surface (`cawosched-cli
/// replay`, the campaign online mode, `bench_online_regret`,
/// `examples/online_replay`).
std::vector<OnlineResult> replayOnlinePolicies(
    const Instance& instance, const PowerProfile& forecast,
    const PowerProfile& actual, const OnlineOptions& options,
    const std::vector<std::string>& policies);

/// Spec-resolving overload, mirroring `replayOnline(instance, actualSpec,
/// options)`.
std::vector<OnlineResult> replayOnlinePolicies(
    const Instance& instance, const std::string& actualSpec,
    const OnlineOptions& options, const std::vector<std::string>& policies);

} // namespace cawo
