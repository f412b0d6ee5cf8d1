#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/enhanced_graph.hpp"
#include "core/platform.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"
#include "core/task_graph.hpp"
#include "util/types.hpp"

/// \file solver.hpp
/// The unified solver abstraction (see DESIGN.md, "Solver / Registry
/// layering").
///
/// Every scheduling algorithm in the repository — the carbon-unaware ASAP
/// baseline, the 16 CaWoSched heuristics, the two-pass GreenHEFT pipeline
/// and the exact solvers — implements the same `Solver` interface:
///
///   SolverInfo  info()  — name, family, capability flags;
///   SolveResult solve() — schedule + cost + diagnostics for a request.
///
/// A `SolveRequest` bundles the fixed inputs (enhanced graph, power
/// profile, deadline) plus an untyped per-solver options bag and, for
/// solvers that redo the *mapping* pass (GreenHEFT), the original workflow
/// and platform. The non-virtual `Solver::solve` wraps the per-algorithm
/// `doSolve` with uniform timing, schedule validation and carbon-cost
/// evaluation, so every algorithm is benchmarked by exactly the same
/// yardstick.

namespace cawo {

class SolveContext;
class WindowState;

/// A residual scheduling problem: part of the instance has already
/// *executed* (the online replay engine's completed and running tasks) and
/// only the remaining nodes are movable. Pointed-to objects must outlive
/// the solve call.
///
/// Contract: `starts`/`started` pin every started node at its observed
/// start time; `durations[u]` is the node's effective duration — the
/// *actual* runtime for completed nodes, the planned ω(u) estimate for
/// running and unstarted ones. Movable nodes must be scheduled no earlier
/// than `releaseTime` (the wall-clock now; every completed node has
/// finished by then). `windows` optionally hands the solver the engine's
/// incrementally maintained pinned-prefix EST/LST state so the re-solve
/// starts from the repaired fixpoint instead of re-pinning from scratch;
/// when given it must describe exactly the (gc, deadline, started-set)
/// of this request.
struct ResidualProblem {
  const Schedule* starts = nullptr;
  const std::vector<std::uint8_t>* started = nullptr;
  const std::vector<Time>* durations = nullptr;
  Time releaseTime = 0;
  const WindowState* windows = nullptr;
};

/// Static metadata and capability flags of a solver.
struct SolverInfo {
  std::string name;        ///< registry key, e.g. "pressWR-LS"
  std::string family;      ///< "baseline" | "cawosched" | "heft" | "exact"
  std::string description; ///< one-line human description
  bool exact = false;      ///< can prove optimality (within budgets)
  bool deterministic = true;
  /// Requires the enhanced graph to live on exactly one processor
  /// (the Theorem 4.1 dynamic programs).
  bool singleProcOnly = false;
  /// May replace the mapping — the result's schedule then refers to
  /// `SolveResult::remappedGc` instead of the request's graph (GreenHEFT).
  bool remapsGraph = false;
  /// Needs `SolveRequest::graph` and `SolveRequest::platform` to be set.
  bool needsWorkflow = false;
  /// Accepts residual problems (`SolveRequest::residual`): re-scheduling
  /// the not-yet-started remainder of a partially executed instance (the
  /// online replay engine's mid-execution re-solves).
  bool supportsResidual = false;
};

/// String-keyed options bag with typed accessors. Unknown keys are simply
/// ignored by solvers, so one bag can configure a heterogeneous selection.
class SolverOptions {
public:
  SolverOptions() = default;

  SolverOptions& set(const std::string& key, std::string value);
  SolverOptions& setInt(const std::string& key, std::int64_t value);
  SolverOptions& setDouble(const std::string& key, double value);

  bool has(const std::string& key) const;
  std::int64_t getInt(const std::string& key, std::int64_t fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  std::string getString(const std::string& key,
                        const std::string& fallback) const;

  const std::map<std::string, std::string>& entries() const {
    return values_;
  }

private:
  std::map<std::string, std::string> values_;
};

/// Everything a solver needs for one run. `gc`, `profile` and `deadline`
/// are mandatory; `graph`/`platform` are only required by solvers whose
/// info() sets `needsWorkflow` (they re-run the mapping pass). Pointed-to
/// objects must outlive the solve call; they are never retained.
struct SolveRequest {
  const EnhancedGraph* gc = nullptr;
  const PowerProfile* profile = nullptr;
  Time deadline = 0;

  const TaskGraph* graph = nullptr;
  const Platform* platform = nullptr;

  /// Optional shared per-instance memoization (initial EST/LST windows,
  /// refined interval sets, score orders, ASAP makespan). When set it must
  /// describe exactly this request's (gc, profile, deadline) — enforced by
  /// `Solver::solve`. The campaign runner creates one context per instance
  /// (`solveRequestFor`) so every selected solver reuses the same artifacts;
  /// solvers without a context compute (or build) what they need
  /// themselves, with identical results either way.
  const SolveContext* context = nullptr;

  /// Optional residual problem: when set, the solver must keep every
  /// started node pinned and only place the remaining movable nodes (no
  /// earlier than `residual->releaseTime`). Solvers whose info() does not
  /// set `supportsResidual` reject such requests.
  const ResidualProblem* residual = nullptr;

  SolverOptions options;
};

/// Uniform result record: the schedule, its carbon cost, wall time, the
/// validation verdict, and optional optimality proof / solver statistics.
struct SolveResult {
  Schedule schedule;
  Cost cost = 0;
  double wallMs = 0.0;

  ValidationResult validation; ///< against the effective graph/deadline
  bool feasible = false;       ///< == validation.ok

  bool provedOptimal = false;  ///< exact solvers within their budgets
  /// Solver-specific counters, e.g. "nodes-explored" for branch-and-bound.
  std::map<std::string, std::int64_t> stats;

  /// Set only by re-mapping solvers: the graph the schedule refers to,
  /// the (possibly horizon-extended) profile it was costed against, and
  /// the deadline actually enforced (≥ the requested one when the new
  /// mapping's ASAP makespan exceeds it).
  std::shared_ptr<const EnhancedGraph> remappedGc;
  std::shared_ptr<const PowerProfile> extendedProfile;
  Time effectiveDeadline = 0;
};

/// Abstract scheduling algorithm. Subclasses implement `doSolve`; the
/// public `solve` adds the shared precondition checks, wall-clock timing,
/// validation and cost evaluation.
class Solver {
public:
  virtual ~Solver() = default;

  virtual SolverInfo info() const = 0;

  /// Solve `request` end to end. Throws PreconditionError when mandatory
  /// request fields are missing (or `needsWorkflow` inputs are absent);
  /// an infeasible *output* is reported via `SolveResult::validation`
  /// rather than thrown, so suite runs can record partial failures.
  SolveResult solve(const SolveRequest& request) const;

protected:
  /// What a concrete algorithm produces before the shared post-processing.
  struct RawResult {
    Schedule schedule;
    bool provedOptimal = false;
    std::map<std::string, std::int64_t> stats;

    /// For re-mapping solvers only (see SolveResult).
    std::shared_ptr<const EnhancedGraph> remappedGc;
    std::shared_ptr<const PowerProfile> extendedProfile;
    Time effectiveDeadline = -1; ///< -1 = the request's deadline
  };

  virtual RawResult doSolve(const SolveRequest& request) const = 0;
};

using SolverPtr = std::unique_ptr<Solver>;

/// Feasibility check for a residual solution: every node has a start,
/// started nodes kept their pinned starts, and every movable node starts at
/// or after the release time, finishes (with its planned length) by the
/// deadline, and respects precedence — against the *effective* completion
/// times of started predecessors (`residual.durations`) and the planned
/// lengths of movable ones. The planned-length occupancy of Gc's
/// per-processor chain edges makes this subsume exclusivity, exactly as in
/// `validateSchedule`.
ValidationResult validateResidualSchedule(const EnhancedGraph& gc,
                                          const Schedule& s, Time deadline,
                                          const ResidualProblem& residual);

} // namespace cawo
