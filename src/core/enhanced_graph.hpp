#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/mapping.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "util/require.hpp"
#include "util/types.hpp"

/// \file enhanced_graph.hpp
/// The communication-enhanced DAG `Gc = (Vc, Ec, ω)` of Section 3.
///
/// Every cross-processor edge (v_i, v_j) ∈ E' of the workflow becomes a
/// fictional *communication task* v_ij of length c(v_i, v_j), executed on a
/// fictional *link processor* for the ordered processor pair
/// (proc(v_i), proc(v_j)). Dependencies (v_i → v_ij) and (v_ij → v_j) are
/// added with zero cost, the fixed ordering of tasks on each compute
/// processor becomes chain edges, and the fixed ordering of communications
/// on each link becomes the chain set E''.
///
/// Only links that carry at least one communication are materialised; the
/// paper explicitly allows setting the static power of a never-used link to
/// zero, which makes the sparse representation cost-identical to the dense
/// P² one. Link processors draw small random powers (paper: uniform in
/// [1, 2]) to introduce mild heterogeneity.

namespace cawo {

/// How link-processor power values are drawn.
struct LinkPowerOptions {
  Power minIdle = 1;
  Power maxIdle = 2;
  Power minWork = 1;
  Power maxWork = 2;
  std::uint64_t seed = 0xCA11AB1EULL;
};

class EnhancedGraph {
public:
  struct Node {
    /// Original task id for compute tasks; kInvalidTask for comm tasks.
    TaskId original = kInvalidTask;
    /// For comm tasks: the endpoints of the original edge.
    TaskId commSrc = kInvalidTask;
    TaskId commDst = kInvalidTask;
    /// Enhanced processor (compute node or link processor).
    ProcId proc = kInvalidProc;
    /// Execution length ω(u) in time units.
    Time len = 0;
  };

  /// Build Gc from a workflow, a platform, and a fixed mapping+ordering.
  ///
  /// \param commPriority Optional per-task priority (e.g. HEFT start times)
  ///   used to order communications that share a link: comm tasks are
  ///   chained by (priority of source, source position, edge index). When
  ///   absent, the source task's position in its processor's order is used.
  static EnhancedGraph build(const TaskGraph& graph, const Platform& platform,
                             const Mapping& mapping,
                             const LinkPowerOptions& linkPower = {},
                             const std::vector<Time>* commPriority = nullptr);

  /// Assemble an enhanced graph directly from parts — used by the exact
  /// solvers, complexity-result reproductions and tests. `procOrders[p]`
  /// must list the nodes of processor p in their fixed execution order;
  /// chain edges between consecutive nodes are added automatically if not
  /// already present.
  static EnhancedGraph fromParts(std::vector<Node> nodes,
                                 std::vector<std::pair<TaskId, TaskId>> edges,
                                 std::vector<Power> procIdle,
                                 std::vector<Power> procWork,
                                 std::vector<std::vector<TaskId>> procOrders);

  /// Number of nodes N = n + |E'|.
  TaskId numNodes() const { return static_cast<TaskId>(nodes_.size()); }

  /// Number of enhanced processors (compute + materialised links).
  ProcId numProcs() const { return static_cast<ProcId>(procIdle_.size()); }

  /// Number of compute processors (ids [0, numRealProcs) are compute).
  ProcId numRealProcs() const { return numRealProcs_; }

  /// Number of materialised link processors.
  ProcId numLinks() const { return numProcs() - numRealProcs_; }

  const Node& node(TaskId u) const { return nodes_[checked(u)]; }
  Time len(TaskId u) const { return lens_[checked(u)]; }
  ProcId procOf(TaskId u) const { return procs_[checked(u)]; }
  bool isCommTask(TaskId u) const {
    return nodes_[checked(u)].original == kInvalidTask;
  }

  /// Total power drawn while node `u` executes: idle + work power of its
  /// processor. Precomputed per node (SoA) for the greedy's consume loop.
  Power drawPower(TaskId u) const { return nodeDraw_[checked(u)]; }

  /// Flat structure-of-arrays mirrors of the per-node hot fields. The `Node`
  /// records stay the canonical store for metadata; the kernels (window
  /// propagation, greedy placement, refinement) index these dense arrays so
  /// inner loops touch 8-byte strides instead of whole Node records.
  std::span<const Time> lens() const { return lens_; }
  std::span<const ProcId> procs() const { return procs_; }

  /// Topological-position renumbering: `topoPositions()[u]` is the index of
  /// node u in `topoOrder()`. The worklist kernels run entirely in position
  /// space — windows, adjacency and lengths all indexed by position — which
  /// removes the id↔position indirections from the inner loops and gives
  /// neighbouring loads topological locality. `posSucc*`/`posPred*` are the
  /// CSR adjacency renumbered into position space; `lensByPos()` mirrors
  /// `lens()`.
  std::span<const TaskId> topoPositions() const { return topoPos_; }
  std::span<const std::size_t> posSuccOffsets() const { return posSuccIndex_; }
  std::span<const TaskId> posSuccAdjacency() const { return posSuccList_; }
  std::span<const std::size_t> posPredOffsets() const { return posPredIndex_; }
  std::span<const TaskId> posPredAdjacency() const { return posPredList_; }
  std::span<const Time> lensByPos() const { return lensByPos_; }

  Power idlePower(ProcId p) const;
  Power workPower(ProcId p) const;

  /// Σ over all enhanced processors of their idle power — drawn at every
  /// time unit of the horizon regardless of the schedule.
  Power totalIdlePower() const { return totalIdle_; }

  std::span<const TaskId> succs(TaskId u) const;
  std::span<const TaskId> preds(TaskId u) const;

  std::size_t numEdges() const { return edgeSrc_.size(); }

  /// Fixed execution order of the nodes on enhanced processor `p`.
  std::span<const TaskId> procOrder(ProcId p) const;

  /// Topological order of Gc (cached; Gc is immutable once built).
  const std::vector<TaskId>& topoOrder() const { return topo_; }

  /// Sum of node lengths — a lower bound consideration for horizons.
  Time totalLength() const;

  /// Length of the critical path (minimum possible makespan).
  Time criticalPathLength() const;

private:
  // Defined inline: the per-node accessors run millions of times per large
  // solve, so only the range check remains, not a call.
  std::size_t checked(TaskId u) const {
    CAWO_REQUIRE(u >= 0 && u < numNodes(), "node id out of range");
    return static_cast<std::size_t>(u);
  }
  void finalize(); // builds CSR adjacency + topo order

  std::vector<Node> nodes_;
  std::vector<Time> lens_;      ///< SoA mirror of Node::len
  std::vector<ProcId> procs_;   ///< SoA mirror of Node::proc
  std::vector<Power> nodeDraw_; ///< idle+work power of the node's processor
  std::vector<TaskId> edgeSrc_, edgeDst_;
  std::vector<Power> procIdle_, procWork_;
  std::vector<std::vector<TaskId>> procOrder_;
  ProcId numRealProcs_ = 0;
  Power totalIdle_ = 0;

  std::vector<std::size_t> succIndex_;
  std::vector<TaskId> succList_;
  std::vector<std::size_t> predIndex_;
  std::vector<TaskId> predList_;
  std::vector<TaskId> topo_;

  // Position-space mirrors (see topoPositions()).
  std::vector<TaskId> topoPos_;
  std::vector<std::size_t> posSuccIndex_, posPredIndex_;
  std::vector<TaskId> posSuccList_, posPredList_;
  std::vector<Time> lensByPos_;
};

} // namespace cawo
