#pragma once

// Generic DAG families for tests: chains, fork-joins, independent tasks,
// layered and Erdos-Renyi random DAGs. They draw vertex and edge weights
// from `WorkflowGenOptions` exactly like the nf-core family generators
// (workflow/generators.hpp), so a given seed always yields the same graph.
// Test-only; not part of the library.

#include "core/task_graph.hpp"
#include "workflow/generators.hpp"

namespace cawo {

/// A simple chain v_0 → v_1 → ... → v_{n-1}.
TaskGraph genChain(int n, const WorkflowGenOptions& opts);

/// A fork-join: source → `width` parallel branches of `depth` tasks → sink.
TaskGraph genForkJoin(int width, int depth, const WorkflowGenOptions& opts);

/// `n` independent tasks (no edges).
TaskGraph genIndependent(int n, const WorkflowGenOptions& opts);

/// A layered random DAG: `layers` layers of roughly equal size; each task
/// draws 1..maxFanIn predecessors from the previous layer.
TaskGraph genLayeredRandom(int n, int layers, int maxFanIn,
                           const WorkflowGenOptions& opts);

/// An Erdős–Rényi-style random DAG: edge (i, j), i < j in a random
/// topological order, present with probability `edgeProb`.
TaskGraph genRandomDag(int n, double edgeProb, const WorkflowGenOptions& opts);

} // namespace cawo
