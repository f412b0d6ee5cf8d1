#pragma once

#include <cstdint>
#include <string>

#include "core/task_graph.hpp"
#include "util/types.hpp"

/// \file generators.hpp
/// Synthetic workflow generators modelled on the nf-core pipelines used in
/// the paper's evaluation (atacseq, bacass, eager, methylseq).
///
/// The paper obtains its instances by taking a real Nextflow trace as a
/// model graph and scaling it up WFGen-style; the pipelines are per-sample
/// analysis chains with occasional fan-out (per replicate / chromosome),
/// global preparation sources and global merge/QC sinks. These generators
/// replicate that structure directly: a target task count is reached by
/// increasing the number of samples, per-sample subgraphs are stamped out
/// from a family-specific template, and vertex/edge weights follow normal
/// distributions with vertex weights dominating edge weights (Section 6.1).

namespace cawo {

enum class WorkflowFamily { Atacseq, Bacass, Eager, Methylseq };

const char* familyName(WorkflowFamily f);

/// Inverse of `familyName` ("atacseq" → WorkflowFamily::Atacseq, …);
/// throws PreconditionError for unknown names, listing the alternatives.
WorkflowFamily familyFromName(const std::string& name);

struct WorkflowGenOptions {
  int targetTasks = 200;        ///< approximate |V| of the generated DAG
  std::uint64_t seed = 1;
  double vertexWorkMean = 160.0;
  double vertexWorkStd = 40.0;
  double edgeDataMean = 40.0;   ///< vertex weights dominate edge weights
  double edgeDataStd = 15.0;
};

/// Generate a workflow of the given family with roughly `targetTasks`
/// tasks (never fewer than the family's minimal template).
TaskGraph generateWorkflow(WorkflowFamily family,
                           const WorkflowGenOptions& opts);

} // namespace cawo
