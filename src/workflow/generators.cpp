#include "workflow/generators.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace cawo {

const char* familyName(WorkflowFamily f) {
  switch (f) {
  case WorkflowFamily::Atacseq: return "atacseq";
  case WorkflowFamily::Bacass: return "bacass";
  case WorkflowFamily::Eager: return "eager";
  case WorkflowFamily::Methylseq: return "methylseq";
  }
  return "unknown";
}

WorkflowFamily familyFromName(const std::string& name) {
  for (const WorkflowFamily f :
       {WorkflowFamily::Atacseq, WorkflowFamily::Bacass, WorkflowFamily::Eager,
        WorkflowFamily::Methylseq}) {
    if (name == familyName(f)) return f;
  }
  CAWO_REQUIRE(false, "unknown workflow family \"" + name +
                          "\" (expected atacseq, bacass, eager or methylseq)");
  return WorkflowFamily::Atacseq; // unreachable
}

namespace {

/// Weight sampling shared by all generators. Stage multipliers let heavy
/// steps (alignment, assembly) dominate, as in real pipeline traces.
struct WeightSampler {
  Rng rng;
  const WorkflowGenOptions& opts;

  explicit WeightSampler(const WorkflowGenOptions& o)
      : rng(o.seed), opts(o) {}

  Work vertex(double multiplier = 1.0) {
    return rng.normalPositiveInt(opts.vertexWorkMean * multiplier,
                                 opts.vertexWorkStd * multiplier, 1);
  }

  Data edge(double multiplier = 1.0) {
    return rng.normalPositiveInt(opts.edgeDataMean * multiplier,
                                 opts.edgeDataStd * multiplier, 1);
  }
};

/// Helper collecting the common "stamp out per-sample subgraphs between a
/// shared source stage and shared sink stages" pattern of nf-core
/// pipelines.
class PipelineBuilder {
public:
  PipelineBuilder(TaskGraph& g, WeightSampler& w) : g_(g), w_(w) {}

  TaskId addTask(const std::string& name, double mult = 1.0) {
    return g_.addTask(name, w_.vertex(mult));
  }

  void link(TaskId a, TaskId b, double mult = 1.0) {
    g_.addEdge(a, b, w_.edge(mult));
  }

  /// A linear chain of stages; returns (first, last).
  std::pair<TaskId, TaskId> chain(const std::string& prefix,
                                  std::initializer_list<const char*> stages,
                                  double mult = 1.0) {
    TaskId first = kInvalidTask;
    TaskId prev = kInvalidTask;
    for (const char* stage : stages) {
      const TaskId t = addTask(prefix + "/" + stage, mult);
      if (prev != kInvalidTask) link(prev, t);
      if (first == kInvalidTask) first = t;
      prev = t;
    }
    return {first, prev};
  }

private:
  TaskGraph& g_;
  WeightSampler& w_;
};

} // namespace

TaskGraph generateWorkflow(WorkflowFamily family,
                           const WorkflowGenOptions& opts) {
  CAWO_REQUIRE(opts.targetTasks >= 1, "target task count must be positive");
  WeightSampler w(opts);
  TaskGraph g;
  PipelineBuilder b(g, w);

  switch (family) {
  case WorkflowFamily::Atacseq: {
    // Per sample: FastQC + trim → align (heavy) → filter → dedup →
    // peak-call; genome prep fans out to all aligns; consensus peaks and
    // MultiQC merge everything.
    const int perSample = 7;
    const int overhead = 3; // genome prep, consensus, multiqc
    const int samples = std::max(1, (opts.targetTasks - overhead) / perSample);

    const TaskId prep = b.addTask("prepare_genome", 2.0);
    const TaskId consensus = b.addTask("consensus_peaks", 1.5);
    const TaskId multiqc = b.addTask("multiqc", 0.5);
    b.link(consensus, multiqc);

    for (int s = 0; s < samples; ++s) {
      const std::string id = "sample" + std::to_string(s);
      const TaskId fastqc = b.addTask(id + "/fastqc", 0.5);
      const TaskId trim = b.addTask(id + "/trim_galore");
      const TaskId align = b.addTask(id + "/bowtie2_align", 3.0);
      const TaskId filter = b.addTask(id + "/filter_bam");
      const TaskId dedup = b.addTask(id + "/picard_dedup");
      const TaskId peaks = b.addTask(id + "/macs2_callpeak", 1.5);
      const TaskId qc = b.addTask(id + "/ataqv_qc", 0.5);
      b.link(fastqc, trim);
      b.link(trim, align, 2.0);
      b.link(prep, align, 2.0);
      b.link(align, filter, 2.0);
      b.link(filter, dedup);
      b.link(dedup, peaks);
      b.link(dedup, qc);
      b.link(peaks, consensus);
      b.link(qc, multiqc, 0.5);
    }
    break;
  }
  case WorkflowFamily::Bacass: {
    // Bacterial assembly: per sample QC → trim → assemble (very heavy) →
    // polish → annotate; one global summary. The real pipeline is small —
    // the paper only uses the real-world size for bacass.
    const int perSample = 6;
    const int samples = std::max(1, (opts.targetTasks - 1) / perSample);
    const TaskId summary = b.addTask("summary", 0.5);
    for (int s = 0; s < samples; ++s) {
      const std::string id = "isolate" + std::to_string(s);
      const auto [first, last] = b.chain(
          id, {"fastqc", "trim", "unicycler_assembly", "polish", "prokka"},
          1.0);
      (void)first;
      const TaskId depth = b.addTask(id + "/coverage_check", 0.5);
      b.link(last, depth);
      b.link(depth, summary, 0.5);
    }
    break;
  }
  case WorkflowFamily::Eager: {
    // Ancient-DNA pipeline: two alternative processing routes per sample
    // (it branches after adapter removal), damage analysis, genotyping,
    // then global report.
    const int perSample = 9;
    const int overhead = 2;
    const int samples = std::max(1, (opts.targetTasks - overhead) / perSample);
    const TaskId ref = b.addTask("reference_index", 2.0);
    const TaskId report = b.addTask("report", 0.5);
    for (int s = 0; s < samples; ++s) {
      const std::string id = "lib" + std::to_string(s);
      const TaskId convert = b.addTask(id + "/fastq_convert", 0.5);
      const TaskId adapter = b.addTask(id + "/adapter_removal");
      const TaskId mapA = b.addTask(id + "/bwa_aln", 3.0);
      const TaskId mapB = b.addTask(id + "/circularmapper", 2.5);
      const TaskId merge = b.addTask(id + "/library_merge");
      const TaskId dedup = b.addTask(id + "/dedup");
      const TaskId damage = b.addTask(id + "/damageprofiler", 0.8);
      const TaskId genotype = b.addTask(id + "/genotyping", 1.5);
      const TaskId sexdet = b.addTask(id + "/sex_determination", 0.5);
      b.link(convert, adapter);
      b.link(adapter, mapA, 2.0);
      b.link(adapter, mapB, 2.0);
      b.link(ref, mapA, 1.5);
      b.link(ref, mapB, 1.5);
      b.link(mapA, merge);
      b.link(mapB, merge);
      b.link(merge, dedup);
      b.link(dedup, damage);
      b.link(dedup, genotype);
      b.link(dedup, sexdet, 0.5);
      b.link(damage, report, 0.5);
      b.link(genotype, report, 0.5);
      b.link(sexdet, report, 0.5);
    }
    break;
  }
  case WorkflowFamily::Methylseq: {
    // Bisulfite sequencing: mostly independent per-sample chains with a
    // single global QC sink — the least cross-sample coupling of the four.
    const int perSample = 7;
    const int overhead = 2;
    const int samples = std::max(1, (opts.targetTasks - overhead) / perSample);
    const TaskId prep = b.addTask("bismark_genome_prep", 2.5);
    const TaskId multiqc = b.addTask("multiqc", 0.5);
    for (int s = 0; s < samples; ++s) {
      const std::string id = "sample" + std::to_string(s);
      const TaskId fastqc = b.addTask(id + "/fastqc", 0.5);
      const TaskId trim = b.addTask(id + "/trim_galore");
      const TaskId align = b.addTask(id + "/bismark_align", 3.5);
      const TaskId dedup = b.addTask(id + "/deduplicate");
      const TaskId extract = b.addTask(id + "/methylation_extract", 1.5);
      const TaskId coverage = b.addTask(id + "/coverage2cytosine");
      const TaskId sampleReport = b.addTask(id + "/bismark_report", 0.5);
      b.link(fastqc, trim);
      b.link(trim, align, 2.0);
      b.link(prep, align, 2.0);
      b.link(align, dedup, 2.0);
      b.link(dedup, extract);
      b.link(extract, coverage);
      b.link(extract, sampleReport, 0.5);
      b.link(coverage, multiqc, 0.5);
      b.link(sampleReport, multiqc, 0.5);
    }
    break;
  }
  }
  return g;
}

} // namespace cawo
