#include "generic_graphs.hpp"

#include <algorithm>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace cawo {

namespace {

/// The library generators' weight sampling (workflow/generators.cpp),
/// kept verbatim so every graph draws the same weights in the same order.
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

} // namespace

TaskGraph genChain(int n, const WorkflowGenOptions& opts) {
  CAWO_REQUIRE(n >= 1, "chain needs at least one task");
  WeightSampler w(opts);
  TaskGraph g;
  TaskId prev = g.addTask("t0", w.vertex());
  for (int i = 1; i < n; ++i) {
    const TaskId t = g.addTask(indexedName("t", i), w.vertex());
    g.addEdge(prev, t, w.edge());
    prev = t;
  }
  return g;
}

TaskGraph genForkJoin(int width, int depth, const WorkflowGenOptions& opts) {
  CAWO_REQUIRE(width >= 1 && depth >= 1, "invalid fork-join shape");
  WeightSampler w(opts);
  TaskGraph g;
  const TaskId source = g.addTask("source", w.vertex());
  const TaskId sink = g.addTask("sink", w.vertex());
  for (int b = 0; b < width; ++b) {
    TaskId prev = source;
    for (int d = 0; d < depth; ++d) {
      const TaskId t =
          g.addTask(indexedName(indexedName("b", b) + "_d", d), w.vertex());
      g.addEdge(prev, t, w.edge());
      prev = t;
    }
    g.addEdge(prev, sink, w.edge());
  }
  return g;
}

TaskGraph genIndependent(int n, const WorkflowGenOptions& opts) {
  CAWO_REQUIRE(n >= 1, "need at least one task");
  WeightSampler w(opts);
  TaskGraph g;
  for (int i = 0; i < n; ++i)
    g.addTask(indexedName("t", i), w.vertex());
  return g;
}

TaskGraph genLayeredRandom(int n, int layers, int maxFanIn,
                           const WorkflowGenOptions& opts) {
  CAWO_REQUIRE(n >= layers && layers >= 1, "need at least one task per layer");
  CAWO_REQUIRE(maxFanIn >= 1, "fan-in must be positive");
  WeightSampler w(opts);
  TaskGraph g;
  std::vector<std::vector<TaskId>> layer(static_cast<std::size_t>(layers));
  for (int i = 0; i < n; ++i) {
    const int l = i * layers / n;
    layer[static_cast<std::size_t>(l)].push_back(
        g.addTask(indexedName("t", i), w.vertex()));
  }
  for (int l = 1; l < layers; ++l) {
    const auto& prev = layer[static_cast<std::size_t>(l - 1)];
    for (const TaskId v : layer[static_cast<std::size_t>(l)]) {
      const int fanIn = static_cast<int>(
          w.rng.uniformInt(1, std::min<std::int64_t>(
                                  maxFanIn,
                                  static_cast<std::int64_t>(prev.size()))));
      // Sample distinct predecessors from the previous layer.
      std::vector<TaskId> pool = prev;
      for (int f = 0; f < fanIn; ++f) {
        const auto pick = static_cast<std::size_t>(
            w.rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
        g.addEdge(pool[pick], v, w.edge());
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
  }
  return g;
}

TaskGraph genRandomDag(int n, double edgeProb,
                       const WorkflowGenOptions& opts) {
  CAWO_REQUIRE(n >= 1, "need at least one task");
  CAWO_REQUIRE(edgeProb >= 0.0 && edgeProb <= 1.0, "invalid edge probability");
  WeightSampler w(opts);
  TaskGraph g;
  for (int i = 0; i < n; ++i)
    g.addTask(indexedName("t", i), w.vertex());
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (w.rng.uniform01() < edgeProb)
        g.addEdge(static_cast<TaskId>(i), static_cast<TaskId>(j), w.edge());
  return g;
}

} // namespace cawo
