#include "core/enhanced_graph.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace cawo {

namespace {

/// Sort key for communications sharing a link (defines the fixed E'' order).
struct CommKey {
  Time priority;       // e.g. HEFT start time of the source task
  std::size_t srcPos;  // position of the source task on its processor
  std::size_t edgeIdx; // original edge index — final deterministic tiebreak
  TaskId node;

  bool operator<(const CommKey& o) const {
    if (priority != o.priority) return priority < o.priority;
    if (srcPos != o.srcPos) return srcPos < o.srcPos;
    return edgeIdx < o.edgeIdx;
  }
};

} // namespace

EnhancedGraph EnhancedGraph::build(const TaskGraph& graph,
                                   const Platform& platform,
                                   const Mapping& mapping,
                                   const LinkPowerOptions& linkPower,
                                   const std::vector<Time>* commPriority) {
  CAWO_REQUIRE(mapping.numTasks() == graph.numTasks(),
               "mapping does not match graph");
  CAWO_REQUIRE(mapping.numProcs() == platform.numProcessors(),
               "mapping does not match platform");
  const std::string mapErr = mapping.validate(graph);
  CAWO_REQUIRE(mapErr.empty(), "invalid mapping: " + mapErr);
  CAWO_REQUIRE(linkPower.minIdle >= 0 && linkPower.minIdle <= linkPower.maxIdle,
               "invalid link idle power range");
  CAWO_REQUIRE(linkPower.minWork >= 0 && linkPower.minWork <= linkPower.maxWork,
               "invalid link work power range");
  if (commPriority != nullptr)
    CAWO_REQUIRE(commPriority->size() ==
                     static_cast<std::size_t>(graph.numTasks()),
                 "commPriority size mismatch");

  EnhancedGraph gc;
  const TaskId n = graph.numTasks();
  const ProcId realProcs = platform.numProcessors();
  gc.numRealProcs_ = realProcs;

  // Compute nodes keep their original ids: enhanced id of task v is v.
  gc.nodes_.reserve(static_cast<std::size_t>(n) + graph.numEdges());
  for (TaskId v = 0; v < n; ++v) {
    Node node;
    node.original = v;
    node.proc = mapping.procOf(v);
    node.len = platform.execTime(graph.work(v), node.proc);
    gc.nodes_.push_back(node);
  }

  gc.procIdle_.resize(static_cast<std::size_t>(realProcs));
  gc.procWork_.resize(static_cast<std::size_t>(realProcs));
  for (ProcId p = 0; p < realProcs; ++p) {
    gc.procIdle_[static_cast<std::size_t>(p)] = platform.proc(p).idlePower;
    gc.procWork_[static_cast<std::size_t>(p)] = platform.proc(p).workPower;
  }

  // Link processors are created on demand per ordered (src, dst) pair.
  Rng linkRng(linkPower.seed);
  std::map<std::pair<ProcId, ProcId>, ProcId> linkId;
  auto getLink = [&](ProcId a, ProcId b) {
    const auto key = std::make_pair(a, b);
    const auto it = linkId.find(key);
    if (it != linkId.end()) return it->second;
    const ProcId id = static_cast<ProcId>(gc.procIdle_.size());
    gc.procIdle_.push_back(
        linkRng.uniformInt(linkPower.minIdle, linkPower.maxIdle));
    gc.procWork_.push_back(
        linkRng.uniformInt(linkPower.minWork, linkPower.maxWork));
    linkId.emplace(key, id);
    return id;
  };

  // Edges of Gc: same-processor precedence stays a plain edge; cross edges
  // with data spawn a comm node; zero-data cross edges degenerate to plain
  // precedence (an instantaneous transfer consumes no link time or power).
  std::map<ProcId, std::vector<CommKey>> linkComms;
  for (std::size_t ei = 0; ei < graph.numEdges(); ++ei) {
    const auto& e = graph.edges()[ei];
    const ProcId ps = mapping.procOf(e.src);
    const ProcId pd = mapping.procOf(e.dst);
    if (ps == pd || e.data == 0) {
      gc.edgeSrc_.push_back(e.src);
      gc.edgeDst_.push_back(e.dst);
      continue;
    }
    const ProcId link = getLink(ps, pd);
    Node comm;
    comm.commSrc = e.src;
    comm.commDst = e.dst;
    comm.proc = link;
    comm.len = e.data; // bandwidth normalised to 1
    const TaskId commId = static_cast<TaskId>(gc.nodes_.size());
    gc.nodes_.push_back(comm);
    gc.edgeSrc_.push_back(e.src);
    gc.edgeDst_.push_back(commId);
    gc.edgeSrc_.push_back(commId);
    gc.edgeDst_.push_back(e.dst);

    const Time prio =
        commPriority != nullptr
            ? (*commPriority)[static_cast<std::size_t>(e.src)]
            : static_cast<Time>(mapping.positionOf(e.src));
    linkComms[link].push_back(
        CommKey{prio, mapping.positionOf(e.src), ei, commId});
  }

  // Per-processor orders: compute processors take the mapping's order ...
  gc.procOrder_.resize(static_cast<std::size_t>(gc.procIdle_.size()));
  for (ProcId p = 0; p < realProcs; ++p) {
    const auto order = mapping.orderOn(p);
    gc.procOrder_[static_cast<std::size_t>(p)].assign(order.begin(),
                                                      order.end());
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      gc.edgeSrc_.push_back(order[i]);
      gc.edgeDst_.push_back(order[i + 1]);
    }
  }
  // ... and each link orders its communications by the fixed key (E'').
  for (auto& [link, comms] : linkComms) {
    std::sort(comms.begin(), comms.end());
    auto& order = gc.procOrder_[static_cast<std::size_t>(link)];
    order.reserve(comms.size());
    for (const CommKey& k : comms) order.push_back(k.node);
    for (std::size_t i = 0; i + 1 < comms.size(); ++i) {
      gc.edgeSrc_.push_back(comms[i].node);
      gc.edgeDst_.push_back(comms[i + 1].node);
    }
  }

  gc.finalize();
  return gc;
}

EnhancedGraph EnhancedGraph::fromParts(
    std::vector<Node> nodes, std::vector<std::pair<TaskId, TaskId>> edges,
    std::vector<Power> procIdle, std::vector<Power> procWork,
    std::vector<std::vector<TaskId>> procOrders) {
  CAWO_REQUIRE(procIdle.size() == procWork.size(),
               "procIdle/procWork size mismatch");
  CAWO_REQUIRE(procOrders.size() == procIdle.size(),
               "procOrders size mismatch");
  EnhancedGraph gc;
  gc.nodes_ = std::move(nodes);
  gc.procIdle_ = std::move(procIdle);
  gc.procWork_ = std::move(procWork);
  gc.procOrder_ = std::move(procOrders);
  gc.numRealProcs_ = static_cast<ProcId>(gc.procIdle_.size());

  const TaskId n = gc.numNodes();
  for (const Node& node : gc.nodes_) {
    CAWO_REQUIRE(node.proc >= 0 && node.proc < gc.numProcs(),
                 "node assigned to unknown processor");
    CAWO_REQUIRE(node.len >= 0, "negative node length");
  }

  std::set<std::pair<TaskId, TaskId>> present;
  for (const auto& [s, d] : edges) {
    CAWO_REQUIRE(s >= 0 && s < n && d >= 0 && d < n, "edge endpoint invalid");
    CAWO_REQUIRE(s != d, "self-loop in enhanced graph");
    gc.edgeSrc_.push_back(s);
    gc.edgeDst_.push_back(d);
    present.emplace(s, d);
  }

  // Per-processor orders define chain edges; add any that are missing.
  std::vector<std::size_t> seen(static_cast<std::size_t>(n), 0);
  for (ProcId p = 0; p < gc.numProcs(); ++p) {
    const auto& order = gc.procOrder_[static_cast<std::size_t>(p)];
    for (TaskId u : order) {
      CAWO_REQUIRE(u >= 0 && u < n, "procOrder references unknown node");
      CAWO_REQUIRE(gc.nodes_[static_cast<std::size_t>(u)].proc == p,
                   "procOrder lists a node of another processor");
      ++seen[static_cast<std::size_t>(u)];
    }
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      if (!present.count({order[i], order[i + 1]})) {
        gc.edgeSrc_.push_back(order[i]);
        gc.edgeDst_.push_back(order[i + 1]);
        present.emplace(order[i], order[i + 1]);
      }
    }
  }
  for (TaskId u = 0; u < n; ++u)
    CAWO_REQUIRE(seen[static_cast<std::size_t>(u)] == 1,
                 "every node must appear exactly once in a procOrder");

  gc.finalize();
  return gc;
}

void EnhancedGraph::finalize() {
  totalIdle_ = 0;
  for (Power p : procIdle_) totalIdle_ += p;

  // Dense SoA mirrors of the hot per-node fields (see enhanced_graph.hpp).
  lens_.resize(nodes_.size());
  procs_.resize(nodes_.size());
  nodeDraw_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    lens_[i] = nodes_[i].len;
    procs_[i] = nodes_[i].proc;
    const auto p = static_cast<std::size_t>(nodes_[i].proc);
    nodeDraw_[i] = procIdle_[p] + procWork_[p];
  }

  // Deduplicate edges: a precedence edge of the workflow and a chain edge
  // from the per-processor order may coincide; keeping one copy is enough.
  {
    std::vector<std::pair<TaskId, TaskId>> pairs;
    pairs.reserve(edgeSrc_.size());
    for (std::size_t i = 0; i < edgeSrc_.size(); ++i)
      pairs.emplace_back(edgeSrc_[i], edgeDst_[i]);
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    edgeSrc_.clear();
    edgeDst_.clear();
    for (const auto& [s, d] : pairs) {
      edgeSrc_.push_back(s);
      edgeDst_.push_back(d);
    }
  }

  const auto n = static_cast<std::size_t>(numNodes());
  succIndex_.assign(n + 1, 0);
  predIndex_.assign(n + 1, 0);
  for (std::size_t i = 0; i < edgeSrc_.size(); ++i) {
    ++succIndex_[static_cast<std::size_t>(edgeSrc_[i]) + 1];
    ++predIndex_[static_cast<std::size_t>(edgeDst_[i]) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) {
    succIndex_[i] += succIndex_[i - 1];
    predIndex_[i] += predIndex_[i - 1];
  }
  succList_.resize(edgeSrc_.size());
  predList_.resize(edgeSrc_.size());
  std::vector<std::size_t> sPos(succIndex_.begin(), succIndex_.end() - 1);
  std::vector<std::size_t> pPos(predIndex_.begin(), predIndex_.end() - 1);
  for (std::size_t i = 0; i < edgeSrc_.size(); ++i) {
    succList_[sPos[static_cast<std::size_t>(edgeSrc_[i])]++] = edgeDst_[i];
    predList_[pPos[static_cast<std::size_t>(edgeDst_[i])]++] = edgeSrc_[i];
  }

  // Kahn topological order; the enhanced graph must be acyclic.
  std::vector<std::size_t> indeg(n, 0);
  for (TaskId d : edgeDst_) ++indeg[static_cast<std::size_t>(d)];
  std::queue<TaskId> ready;
  for (std::size_t v = 0; v < n; ++v)
    if (indeg[v] == 0) ready.push(static_cast<TaskId>(v));
  topo_.clear();
  topo_.reserve(n);
  while (!ready.empty()) {
    const TaskId v = ready.front();
    ready.pop();
    topo_.push_back(v);
    for (TaskId w : succs(v))
      if (--indeg[static_cast<std::size_t>(w)] == 0) ready.push(w);
  }
  CAWO_REQUIRE(topo_.size() == n,
               "enhanced graph has a cycle — mapping order conflicts with "
               "precedence constraints");

  // Position-space renumbering of the hot kernel data: the worklist
  // propagation of WindowState indexes everything by topological position,
  // so the id↔position translation happens once here instead of per load.
  topoPos_.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos)
    topoPos_[static_cast<std::size_t>(topo_[pos])] = static_cast<TaskId>(pos);
  lensByPos_.resize(n);
  posSuccIndex_.assign(n + 1, 0);
  posPredIndex_.assign(n + 1, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const auto u = static_cast<std::size_t>(topo_[pos]);
    lensByPos_[pos] = lens_[u];
    posSuccIndex_[pos + 1] =
        posSuccIndex_[pos] + (succIndex_[u + 1] - succIndex_[u]);
    posPredIndex_[pos + 1] =
        posPredIndex_[pos] + (predIndex_[u + 1] - predIndex_[u]);
  }
  posSuccList_.resize(succList_.size());
  posPredList_.resize(predList_.size());
  for (std::size_t pos = 0; pos < n; ++pos) {
    const auto u = static_cast<std::size_t>(topo_[pos]);
    std::size_t w = posSuccIndex_[pos];
    for (std::size_t e = succIndex_[u]; e < succIndex_[u + 1]; ++e)
      posSuccList_[w++] = topoPos_[static_cast<std::size_t>(succList_[e])];
    w = posPredIndex_[pos];
    for (std::size_t e = predIndex_[u]; e < predIndex_[u + 1]; ++e)
      posPredList_[w++] = topoPos_[static_cast<std::size_t>(predList_[e])];
  }
}

Power EnhancedGraph::idlePower(ProcId p) const {
  CAWO_REQUIRE(p >= 0 && p < numProcs(), "processor id out of range");
  return procIdle_[static_cast<std::size_t>(p)];
}

Power EnhancedGraph::workPower(ProcId p) const {
  CAWO_REQUIRE(p >= 0 && p < numProcs(), "processor id out of range");
  return procWork_[static_cast<std::size_t>(p)];
}

std::span<const TaskId> EnhancedGraph::succs(TaskId u) const {
  const std::size_t i = checked(u);
  return {succList_.data() + succIndex_[i], succIndex_[i + 1] - succIndex_[i]};
}

std::span<const TaskId> EnhancedGraph::preds(TaskId u) const {
  const std::size_t i = checked(u);
  return {predList_.data() + predIndex_[i], predIndex_[i + 1] - predIndex_[i]};
}

std::span<const TaskId> EnhancedGraph::procOrder(ProcId p) const {
  CAWO_REQUIRE(p >= 0 && p < numProcs(), "processor id out of range");
  return procOrder_[static_cast<std::size_t>(p)];
}

Time EnhancedGraph::totalLength() const {
  Time sum = 0;
  for (const Node& node : nodes_) sum += node.len;
  return sum;
}

Time EnhancedGraph::criticalPathLength() const {
  std::vector<Time> finish(static_cast<std::size_t>(numNodes()), 0);
  Time best = 0;
  for (TaskId u : topo_) {
    Time start = 0;
    for (TaskId p : preds(u))
      start = std::max(start, finish[static_cast<std::size_t>(p)]);
    finish[static_cast<std::size_t>(u)] = start + len(u);
    best = std::max(best, finish[static_cast<std::size_t>(u)]);
  }
  return best;
}

} // namespace cawo
