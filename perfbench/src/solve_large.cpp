// solve-large: sequential single-threaded heuristic solves on large
// instances, each with a fresh SolveContext, the way one CLI solve runs.
// An operation is one solve: registry.create, context construction and
// priming, and Solver::solve. The core kernels (greedy placement, local
// search, validation, cost evaluation) do nearly all of the work; the
// campaign, serve and online layers are idle.

#include <algorithm>

#include "bench.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "core/solve_context.hpp"
#include "obs/trace.hpp"
#include "sim/instance.hpp"
#include "solver/registry.hpp"

namespace perfbench {

namespace {

/// Compute every artifact the variant's greedy pass reads, as
/// `runVariants` primes a shared context.
void primeContext(const cawo::SolveContext& ctx, const cawo::VariantSpec& v,
                  int blockSize) {
  (void)ctx.initialEst();
  (void)ctx.initialLst();
  (void)ctx.asapMakespan();
  (void)ctx.sumWorkPower();
  (void)ctx.scoreOrder(cawo::ScoreOptions{v.base, v.weighted});
  if (v.refined) (void)ctx.refinedIntervals(blockSize);
  (void)ctx.budgetTreePrototype(v.refined, blockSize);
}

std::int64_t statOr0(const cawo::SolveResult& r, const char* key) {
  const auto it = r.stats.find(key);
  return it == r.stats.end() ? 0 : it->second;
}

} // namespace

void runSolveLarge(const Config& config, Report& report) {
  const Params& p = config.params;
  const std::string algo = p.get("algo");
  const cawo::VariantSpec variant = cawo::VariantSpec::parse(algo);
  const int blockSize = static_cast<int>(p.getInt("block-size"));
  const std::vector<std::string> families = p.getList("families");
  const std::vector<std::string> scenarios = p.getList("scenarios");
  const std::vector<std::string> factors = p.getList("deadline-factors");

  // A fixed catalogue (family x scenario x deadline factor); the seed sets
  // the order the solves visit it, so each run measures the same work.
  std::vector<cawo::InstanceSpec> specs;
  for (const std::string& family : families) {
    for (const std::string& scenario : scenarios) {
      for (const std::string& factor : factors) {
        cawo::InstanceSpec spec;
        spec.family = cawo::familyFromName(family);
        spec.targetTasks = static_cast<int>(p.getInt("tasks"));
        spec.nodesPerType = static_cast<int>(p.getInt("nodes-per-type"));
        spec.numIntervals = static_cast<int>(p.getInt("intervals"));
        spec.deadlineFactor = std::stod(factor);
        spec.scenario = scenario;
        spec.seed = 1 + specs.size();
        specs.push_back(spec);
      }
    }
  }

  // Set-up: the instance builds a CLI solve performs before solving.
  std::vector<cawo::Instance> instances;
  timeSetup(report, 3, [&] {
    instances.clear();
    cawo::obs::TraceScope span("sim.build");
    for (const cawo::InstanceSpec& spec : specs)
      instances.push_back(cawo::buildInstance(spec));
  });
  std::vector<cawo::Cost> lowerBounds;
  for (const cawo::Instance& inst : instances)
    lowerBounds.push_back(cawo::carbonLowerBound(inst.gc, inst.profile));

  cawo::SolverOptions options;
  options.setInt("block-size", blockSize);
  options.setInt("ls-radius", p.getInt("ls-radius"));
  options.setInt("threads", 1);
  const cawo::SolverRegistry& registry = cawo::SolverRegistry::global();
  std::vector<cawo::Cost> firstCost(instances.size(), -1);

  runPasses(config, report, [&](double seconds, Report& r) {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    double busyMs = 0.0, solveMs = 0.0;
    double greedyUs = 0.0, lsUs = 0.0, rounds = 0.0, moves = 0.0;
    std::size_t i = 0;
    std::vector<std::size_t> order(instances.size());
    // Whole passes over the catalogue until the time is up, each in a
    // seeded order, so every run solves every instance equally often.
    while (Clock::now() < end || i % instances.size() != 0) {
      if (i % instances.size() == 0) {
        Rng rng(mix(config.seed, i));
        for (std::size_t a = 0; a < order.size(); ++a) order[a] = a;
        for (std::size_t a = order.size(); a > 1; --a)
          std::swap(order[a - 1], order[rng.next() % a]);
      }
      const std::size_t k = order[i % instances.size()];
      const cawo::Instance& inst = instances[k];
      cawo::SolveResult result;
      const Clock::time_point t0 = Clock::now();
      {
        cawo::obs::TraceScope op("bench.op");
        cawo::SolverPtr solver;
        {
          cawo::obs::TraceScope span("solver.create");
          solver = registry.create(algo);
        }
        const cawo::SolveContext ctx(inst.gc, inst.profile, inst.deadline);
        {
          cawo::obs::TraceScope span("core.context.prime");
          primeContext(ctx, variant, blockSize);
        }
        cawo::SolveRequest request;
        request.gc = &inst.gc;
        request.profile = &inst.profile;
        request.deadline = inst.deadline;
        request.graph = &inst.graph;
        request.platform = &inst.platform;
        request.context = &ctx;
        request.options = options;
        const Clock::time_point s0 = Clock::now();
        {
          cawo::obs::TraceScope span("solver.solve");
          result = solver->solve(request);
        }
        solveMs += msBetween(s0, Clock::now());
      }
      const double ms = msBetween(t0, Clock::now());
      r.latenciesMs.push_back(ms);
      busyMs += ms;
      greedyUs += static_cast<double>(statOr0(result, "greedy-us"));
      lsUs += static_cast<double>(statOr0(result, "ls-us"));
      rounds += static_cast<double>(statOr0(result, "ls-rounds"));
      moves += static_cast<double>(statOr0(result, "ls-moves"));
      ++r.attempted;
      checkSolveResult(r, inst.gc, inst.profile, inst.deadline, result,
                       lowerBounds[k], "solve " + inst.spec.label());
      if (firstCost[k] < 0) firstCost[k] = result.cost;
      ++i;
    }
    r.ops = static_cast<std::int64_t>(i);
    r.measuredS = busyMs / 1000.0;
    r.perOpMs = busyMs / static_cast<double>(i);
    r.counters["core.ls.rounds"] = rounds;
    r.counters["core.ls.moves"] = moves;
    r.counters["solver.wrapper_ms"] = solveMs - (greedyUs + lsUs) / 1000.0;
  });

  // Quality axis: the heuristic against the ASAP baseline on the same
  // instances and profiles.
  const cawo::SolverPtr asap = registry.create("ASAP");
  for (std::size_t k = 0; k < instances.size(); ++k) {
    const cawo::Instance& inst = instances[k];
    cawo::SolveRequest request;
    request.gc = &inst.gc;
    request.profile = &inst.profile;
    request.deadline = inst.deadline;
    const cawo::SolveResult base = asap->solve(request);
    checkSolveResult(report, inst.gc, inst.profile, inst.deadline, base,
                     lowerBounds[k], "ASAP " + inst.spec.label());
    report.asapCost += static_cast<double>(base.cost);
    report.heuristicCost += static_cast<double>(firstCost[k]);
  }
}

} // namespace perfbench
