// replay-reactive: online replays with forecast noise and runtime noise,
// alternating a reactive and a periodic policy on the same instances. An
// operation is one ReplayEngine::step (one completion-event batch). The
// online layer's per-event work dominates: the policy's deviation signal
// (two evaluateCostPrefix calls per event) and the residual re-solves.
// Planning a replay (the engine constructor's offline solve) is set-up,
// not an operation.

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "core/carbon_cost.hpp"
#include "obs/trace.hpp"
#include "online/replay.hpp"
#include "profile/profile_source.hpp"
#include "sim/instance.hpp"
#include "solver/registry.hpp"

namespace perfbench {

namespace {

struct Case {
  cawo::Instance instance;
  cawo::PowerProfile actual;
  cawo::Cost asapActualCost = 0; ///< ASAP schedule billed against actual
};

/// The executed trajectory must respect precedence under the actual
/// durations and bill to exactly the cost the engine reported.
void checkTrajectory(Report& report, const cawo::ReplayEngine& engine,
                     const cawo::PowerProfile& actual,
                     const cawo::OnlineResult& result, const std::string& what) {
  const cawo::EnhancedGraph& gc = engine.gc();
  const cawo::Schedule& executed = engine.executedStarts();
  const std::vector<cawo::Time>& durations = engine.actualDurations();
  {
    cawo::obs::TraceScope span("core.validate");
    for (cawo::TaskId v = 0; v < gc.numNodes(); ++v) {
      if (!executed.isSet(v)) {
        report.checkFailed(what + ": node " + std::to_string(v) +
                           " never started");
        return;
      }
      for (const cawo::TaskId p : gc.preds(v)) {
        if (executed.start(v) <
            executed.start(p) + durations[static_cast<std::size_t>(p)]) {
          report.checkFailed(what + ": node " + std::to_string(v) +
                             " started before predecessor " +
                             std::to_string(p) + " completed");
          return;
        }
      }
    }
  }
  cawo::Cost cost = 0;
  {
    cawo::obs::TraceScope span("core.cost");
    cost = cawo::evaluateCostWithDurations(gc, actual, executed, durations);
  }
  checkCostEqual(report, result.actualCost, cost, what);
}

} // namespace

void runReplayReactive(const Config& config, Report& report) {
  const Params& p = config.params;
  const std::vector<std::string> families = p.getList("families");
  const std::vector<std::string> scenarios = p.getList("scenarios");
  const std::vector<std::string> policies = p.getList("policies");
  cawo::OnlineOptions base;
  base.solver = p.get("algo");
  base.runtimeNoise = p.getDouble("runtime-noise");
  base.clairvoyant = false;
  base.solverOptions.setInt("block-size", p.getInt("block-size"));
  base.solverOptions.setInt("ls-radius", p.getInt("ls-radius"));
  const double forecastNoise = p.getDouble("forecast-noise");

  std::vector<cawo::InstanceSpec> specs;
  for (std::size_t f = 0; f < families.size(); ++f) {
    cawo::InstanceSpec spec;
    spec.family = cawo::familyFromName(families[f]);
    spec.targetTasks = static_cast<int>(p.getInt("tasks"));
    spec.nodesPerType = static_cast<int>(p.getInt("nodes-per-type"));
    spec.numIntervals = static_cast<int>(p.getInt("intervals"));
    spec.deadlineFactor = p.getDouble("deadline-factor");
    spec.scenario = scenarios[f % scenarios.size()];
    spec.seed = 1 + f;
    specs.push_back(spec);
  }

  // The replays are fixed (instance, policy) pairs with fixed noise
  // streams; the seed sets the order each cycle over them takes. Within a
  // cycle the policies alternate on each instance.
  const std::size_t P = policies.size();
  const std::size_t cycle = specs.size() * P;
  const auto pairOf = [&](std::size_t j) {
    std::vector<std::size_t> order(specs.size());
    Rng rng(mix(config.seed, j / cycle));
    for (std::size_t a = 0; a < order.size(); ++a) order[a] = a;
    for (std::size_t a = order.size(); a > 1; --a)
      std::swap(order[a - 1], order[rng.next() % a]);
    return std::make_pair(order[(j % cycle) / P], j % P);
  };
  const auto optionsFor = [&](std::size_t j) {
    cawo::OnlineOptions o = base;
    o.policy = policies[pairOf(j).second];
    o.runtimeSeed = 1 + pairOf(j).first;
    return o;
  };

  // Set-up: build the instances, resolve their actual profiles and plan
  // the first replay.
  std::vector<Case> cases;
  std::unique_ptr<cawo::ReplayEngine> planned;
  timeSetup(report, 5, [&] {
    planned.reset();
    cases.clear();
    for (std::size_t k = 0; k < specs.size(); ++k) {
      Case c{cawo::buildInstance(specs[k]), {}, 0};
      c.actual = cawo::generateProfile(
          specs[k].scenario + "+noise=" + std::to_string(forecastNoise) +
              ",seed=" + std::to_string(specs[k].seed),
          cawo::instanceProfileRequest(c.instance));
      cases.push_back(std::move(c));
    }
    const Case& first = cases[pairOf(0).first];
    planned = std::make_unique<cawo::ReplayEngine>(
        first.instance, first.instance.profile, first.actual, optionsFor(0));
  });
  const cawo::SolverPtr asap = cawo::SolverRegistry::global().create("ASAP");
  for (Case& c : cases) {
    cawo::SolveRequest request;
    request.gc = &c.instance.gc;
    request.profile = &c.actual;
    request.deadline = c.instance.deadline;
    c.asapActualCost = asap->solve(request).cost;
  }

  bool firstPass = true;
  runPasses(config, report, [&](double seconds, Report& r) {
    // Every pass replays the same sequence, so a traced pass is comparable
    // with an untraced one.
    std::size_t next = 0;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    double stepMs = 0.0, resolves = 0.0, accepted = 0.0;
    std::int64_t steps = 0;
    // Whole cycles until the time is up, so every run replays each pair
    // equally often.
    while (Clock::now() < end || next % cycle != 0) {
      const std::size_t j = next++;
      const Case& c = cases[pairOf(j).first];
      std::unique_ptr<cawo::ReplayEngine> engine = std::move(planned);
      if (!engine) {
        cawo::obs::TraceScope span("online.plan");
        engine = std::make_unique<cawo::ReplayEngine>(
            c.instance, c.instance.profile, c.actual, optionsFor(j));
      }
      ++r.attempted;
      if (!engine->planFeasible()) {
        ++r.failed;
        continue;
      }
      while (!engine->finished()) {
        const Clock::time_point t0 = Clock::now();
        {
          cawo::obs::TraceScope op("bench.op");
          cawo::obs::TraceScope span("online.step");
          engine->step();
        }
        const double ms = msBetween(t0, Clock::now());
        r.latenciesMs.push_back(ms);
        stepMs += ms;
        ++steps;
      }
      const cawo::OnlineResult result = engine->run();
      if (!result.deadlineMet) ++r.failed;
      resolves += static_cast<double>(result.resolveCount);
      accepted += static_cast<double>(result.resolveAccepted);
      checkTrajectory(r, *engine, c.actual, result,
                      c.instance.spec.label() + " " +
                          policies[pairOf(j).second]);
      if (firstPass && j < cycle) {
        report.heuristicCost += static_cast<double>(result.actualCost);
        report.asapCost += static_cast<double>(c.asapActualCost);
      }
    }
    r.ops = steps;
    r.measuredS = stepMs / 1000.0;
    r.perOpMs = stepMs / static_cast<double>(std::max<std::int64_t>(steps, 1));
    firstPass = false;
    r.counters["online.resolve.accept_ratio"] =
        resolves > 0 ? accepted / resolves : 0.0;
  });
}

} // namespace perfbench
