// campaign-grid: store-backed campaigns over the paper's Section 6 grid
// at small N, through runCampaignToStore with at most nproc runner
// threads. An operation is one campaign cell. Cells are small, so the
// fixed per-cell costs (instance build, registry.create, validation, cost
// evaluation, record serialization, store append) carry a large share of
// the time.
//
// The traced pass cannot time calls made inside runCampaignToStore, so it
// runs the runner's per-instance work itself through the same public
// functions (buildInstance, SolverRegistry::create, Solver::solve,
// validateSchedule, evaluateCost, campaignRecordJsonLine,
// CampaignStoreWriter::appendInstance) with a span around each call.

#include <algorithm>
#include <filesystem>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "core/carbon_cost.hpp"
#include "core/instance_hash.hpp"
#include "core/solve_context.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "exp/record_json.hpp"
#include "exp/store.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "solver/registry.hpp"
#include "util/parallel.hpp"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

cawo::CampaignSpec gridSpec(const Config& config, std::uint64_t rep) {
  const Params& p = config.params;
  cawo::CampaignSpec spec;
  spec.name = "perfbench-campaign-grid";
  for (const char* key : {"families", "tasks", "bacass-tasks",
                          "nodes-per-type", "scenarios", "deadline-factors",
                          "intervals", "algos"})
    cawo::setCampaignKey(spec, key, p.get(key));
  // Repetition `rep` runs grid (seed + rep) mod pool of a fixed pool of
  // grids: every run covers whole pool cycles, the seed sets the order.
  const std::uint64_t pool = static_cast<std::uint64_t>(p.getInt("pool"));
  spec.seeds = {1 + (config.seed + rep) % pool};
  spec.threads = static_cast<unsigned>(p.getInt("threads"));
  return spec;
}

/// Check a finished store: every cell present and feasible, no cost below
/// the instance's lower bound; sum the carbon quality axis when asked.
void checkStore(const std::string& dir, Report& report, bool sumCarbon,
                std::vector<cawo::CampaignRecord>* keep) {
  cawo::CampaignStoreReader reader(dir);
  if (!reader.complete()) {
    report.checkFailed("store " + dir + " is incomplete");
    return;
  }
  reader.forEachPresentCell([&](std::size_t, std::size_t,
                                const std::string& line) {
    const cawo::CampaignRecord record = cawo::parseCampaignRecordLine(line);
    if (keep) keep->push_back(record);
    if (record.skipped) return;
    ++report.attempted;
    if (!record.feasible) {
      ++report.failed;
      return;
    }
    if (record.cost < record.lowerBound && record.solver != "greenheft")
      report.checkFailed(record.instance + " " + record.solver +
                         ": cost below carbonLowerBound");
    if (sumCarbon && record.solver != "ASAP" && record.hasBaseline) {
      report.heuristicCost += static_cast<double>(record.cost);
      report.asapCost += static_cast<double>(record.baselineCost);
    }
  });
}

/// Re-solve a seeded sample of the grid's instances outside the runner
/// and confirm the stored records: same instance hash, same cost, and a
/// schedule that validates with that cost.
void checkSample(const Config& config, const cawo::CampaignSpec& spec,
                 const std::vector<cawo::CampaignRecord>& records,
                 Report& report) {
  const std::vector<cawo::InstanceSpec> instances = cawo::expandCampaign(spec);
  const std::vector<std::string> solvers = cawo::campaignSolverNames(spec);
  const std::size_t S = solvers.size();
  if (records.size() != instances.size() * S) {
    report.checkFailed("store holds " + std::to_string(records.size()) +
                       " records, grid has " +
                       std::to_string(instances.size() * S));
    return;
  }
  const std::int64_t every = config.params.getInt("check-every");
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < instances.size(); ++i)
    if (mix(config.seed, 1000 + i) % static_cast<std::uint64_t>(every) == 0)
      sample.push_back(i);
  if (sample.empty()) sample.push_back(0);
  const cawo::SolverRegistry& registry = cawo::SolverRegistry::global();
  cawo::parallelFor(sample.size(), spec.threads, [&](std::size_t k) {
    const std::size_t i = sample[k];
    const cawo::Instance inst = cawo::buildInstance(instances[i]);
    const cawo::SolveContext ctx(inst.gc, inst.profile, inst.deadline);
    const cawo::Cost lb = cawo::carbonLowerBound(inst.gc, inst.profile);
    const std::uint64_t hash =
        cawo::instanceHash(inst.gc, inst.profile, inst.deadline);
    for (std::size_t s = 0; s < S; ++s) {
      const cawo::CampaignRecord& record = records[i * S + s];
      const std::string what = record.instance + " " + record.solver;
      if (record.skipped) continue;
      if (record.instanceHash != hash)
        report.checkFailed(what + ": instance hash differs from a rebuild");
      cawo::SolveRequest request;
      request.gc = &inst.gc;
      request.profile = &inst.profile;
      request.deadline = inst.deadline;
      request.graph = &inst.graph;
      request.platform = &inst.platform;
      request.context = &ctx;
      const cawo::SolveResult result =
          registry.create(solvers[s])->solve(request);
      Report local;
      checkSolveResult(local, inst.gc, inst.profile, inst.deadline, result,
                       lb, what);
      for (const std::string& e : local.checkErrors()) report.checkFailed(e);
      checkCostEqual(report, record.cost, result.cost, what + " (store)");
    }
  });
}

/// The runner's per-instance work, one public call at a time.
void mirrorInstance(const cawo::InstanceSpec& cell,
                    const std::vector<std::string>& solvers,
                    std::size_t instanceIndex,
                    cawo::CampaignStoreWriter& store, Report& report,
                    double& solveMs, double& phaseUs, double& rounds,
                    double& moves) {
  const cawo::SolverRegistry& registry = cawo::SolverRegistry::global();
  const std::size_t S = solvers.size();
  cawo::obs::TraceScope op("bench.op");
  const cawo::Instance instance = [&] {
    cawo::obs::TraceScope span("sim.build");
    return cawo::buildInstance(cell);
  }();
  const cawo::SolveContext context(instance.gc, instance.profile,
                                   instance.deadline);
  cawo::Cost lowerBound = 0;
  std::uint64_t hash = 0;
  {
    cawo::obs::TraceScope span("core.bound_hash");
    lowerBound = cawo::carbonLowerBound(instance.gc, instance.profile);
    hash = cawo::instanceHash(instance.gc, instance.profile,
                              instance.deadline);
  }
  cawo::SolveRequest request;
  request.gc = &instance.gc;
  request.profile = &instance.profile;
  request.deadline = instance.deadline;
  request.graph = &instance.graph;
  request.platform = &instance.platform;
  request.context = &context;

  std::vector<cawo::CampaignRecord> records(S);
  for (std::size_t s = 0; s < S; ++s) {
    cawo::CampaignRecord& record = records[s];
    record.spec = instance.spec;
    record.instance = instance.spec.label();
    record.deadline = instance.deadline;
    record.asapMakespanD = instance.asapMakespanD;
    record.numNodes = instance.gc.numNodes();
    record.instanceHash = hash;
    record.lowerBound = lowerBound;
    record.solver = solvers[s];
    record.ratioVsBaseline = std::numeric_limits<double>::quiet_NaN();
    cawo::SolverPtr solver;
    {
      cawo::obs::TraceScope span("solver.create");
      solver = registry.create(solvers[s]);
    }
    if (!cawo::solverFitsInstance(solver->info(), instance)) {
      record.skipped = true;
      continue;
    }
    cawo::SolveResult result;
    const Clock::time_point t0 = Clock::now();
    {
      cawo::obs::TraceScope span("solver.solve");
      result = solver->solve(request);
    }
    solveMs += msBetween(t0, Clock::now());
    ++report.attempted;
    checkSolveResult(report, instance.gc, instance.profile,
                     instance.deadline, result, lowerBound,
                     record.instance + " " + record.solver);
    record.cost = result.cost;
    record.wallMs = result.wallMs;
    record.feasible = result.feasible;
    for (const auto& [key, value] : result.stats) {
      if (key == "greedy-us") {
        record.hasPhaseSplit = true;
        record.greedyMs = static_cast<double>(value) / 1000.0;
        phaseUs += static_cast<double>(value);
      } else if (key == "ls-us") {
        record.hasLocalSearch = true;
        record.lsMs = static_cast<double>(value) / 1000.0;
        phaseUs += static_cast<double>(value);
      } else if (key == "ls-rounds") {
        record.lsRounds = value;
        rounds += static_cast<double>(value);
      } else if (key == "ls-moves") {
        record.lsMoves = value;
        moves += static_cast<double>(value);
      }
    }
  }
  const cawo::CampaignRecord& baseline = records[0];
  for (cawo::CampaignRecord& record : records) {
    if (record.skipped || baseline.skipped || !baseline.feasible) continue;
    record.hasBaseline = true;
    record.baselineCost = baseline.cost;
    if (record.feasible && baseline.cost > 0)
      record.ratioVsBaseline = static_cast<double>(record.cost) /
                               static_cast<double>(baseline.cost);
  }
  {
    cawo::obs::TraceScope span("exp.record");
    for (const cawo::CampaignRecord& record : records)
      (void)cawo::campaignRecordJsonLine(record);
  }
  cawo::obs::TraceScope span("exp.store.append");
  store.appendInstance(instanceIndex, records.data(), S);
}

std::uint64_t storeBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) bytes += e.file_size();
  return bytes;
}

} // namespace

void runCampaignGrid(const Config& config, Report& report) {
  const fs::path root = fs::path(config.workDir) / "campaign";
  fs::remove_all(root);
  fs::create_directories(root);
  cawo::SolverOptions options;

  // Set-up: time to the first durable result — open a fresh store and
  // run the grid's first instance through the runner, which also
  // finishes every lazy initialisation before the timed repetitions.
  timeSetup(report, 5, [&, n = 0]() mutable {
    const cawo::CampaignSpec spec = gridSpec(config, 0);
    cawo::CampaignStoreWriter store(
        (root / ("setup-" + std::to_string(n++))).string(), spec);
    (void)cawo::runCampaignToStore(options, store, {}, store.stride());
  });

  std::vector<cawo::CampaignRecord> firstRecords;
  runPasses(config, report, [&](double seconds, Report& r) {
    // Every pass runs the same sequence of grids, so a traced pass is
    // comparable with an untraced one.
    std::uint64_t rep = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    double wallMs = 0.0, workerBusyMs = 0.0, solveMs = 0.0, phaseUs = 0.0;
    double rounds = 0.0, moves = 0.0, fsyncs = 0.0, bytes = 0.0;
    std::int64_t cells = 0;
    unsigned threads = 1;
    const bool mirror = config.trace;
    std::vector<std::string> dirs;
    // Whole cycles over the grid pool until the time is up; each grid is
    // solved from scratch into a fresh store.
    const std::uint64_t pool =
        static_cast<std::uint64_t>(config.params.getInt("pool"));
    while (Clock::now() < end || rep % pool != 0) {
      const cawo::CampaignSpec spec = gridSpec(config, rep);
      threads = spec.threads;
      const std::string dir = (root / ("rep-" + std::to_string(rep))).string();
      dirs.push_back(dir);
      ++rep;
      const Clock::time_point t0 = Clock::now();
      cawo::CampaignStoreWriter store(dir, spec);
      if (!mirror) {
        // Per-thread progress stamps: a worker reports after each finished
        // instance, so the gap since its previous report is the latency of
        // that instance's cell group.
        std::mutex mutex;
        std::map<std::thread::id, Clock::time_point> last;
        const cawo::CampaignRunStats stats = cawo::runCampaignToStore(
            options, store, [&](std::size_t, std::size_t) {
              const Clock::time_point now = Clock::now();
              const std::scoped_lock lock(mutex);
              auto [it, fresh] = last.emplace(std::this_thread::get_id(), t0);
              r.latenciesMs.push_back(msBetween(it->second, now) /
                                      static_cast<double>(store.stride()));
              it->second = now;
            });
        cells += static_cast<std::int64_t>(stats.cellsSolved);
        fsyncs += static_cast<double>(stats.fsyncs);
      } else {
        const std::vector<std::string> solvers =
            cawo::campaignSolverNames(spec);
        const std::vector<cawo::InstanceSpec>& instances = store.instances();
        std::mutex mutex;
        const std::int64_t attemptedBefore = r.attempted;
        cawo::parallelFor(instances.size(), spec.threads, [&](std::size_t i) {
          double sMs = 0.0, pUs = 0.0, ro = 0.0, mo = 0.0;
          Report local; // per-worker counts, merged under the lock
          const Clock::time_point b0 = Clock::now();
          mirrorInstance(instances[i], solvers, i, store, local, sMs, pUs, ro,
                         mo);
          const std::scoped_lock lock(mutex);
          for (const std::string& e : local.checkErrors()) r.checkFailed(e);
          r.attempted += local.attempted;
          r.failed += local.failed;
          workerBusyMs += msBetween(b0, Clock::now());
          solveMs += sMs;
          phaseUs += pUs;
          rounds += ro;
          moves += mo;
        });
        {
          cawo::obs::TraceScope span("exp.store.append");
          store.flush();
        }
        cells += r.attempted - attemptedBefore;
        fsyncs += static_cast<double>(store.fsyncCount());
      }
      wallMs += msBetween(t0, Clock::now());
      bytes += static_cast<double>(storeBytes(dir));
    }
    r.ops = cells;
    r.measuredS = wallMs / 1000.0;
    r.perOpMs = wallMs / static_cast<double>(std::max<std::int64_t>(cells, 1));
    r.counters["solver.wrapper_ms"] = solveMs - phaseUs / 1000.0;
    r.counters["core.ls.rounds"] = rounds;
    r.counters["core.ls.moves"] = moves;
    r.counters["exp.store.fsyncs"] = fsyncs;
    r.counters["exp.store.bytes"] = bytes;
    r.counters["exp.campaign.worker_busy_frac"] =
        workerBusyMs / (wallMs * static_cast<double>(std::max(1u, threads)));
    r.peakRssMb = peakRssMb();
    if (!mirror) {
      // The quality axis covers the first pool cycle: every grid once.
      const bool firstPass = firstRecords.empty();
      for (std::size_t d = 0; d < dirs.size(); ++d) {
        const bool carbon = firstPass && d < pool;
        checkStore(dirs[d], r, carbon,
                   firstPass && d == 0 ? &firstRecords : nullptr);
      }
      if (firstPass) checkSample(config, gridSpec(config, 0), firstRecords, r);
    }
    for (const std::string& dir : dirs) fs::remove_all(dir);
  });
  fs::remove_all(root);
}

} // namespace perfbench
