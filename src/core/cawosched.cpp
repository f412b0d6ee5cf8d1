#include "core/cawosched.hpp"

#include "core/solve_context.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace cawo {

std::string VariantSpec::name() const {
  std::string s = (base == BaseScore::Slack) ? "slack" : "press";
  if (weighted) s += "W";
  if (refined) s += "R";
  if (localSearch) s += "-LS";
  return s;
}

VariantSpec VariantSpec::parse(const std::string& name) {
  for (const VariantSpec& v : allVariants())
    if (v.name() == name) return v;
  throw PreconditionError("unknown CaWoSched variant: " + name);
}

std::vector<VariantSpec> allVariants() {
  std::vector<VariantSpec> out;
  for (const bool ls : {false, true}) {
    for (const BaseScore base : {BaseScore::Slack, BaseScore::Pressure}) {
      for (const bool refined : {false, true}) {
        for (const bool weighted : {false, true}) {
          // Order within a base: plain, W, R, WR (paper naming order).
          out.push_back(VariantSpec{base, weighted, refined, ls});
        }
      }
    }
  }
  return out;
}

std::vector<VariantSpec> greedyOnlyVariants() {
  std::vector<VariantSpec> out;
  for (const VariantSpec& v : allVariants())
    if (!v.localSearch) out.push_back(v);
  return out;
}

Schedule runVariant(const EnhancedGraph& gc, const PowerProfile& profile,
                    Time deadline, const VariantSpec& spec,
                    const CaWoParams& params) {
  const SolveContext ctx(gc, profile, deadline);
  return runVariant(ctx, spec, params);
}

Schedule runVariant(const SolveContext& ctx, const VariantSpec& spec,
                    const CaWoParams& params, VariantRunStats* stats) {
  obs::TraceScope span("solve.variant");
  if (span.recording()) span.arg("variant", spec.name());

  GreedyOptions gopts;
  gopts.base = spec.base;
  gopts.weighted = spec.weighted;
  gopts.refined = spec.refined;
  gopts.blockSize = params.blockSize;

  WallTimer timer;
  Schedule s = scheduleGreedy(ctx, gopts);
  if (stats) stats->greedyMs = timer.elapsedMs();

  if (spec.localSearch) {
    LocalSearchOptions lopts;
    lopts.radius = params.lsRadius;
    lopts.threads = params.threads;
    lopts.restarts = params.lsRestarts;
    lopts.seed = params.lsSeed;
    timer.reset();
    const LocalSearchStats ls =
        localSearchRestarts(ctx.gc(), ctx.profile(), ctx.deadline(), s, lopts);
    if (stats) {
      stats->lsMs = timer.elapsedMs();
      stats->lsRan = true;
      stats->ls = ls;
    }
  }
  return s;
}

std::vector<Schedule> runVariants(const SolveContext& ctx,
                                  const std::vector<VariantSpec>& specs,
                                  const CaWoParams& params, unsigned threads,
                                  std::vector<VariantRunStats>* stats) {
  if (stats) stats->assign(specs.size(), VariantRunStats{});

  // Prime every shared artifact the fan-out will read, so the variants
  // start from cache hits instead of queueing on the context's lock.
  {
    obs::TraceScope prime("context.prime");
    (void)ctx.initialEst();
    (void)ctx.initialLst();
    (void)ctx.asapMakespan();
    (void)ctx.sumWorkPower();
    bool anyRefined = false;
    bool anyUnrefined = false;
    for (const VariantSpec& spec : specs) {
      anyRefined = anyRefined || spec.refined;
      anyUnrefined = anyUnrefined || !spec.refined;
      (void)ctx.scoreOrder(ScoreOptions{spec.base, spec.weighted});
    }
    if (anyRefined) {
      (void)ctx.refinedIntervals(params.blockSize);
      (void)ctx.budgetTreePrototype(true, params.blockSize);
    }
    if (anyUnrefined) (void)ctx.budgetTreePrototype(false, params.blockSize);
  }

  // The variant fan-out owns the workers; keep the kernels inside each
  // variant serial so a 16-way batch never oversubscribes the machine.
  CaWoParams inner = params;
  if (threads != 1) inner.threads = 1;

  std::vector<Schedule> out(specs.size());
  parallelFor(specs.size(), threads, [&](std::size_t i) {
    out[i] = runVariant(ctx, specs[i], inner,
                        stats ? &(*stats)[i] : nullptr);
  });
  return out;
}

} // namespace cawo
