#include "sim/instance.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "core/asap.hpp"
#include "core/instance_hash.hpp"
#include "core/solve_context.hpp"
#include "heft/heft.hpp"
#include "solver/solver.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace cawo {

namespace {

/// The one place that derives a ProfileRequest from instance data — shared
/// by `buildInstance` and `instanceProfileRequest` so online profile
/// resolution is bit-identical to the build-time one.
ProfileRequest detailProfileRequest(const InstanceSpec& spec,
                                    const EnhancedGraph& gc, Time deadline) {
  Power sumWork = 0;
  for (ProcId p = 0; p < gc.numProcs(); ++p) sumWork += gc.workPower(p);
  ProfileRequest preq;
  preq.horizon = deadline;
  preq.sumIdle = gc.totalIdlePower();
  preq.sumWork = sumWork;
  preq.numIntervals = spec.numIntervals;
  preq.seed = spec.seed ^ 0x5CE11A21ULL;
  return preq;
}

} // namespace

std::string InstanceSpec::label() const {
  return std::string(familyName(family)) + "-" + std::to_string(targetTasks) +
         "/c" + std::to_string(nodesPerType) + "/" + scenario + "/d" +
         formatFixed(deadlineFactor, 1);
}

std::string InstanceSpec::cellKey() const {
  // Shortest %g spelling that round-trips the factor exactly: the key must
  // distinguish 1.2 from 1.25, which label()'s 1-decimal rendering cannot.
  char factor[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(factor, sizeof(factor), "%.*g", precision, deadlineFactor);
    if (std::strtod(factor, nullptr) == deadlineFactor) break;
  }
  return std::string(familyName(family)) + "-" + std::to_string(targetTasks) +
         "/c" + std::to_string(nodesPerType) + "/s" + std::to_string(seed) +
         "/i" + std::to_string(numIntervals) + "/d" + factor + "/" + scenario;
}

std::uint64_t instanceSpecHash(const InstanceSpec& spec) {
  Fnv1aHasher h;
  h.mixString(std::string(familyName(spec.family)));
  h.mixI64(spec.targetTasks);
  h.mixI64(spec.nodesPerType);
  h.mixString(spec.scenario);
  h.mixU64(std::bit_cast<std::uint64_t>(spec.deadlineFactor));
  h.mixI64(spec.numIntervals);
  h.mixU64(spec.seed);
  return h.value();
}

Instance buildInstance(const InstanceSpec& spec) {
  CAWO_REQUIRE(spec.deadlineFactor >= 1.0,
               "deadline factor below 1.0 is infeasible by definition of D");

  WorkflowGenOptions gopts;
  gopts.targetTasks = spec.targetTasks;
  gopts.seed = spec.seed;
  TaskGraph graph = generateWorkflow(spec.family, gopts);

  Platform platform = Platform::scaled(spec.nodesPerType);
  HeftResult heft = runHeft(graph, platform);

  LinkPowerOptions linkPower;
  linkPower.seed = spec.seed ^ 0x11CC77EEULL;
  EnhancedGraph gc = EnhancedGraph::build(graph, platform, heft.mapping,
                                          linkPower, &heft.startTimes);

  const Time d = asapMakespan(gc);
  const Time deadline = static_cast<Time>(
      std::llround(std::ceil(spec.deadlineFactor * static_cast<double>(d))));

  // Resolve the scenario spec through the profile-source registry; the
  // request carries the legacy derived seed and default perturbation, so
  // "S1" … "S4" reproduce the pre-registry profiles bit for bit.
  const ProfileRequest preq = detailProfileRequest(spec, gc, deadline);
  PowerProfile profile = generateProfile(spec.scenario, preq);

  return Instance{spec,
                  std::move(graph),
                  std::move(platform),
                  std::move(heft.mapping),
                  std::move(gc),
                  std::move(profile),
                  d,
                  deadline};
}

ProfileRequest instanceProfileRequest(const Instance& instance) {
  return detailProfileRequest(instance.spec, instance.gc, instance.deadline);
}

SolveRequest solveRequestFor(const Instance& instance,
                             const SolveContext& context) {
  SolveRequest request;
  request.gc = &context.gc();
  request.profile = &context.profile();
  request.deadline = context.deadline();
  request.graph = &instance.graph;
  request.platform = &instance.platform;
  request.context = &context;
  return request;
}

} // namespace cawo
