// perfbench_runner — runs one benchmark workload in this process and
// writes its raw measurements as JSON for run.py to reduce into metrics.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//       --work-dir DIR --out FILE [--corrupt 0|1] [key=value ...]
//
// The key=value pairs are the workload's parameters (run.py keeps the
// workload definitions). With --trace 1 the obs trace recorder's events
// are written to DIR/trace.json. Exits 1 on any error; an output-check
// failure is reported through the result file's "check_errors".

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/carbon_cost.hpp"
#include "exp/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Params::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end())
    throw std::runtime_error("missing workload parameter '" + key + "'");
  return it->second;
}

std::int64_t Params::getInt(const std::string& key) const {
  return std::stoll(get(key));
}

double Params::getDouble(const std::string& key) const {
  return std::stod(get(key));
}

std::vector<std::string> Params::getList(const std::string& key) const {
  std::vector<std::string> out;
  std::stringstream in(get(key));
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(item);
  return out;
}

void Report::checkFailed(const std::string& what) {
  const std::scoped_lock lock(mutex_);
  errors_.push_back(what);
}

std::vector<std::string> Report::checkErrors() const {
  const std::scoped_lock lock(mutex_);
  return errors_;
}

void timeSetup(Report& report, int times, const std::function<void()>& setup) {
  for (int i = 0; i < times; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    report.setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0; // reported in kB
  }
  return 0.0;
}

namespace {
std::atomic<bool> g_corruptPending{false};
} // namespace

void setCorruption(bool enabled) { g_corruptPending = enabled; }

void checkCostEqual(Report& report, cawo::Cost reported, cawo::Cost recomputed,
                    const std::string& what) {
  if (g_corruptPending.exchange(false)) reported += 1;
  if (reported != recomputed)
    report.checkFailed(what + ": reported cost " + std::to_string(reported) +
                       " != evaluateCost " + std::to_string(recomputed));
}

void checkSchedule(Report& report, const cawo::EnhancedGraph& gc,
                   const cawo::PowerProfile& profile, cawo::Time deadline,
                   const cawo::Schedule& schedule, cawo::Cost reported,
                   cawo::Cost lowerBound, const std::string& what) {
  cawo::ValidationResult validation;
  {
    cawo::obs::TraceScope span("core.validate");
    validation = cawo::validateSchedule(gc, schedule, deadline);
  }
  if (!validation.ok) {
    report.checkFailed(what + ": schedule fails validation: " +
                       validation.message);
    return;
  }
  cawo::Cost cost = 0;
  {
    cawo::obs::TraceScope span("core.cost");
    cost = cawo::evaluateCost(gc, profile, schedule);
  }
  checkCostEqual(report, reported, cost, what);
  if (cost < lowerBound)
    report.checkFailed(what + ": cost " + std::to_string(cost) +
                       " is below carbonLowerBound " +
                       std::to_string(lowerBound));
}

void checkSolveResult(Report& report, const cawo::EnhancedGraph& gc,
                      const cawo::PowerProfile& profile, cawo::Time deadline,
                      const cawo::SolveResult& result, cawo::Cost lowerBound,
                      const std::string& what) {
  if (!result.feasible) {
    ++report.failed;
    return;
  }
  if (result.remappedGc) {
    // A re-mapping solver's schedule refers to its own graph and profile;
    // the lower bound of the fixed mapping does not apply to it.
    const cawo::PowerProfile& extended =
        result.extendedProfile ? *result.extendedProfile : profile;
    checkSchedule(report, *result.remappedGc, extended,
                  result.effectiveDeadline, result.schedule, result.cost,
                  cawo::carbonLowerBound(*result.remappedGc, extended), what);
    return;
  }
  checkSchedule(report, gc, profile, deadline, result.schedule, result.cost,
                lowerBound, what);
}

void runPasses(const Config& config, Report& report,
               const std::function<void(double, Report&)>& pass) {
  auto& recorder = cawo::obs::TraceRecorder::global();
  if (!config.trace) {
    pass(config.seconds, report);
    if (report.peakRssMb == 0.0) report.peakRssMb = peakRssMb();
    return;
  }
  Report untraced;
  pass(config.seconds / 2.0, untraced);
  for (const std::string& e : untraced.checkErrors()) report.checkFailed(e);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;

  recorder.clear();
  recorder.setState(cawo::obs::TraceState::Recording);
  pass(config.seconds / 2.0, report);
  recorder.setState(cawo::obs::TraceState::Off);
  report.counters["obs.trace_overhead_frac"] =
      untraced.perOpMs > 0.0
          ? (report.perOpMs - untraced.perOpMs) / untraced.perOpMs
          : 0.0;
}

} // namespace perfbench

namespace {

using namespace perfbench;

void writeReport(const std::string& path, const Config& config,
                 const Report& report) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write " + path);
  cawo::JsonWriter w(file);
  w.beginObject();
  w.key("workload").value(config.workload);
  w.key("seed").value(static_cast<std::int64_t>(config.seed));
  w.key("trace").value(config.trace);
  w.key("attempted").value(report.attempted);
  w.key("failed").value(report.failed);
  w.key("ops").value(report.ops);
  w.key("measured_s").value(report.measuredS);
  w.key("peak_rss_mb").value(report.peakRssMb);
  w.key("heuristic_cost").value(report.heuristicCost);
  w.key("asap_cost").value(report.asapCost);
  w.key("setup_s");
  w.compactNext();
  w.beginArray();
  for (const double s : report.setupS) w.value(s);
  w.endArray();
  w.key("latencies_ms");
  w.compactNext();
  w.beginArray();
  for (const double ms : report.latenciesMs) w.value(ms);
  w.endArray();
  w.key("extra");
  w.beginObject();
  for (const auto& [key, value] : report.extra) w.key(key).value(value);
  w.endObject();
  w.key("counters");
  w.beginObject();
  for (const auto& [key, value] : report.counters) w.key(key).value(value);
  w.endObject();
  w.key("check_errors");
  w.beginArray();
  for (const std::string& e : report.checkErrors()) w.value(e);
  w.endArray();
  w.endObject();
  file << '\n';
  if (!file) throw std::runtime_error("failed writing " + path);
}

} // namespace

int main(int argc, char** argv) {
  try {
    Config config;
    std::string out;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload") config.workload = value;
        else if (arg == "--seed") config.seed = std::stoull(value);
        else if (arg == "--seconds") config.seconds = std::stod(value);
        else if (arg == "--trace") config.trace = value == "1";
        else if (arg == "--corrupt") config.corrupt = value == "1";
        else if (arg == "--work-dir") config.workDir = value;
        else if (arg == "--out") out = value;
        else throw std::runtime_error("unknown flag " + arg);
      } else {
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos)
          throw std::runtime_error("expected key=value, got " + arg);
        config.params.set(arg.substr(0, eq), arg.substr(eq + 1));
      }
    }
    if (out.empty() || config.workDir.empty() || !(config.seconds > 0))
      throw std::runtime_error("--out, --work-dir and --seconds > 0 needed");
    setCorruption(config.corrupt);

    Report report;
    if (config.workload == "campaign-grid") runCampaignGrid(config, report);
    else if (config.workload == "solve-large") runSolveLarge(config, report);
    else if (config.workload == "serve-skewed") runServeSkewed(config, report);
    else if (config.workload == "replay-reactive")
      runReplayReactive(config, report);
    else throw std::runtime_error("unknown workload " + config.workload);

    if (config.trace) {
      const std::string tracePath = config.workDir + "/trace.json";
      std::ofstream trace(tracePath);
      cawo::obs::TraceRecorder::global().writeChromeTrace(trace);
      if (!trace) throw std::runtime_error("failed writing " + tracePath);
    }
    writeReport(out, config, report);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
