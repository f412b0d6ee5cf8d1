// serve-skewed: open-loop NDJSON traffic into ServeServer over the
// loopback TcpServeListener. Instance popularity follows a Zipf law over a
// fixed catalogue of more distinct instances than the context cache holds,
// so one run has cache hits, misses (instance builds) and hot entries
// whose per-entry context lock serializes their solves; the seed drives
// the Poisson arrivals and the Zipf draws. Requests share one pipelined
// connection, and every eighteenth is a reactive replay. An operation is
// one request; its latency runs from when it was due, so a stalled
// generator or server charges the wait to every request queued behind it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/carbon_cost.hpp"
#include "exp/json.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "sim/instance.hpp"
#include "solver/registry.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

struct Request {
  double dueS = 0.0; ///< offset from the start of the pass
  std::size_t rank = 0; ///< Zipf rank = index into the distinct instances
  bool replay = false;
  std::string line;
};

struct Outcome {
  Clock::time_point due, sent, received;
  bool answered = false;
  std::string response;
};

struct ServeWorkload {
  std::vector<cawo::InstanceSpec> instances; ///< by Zipf rank
  std::vector<double> zipfCdf;
  std::string algo, policy;
  std::size_t replayEvery = 20; ///< every N-th request is a replay
  double runtimeNoise = 0.0, forecastNoise = 0.0;
  std::int64_t timeoutMs = 0;
  int connections = 1;
};

std::string requestLine(const ServeWorkload& w, std::size_t id,
                        std::size_t rank, bool replay) {
  const cawo::InstanceSpec& spec = w.instances[rank];
  std::string line = std::string("{\"kind\":\"") +
                     (replay ? "replay" : "solve") + "\",\"id\":\"r" +
                     std::to_string(id) + "\",\"family\":\"" +
                     cawo::familyName(spec.family) + "\",\"tasks\":" +
                     std::to_string(spec.targetTasks) +
                     ",\"nodes_per_type\":" +
                     std::to_string(spec.nodesPerType) + ",\"scenario\":\"" +
                     spec.scenario + "\",\"deadline_factor\":" +
                     cawo::jsonNumber(spec.deadlineFactor) +
                     ",\"intervals\":" + std::to_string(spec.numIntervals) +
                     ",\"seed\":" + std::to_string(spec.seed) +
                     ",\"algo\":\"" + w.algo + "\",\"timeout_ms\":" +
                     std::to_string(w.timeoutMs);
  if (replay) {
    line += ",\"policy\":\"" + w.policy + "\",\"actual\":\"" + spec.scenario +
            "+noise=" + cawo::jsonNumber(w.forecastNoise) +
            ",seed=" + std::to_string(rank + 1) +
            "\",\"runtime_noise\":" + cawo::jsonNumber(w.runtimeNoise) +
            ",\"runtime_seed\":" + std::to_string(rank + 1);
  } else {
    line += ",\"return_schedule\":true";
  }
  return line + "}";
}

/// round(rate * seconds) Poisson arrivals in [0, seconds) — a Poisson
/// process conditioned on its count, so every seed offers the same load —
/// on Zipf-ranked instances.
std::vector<Request> makeTraffic(const ServeWorkload& w, std::uint64_t seed,
                                 double rate, double seconds) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform() * seconds;
  std::sort(due.begin(), due.end());
  std::vector<Request> out;
  for (const double t : due) {
    Request r;
    r.dueS = t;
    const double u = rng.uniform();
    r.rank = static_cast<std::size_t>(
        std::lower_bound(w.zipfCdf.begin(), w.zipfCdf.end(), u) -
        w.zipfCdf.begin());
    r.rank = std::min(r.rank, w.instances.size() - 1);
    r.replay = out.size() % w.replayEvery == w.replayEvery - 1;
    r.line = requestLine(w, out.size(), r.rank, r.replay);
    out.push_back(std::move(r));
  }
  return out;
}

/// An owned socket descriptor, closed on every exit path.
struct Socket {
  explicit Socket(int f) : fd(f) {}
  ~Socket() {
    if (fd >= 0) ::close(fd);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd;
};

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  // Requests go out the moment they are due: no Nagle batching on the
  // generator's side of the connection.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect: " + std::string(strerror(errno)));
  }
  return fd;
}

void sendAll(int fd, const std::string& payload) {
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n =
        ::send(fd, payload.data() + off, payload.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<std::size_t>(n);
  }
}

std::size_t responseIndex(const std::string& line) {
  const std::size_t at = line.find("\"id\": \"r");
  if (at == std::string::npos) throw std::runtime_error("response without id");
  return std::stoull(line.substr(at + 8));
}

/// Drive `traffic` open-loop over `connections` loopback connections, one
/// generator thread per connection that both sends on schedule and reads
/// responses. Waits for answers up to `drainS` past the last due time.
std::vector<Outcome> runOpenLoop(std::uint16_t port,
                                 const std::vector<Request>& traffic,
                                 int connections, double drainS) {
  std::vector<Outcome> out(traffic.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  for (std::size_t i = 0; i < traffic.size(); ++i)
    out[i].due = out[i].sent = at(traffic[i].dueS);
  std::vector<std::thread> threads;
  std::mutex errorMutex;
  std::string error;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::vector<std::size_t> mine;
        for (std::size_t i = static_cast<std::size_t>(c); i < traffic.size();
             i += static_cast<std::size_t>(connections))
          mine.push_back(i);
        if (mine.empty()) return;
        const Socket socket(connectLoopback(port));
        const int fd = socket.fd;
        const Clock::time_point giveUp =
            at(traffic[mine.back()].dueS + drainS);
        std::size_t next = 0, received = 0;
        std::string buffer;
        while (received < mine.size()) {
          Clock::time_point now = Clock::now();
          Clock::time_point wake = giveUp;
          if (next < mine.size()) {
            const Clock::time_point due = at(traffic[mine[next]].dueS);
            if (now >= due) {
              Outcome& o = out[mine[next]];
              sendAll(fd, traffic[mine[next]].line + "\n");
              o.sent = Clock::now();
              ++next;
              continue;
            }
            wake = due;
          } else if (now >= giveUp) {
            break;
          }
          const auto waitNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::min(wake - now, Clock::duration(
                                                           std::chrono::milliseconds(50))))
                                  .count();
          timespec ts{static_cast<time_t>(waitNs / 1000000000),
                      static_cast<long>(waitNs % 1000000000)};
          pollfd pfd{fd, POLLIN, 0};
          if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
          char chunk[65536];
          const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
          if (n <= 0) {
            if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
            break;
          }
          const Clock::time_point got = Clock::now();
          buffer.append(chunk, static_cast<std::size_t>(n));
          std::size_t eol;
          while ((eol = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, eol);
            buffer.erase(0, eol + 1);
            Outcome& o = out.at(responseIndex(line));
            o.received = got;
            o.answered = true;
            o.response = std::move(line);
            ++received;
          }
        }
      } catch (const std::exception& e) {
        const std::scoped_lock lock(errorMutex);
        error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!error.empty()) throw std::runtime_error("load generator: " + error);
  return out;
}

bool isOk(const std::string& response) {
  return response.find("\"ok\": true") != std::string::npos;
}

/// Highest percentile of a fixed ladder with at least ten samples beyond
/// it, as run.py reports it.
double tailOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double q = 0.5;
  for (const double c : {0.75, 0.9, 0.95, 0.99, 0.999})
    if (n * (1.0 - c) >= 10.0) q = c;
  return v[std::min(v.size() - 1, static_cast<std::size_t>(q * n))];
}

double medianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct LoopSummary {
  std::vector<double> latencies; ///< answered ok, from due time
  std::int64_t attempted = 0, failed = 0;
  double lateMaxMs = 0.0, lateP99Ms = 0.0, drainMs = 0.0;
  double wallS = 0.0; ///< first due time to last answer
};

LoopSummary summarise(const std::vector<Outcome>& outcomes) {
  LoopSummary s;
  std::vector<double> late;
  Clock::time_point lastDue{}, lastReceived{};
  Clock::time_point firstDue = outcomes.empty() ? Clock::time_point{}
                                                : outcomes.front().due;
  for (const Outcome& o : outcomes) {
    ++s.attempted;
    late.push_back(msBetween(o.due, o.sent));
    lastDue = std::max(lastDue, o.due);
    if (!o.answered || !isOk(o.response)) {
      ++s.failed;
      continue;
    }
    lastReceived = std::max(lastReceived, o.received);
    s.latencies.push_back(msBetween(o.due, o.received));
  }
  std::sort(late.begin(), late.end());
  if (!late.empty()) {
    s.lateMaxMs = late.back();
    s.lateP99Ms = late[static_cast<std::size_t>(0.99 * static_cast<double>(late.size() - 1))];
  }
  s.drainMs = msBetween(lastDue, lastReceived);
  s.wallS = msBetween(firstDue, std::max(lastDue, lastReceived)) / 1000.0;
  return s;
}

struct Daemon {
  explicit Daemon(const cawo::ServeOptions& options)
      : server(options), listener(server, 0) {}
  ~Daemon() {
    server.drain();
    listener.stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  cawo::ServeServer server;
  cawo::TcpServeListener listener;
};

cawo::JsonValue statsFull(cawo::ServeServer& server) {
  std::string response;
  server.submitLine("{\"kind\":\"stats\",\"detail\":\"full\"}",
                    [&](const std::string& line) { response = line; });
  return cawo::JsonValue::parse(response).at("result");
}

struct ClientInstance {
  cawo::Instance instance;
  cawo::Cost lowerBound = 0;
  cawo::Cost asapCost = 0;
};

} // namespace

void runServeSkewed(const Config& config, Report& report) {
  const Params& p = config.params;
  ServeWorkload w;
  w.algo = p.get("algo");
  w.policy = p.get("policy");
  w.replayEvery = static_cast<std::size_t>(p.getInt("replay-every"));
  w.runtimeNoise = p.getDouble("runtime-noise");
  w.forecastNoise = p.getDouble("forecast-noise");
  w.timeoutMs = p.getInt("timeout-ms");
  w.connections = static_cast<int>(p.getInt("connections"));
  const std::vector<std::string> families = p.getList("families");
  const std::vector<std::string> scenarios = p.getList("scenarios");
  const std::size_t distinct = static_cast<std::size_t>(p.getInt("distinct"));
  for (std::size_t k = 0; k < distinct; ++k) {
    cawo::InstanceSpec spec;
    spec.family = cawo::familyFromName(families[k % families.size()]);
    spec.targetTasks = static_cast<int>(p.getInt("tasks"));
    spec.nodesPerType = static_cast<int>(p.getInt("nodes-per-type"));
    spec.numIntervals = static_cast<int>(p.getInt("intervals"));
    spec.scenario = scenarios[k % scenarios.size()];
    spec.deadlineFactor = k % 2 == 0 ? 1.5 : 2.0;
    spec.seed = 1 + k; // a fixed catalogue; the seed drives the traffic
    w.instances.push_back(spec);
  }
  const double zipfS = p.getDouble("zipf-s");
  double total = 0.0;
  for (std::size_t k = 0; k < distinct; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipfS);
    w.zipfCdf.push_back(total);
  }
  for (double& c : w.zipfCdf) c /= total;

  cawo::ServeOptions options;
  options.workers = static_cast<unsigned>(p.getInt("workers"));
  options.queueCapacity = static_cast<std::size_t>(p.getInt("queue-capacity"));
  options.cacheCapacity = static_cast<std::size_t>(p.getInt("cache-capacity"));
  options.solverDefaults.setInt("block-size", p.getInt("block-size"));
  options.solverDefaults.setInt("ls-radius", p.getInt("ls-radius"));
  const double rate = p.getDouble("rate");
  const double requests = p.getDouble("requests");
  const double drainS = p.getDouble("drain-s");

  // Set-up: start the daemon and its loopback listener, then warm its
  // context cache with one solve on each of the hottest instances.
  const std::size_t warm = static_cast<std::size_t>(p.getInt("warm-entries"));
  std::unique_ptr<Daemon> daemon;
  timeSetup(report, 5, [&] {
    daemon.reset();
    daemon = std::make_unique<Daemon>(options);
    for (std::size_t k = 0; k < std::min(warm, distinct); ++k)
      daemon->server.submitLine(requestLine(w, k, k, false),
                                [](const std::string&) {});
    daemon->server.drain();
  });

  struct Served {
    std::vector<Request> traffic;
    std::vector<Outcome> outcomes;
  };
  std::vector<Served> served;
  runPasses(config, report, [&](double, Report& r) {
    if (!daemon) daemon = std::make_unique<Daemon>(options);
    Served s;
    // The same traffic in every pass, so a traced pass is comparable with
    // an untraced one. The latency phase is a fixed number of requests;
    // the rest of the run's time goes to the SLO ladder.
    s.traffic = makeTraffic(w, mix(config.seed, 100), rate, requests / rate);
    s.outcomes = runOpenLoop(daemon->listener.port(), s.traffic,
                             w.connections, drainS);
    daemon->server.drain();
    const LoopSummary sum = summarise(s.outcomes);
    r.latenciesMs = sum.latencies;
    r.attempted += sum.attempted;
    r.failed += sum.failed;
    r.ops = static_cast<std::int64_t>(sum.latencies.size());
    r.measuredS = sum.wallS;
    // Median, not mean: a single stall would swamp the overhead estimate.
    r.perOpMs = medianOf(sum.latencies);
    r.extra["generator_late_p99_ms"] = sum.lateP99Ms;
    r.extra["generator_late_max_ms"] = sum.lateMaxMs;
    r.extra["offered_rate_rps"] = rate;

    std::size_t hot = 0;
    for (const Request& q : s.traffic)
      if (q.rank < options.cacheCapacity) ++hot;
    r.counters["serve.hot_share"] =
        static_cast<double>(hot) / static_cast<double>(std::max<std::size_t>(1, s.traffic.size()));
    const cawo::JsonValue stats = statsFull(daemon->server);
    const double hits = stats.at("cache_hits").asDouble();
    const double misses = stats.at("cache_misses").asDouble();
    r.counters["serve.cache.hit_ratio"] = hits / std::max(1.0, hits + misses);
    r.counters["serve.cache.evictions"] = stats.at("cache_evictions").asDouble();
    r.counters["serve.rejected"] = stats.at("rejected_queue_full").asDouble();
    r.counters["serve.timeouts"] = stats.at("timeouts").asDouble();
    r.counters["serve.queue_wait_p50_ms"] =
        stats.at("queue_wait").at("p50_ms").asDouble();
    r.counters["serve.queue_wait_tail_ms"] =
        stats.at("queue_wait").at("p99_ms").asDouble();
    double outside = 0.0;
    for (const Outcome& o : s.outcomes) {
      if (!o.answered || !isOk(o.response)) continue;
      const double serverMs =
          cawo::JsonValue::parse(o.response).at("result").at("total_ms").asDouble();
      outside += msBetween(o.due, o.received) - serverMs;
    }
    r.counters["unattributed_ms"] = outside;
    if (cawo::obs::traceRecording()) {
      // The parse layer, timed on exactly the lines this pass served.
      const cawo::RequestParser parser;
      for (const Request& q : s.traffic) {
        cawo::obs::TraceScope span("serve.parse");
        (void)parser.parse(q.line);
      }
    }
    served.push_back(std::move(s));
    if (config.trace) daemon.reset(); // each traced pass starts cold
  });

  if (!config.trace) {
    // slo_rate_rps: binary search over a fixed geometric ladder of offered
    // rates for the highest one whose tail latency meets the limit with
    // no failure and a backlog that drains within the limit.
    const double limitMs = p.getDouble("slo-limit-ms");
    const double base = p.getDouble("ladder-base-rps");
    const double step = p.getDouble("ladder-step");
    const int rungs = static_cast<int>(p.getInt("ladder-rungs"));
    // The probes share what the latency phase left of the run's time.
    const int probes = static_cast<int>(std::ceil(std::log2(rungs + 1.0)));
    const double probeS =
        std::max(0.3, (config.seconds - requests / rate) / std::max(1, probes));
    int lo = -1, hi = rungs; // lo passes (or none), hi fails (or none)
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double probeRate = base * std::pow(step, mid);
      const std::vector<Request> traffic = makeTraffic(
          w, mix(config.seed, 200 + static_cast<std::uint64_t>(mid)),
          probeRate, probeS);
      const std::vector<Outcome> outcomes =
          runOpenLoop(daemon->listener.port(), traffic, w.connections,
                      limitMs / 1000.0);
      daemon->server.drain();
      const LoopSummary sum = summarise(outcomes);
      const bool pass = sum.failed == 0 && tailOf(sum.latencies) <= limitMs &&
                        sum.drainMs <= limitMs;
      (pass ? lo : hi) = mid;
    }
    report.extra["slo_rate_rps"] = lo < 0 ? 0.0 : base * std::pow(step, lo);
    report.extra["slo_limit_ms"] = limitMs;
  }
  daemon.reset();

  // Output check: rebuild every instance that was requested on the client
  // side and confirm each returned schedule and cost.
  std::set<std::size_t> ranks;
  for (const Served& s : served)
    for (const Request& q : s.traffic) ranks.insert(q.rank);
  const std::vector<std::size_t> rankList(ranks.begin(), ranks.end());
  std::vector<std::unique_ptr<ClientInstance>> client(distinct);
  const cawo::SolverPtr asap = cawo::SolverRegistry::global().create("ASAP");
  cawo::parallelFor(rankList.size(), options.workers, [&](std::size_t k) {
    client[rankList[k]] = std::make_unique<ClientInstance>(
        ClientInstance{cawo::buildInstance(w.instances[rankList[k]]), 0, 0});
    ClientInstance& c = *client[rankList[k]];
    c.lowerBound = cawo::carbonLowerBound(c.instance.gc, c.instance.profile);
    cawo::SolveRequest request;
    request.gc = &c.instance.gc;
    request.profile = &c.instance.profile;
    request.deadline = c.instance.deadline;
    c.asapCost = asap->solve(request).cost;
  });
  std::set<std::size_t> costed;
  for (std::size_t pass = 0; pass < served.size(); ++pass) {
    const Served& s = served[pass];
    for (std::size_t i = 0; i < s.traffic.size(); ++i) {
      const Outcome& o = s.outcomes[i];
      if (!o.answered || !isOk(o.response)) continue;
      const Request& q = s.traffic[i];
      const ClientInstance& c = *client[q.rank];
      const cawo::JsonValue result = cawo::JsonValue::parse(o.response).at("result");
      const std::string what = "request r" + std::to_string(i) + " " +
                               c.instance.spec.label();
      if (q.replay) {
        // A replay that overran its deadline is an infeasible result: a
        // failed operation, not a wrong output.
        if (!result.at("deadline_met").asBool()) ++report.failed;
        if (result.at("resolves_accepted").asInt() > result.at("resolves").asInt())
          report.checkFailed(what + ": more accepted re-solves than attempts");
        continue;
      }
      if (!result.at("feasible").asBool()) {
        report.checkFailed(what + ": infeasible schedule");
        continue;
      }
      cawo::Schedule schedule(c.instance.gc.numNodes());
      const std::vector<cawo::JsonValue>& starts = result.at("schedule").asArray();
      if (starts.size() != static_cast<std::size_t>(c.instance.gc.numNodes())) {
        report.checkFailed(what + ": schedule has the wrong length");
        continue;
      }
      for (std::size_t u = 0; u < starts.size(); ++u)
        schedule.setStart(static_cast<cawo::TaskId>(u), starts[u].asInt());
      const cawo::Cost cost = result.at("cost").asInt();
      checkSchedule(report, c.instance.gc, c.instance.profile,
                    c.instance.deadline, schedule, cost, c.lowerBound, what);
      // The quality axis counts each hot instance (a rank the cache can
      // hold) once: every run requests all of them, so the axis does not
      // hinge on which rare instances the traffic happened to draw.
      if (pass == 0 && q.rank < options.cacheCapacity &&
          costed.insert(q.rank).second) {
        report.heuristicCost += static_cast<double>(cost);
        report.asapCost += static_cast<double>(c.asapCost);
      }
    }
  }
}

} // namespace perfbench
