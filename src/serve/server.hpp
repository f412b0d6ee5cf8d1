#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/context_cache.hpp"
#include "serve/protocol.hpp"
#include "solver/solver.hpp"
#include "util/parallel.hpp"

/// \file server.hpp
/// The transport-independent serve daemon core (see DESIGN.md,
/// "Scheduler-as-a-service").
///
/// `ServeServer` owns the admission queue + worker pool (`WorkerPool`) and
/// the `SolveContext` LRU cache (`ContextCache`), and turns one request
/// line into one response line. Transports (stdin/stdout, the TCP
/// listener — src/serve/transport.hpp) only move bytes: they feed lines to
/// `submitLine` with a callback that receives the response line whenever
/// it is ready. Cheap requests (`list`, `stats`, `shutdown`) are answered
/// inline on the submitting thread; `solve`/`replay` go through the
/// bounded queue and are answered from a worker thread — possibly out of
/// order, correlated by the echoed `id`.
///
/// Backpressure: when the queue is at capacity the request is rejected
/// immediately with error code "queue_full" — the daemon never blocks the
/// reader and never buffers unboundedly. Per-request deadlines
/// (`timeout_ms`) are enforced cooperatively: the deadline is checked when
/// a worker picks the job up and again after the (possibly slow) instance
/// acquisition, so an expired request is dropped with "timeout" before
/// the solve starts rather than preempted mid-solve.

namespace cawo {

/// Daemon configuration, shared by every transport.
struct ServeOptions {
  unsigned workers = 0;          ///< worker threads; 0 = hardware
  std::size_t queueCapacity = 64; ///< pending solve/replay jobs
  std::size_t cacheCapacity = 16; ///< cached SolveContext entries
  std::int64_t defaultTimeoutMs = 0; ///< for requests without timeout_ms
  std::size_t maxRequestBytes = 1 << 20;
  /// Baseline solver options merged under every request's "options" bag
  /// (the request wins on conflicts) — the CLI seeds block-size/ls-radius
  /// here so serve solves match single-run solves by default.
  SolverOptions solverDefaults;
  /// Test instrumentation: invoked on the worker thread at the start of
  /// every queued job, before the timeout check. Tests block here to pin
  /// queue_full / timeout behaviour deterministically. Null in production.
  std::function<void()> workerStartHook;
};

/// Aggregate daemon statistics — the `stats` request's `result` object.
struct ServeStats {
  std::int64_t received = 0;  ///< lines submitted (any kind)
  std::int64_t completed = 0; ///< solve/replay answered ok
  std::int64_t failed = 0;    ///< error responses (excl. the next two)
  std::int64_t rejectedQueueFull = 0;
  std::int64_t timeouts = 0;
  std::size_t queueDepth = 0;
  std::size_t queueCapacity = 0;
  unsigned workers = 0;
  std::size_t busy = 0;
  ContextCache::Counters cache;
  /// Completed solve/replay end-to-end latencies (queue wait + work).
  struct Latency {
    std::int64_t count = 0;
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    double maxMs = 0.0;
  } latency;

  // `detail:"full"` additions (obs layer; see docs/observability.md).
  // The wire response appends these after the byte-stable basic keys.
  Latency queueWait;                        ///< admission → pickup waits
  std::vector<double> latencyBoundsMs;      ///< histogram bucket bounds
  std::vector<std::int64_t> latencyBuckets; ///< bounds.size()+1 counts
  std::vector<std::int64_t> queueWaitBuckets;
};

/// The daemon core. Thread-safe: `submitLine` may be called from several
/// transport threads at once, and responders are invoked from worker
/// threads — a transport sharing one output stream must serialise its
/// responder itself.
class ServeServer {
public:
  /// One response line (no trailing newline), ready to ship.
  using Responder = std::function<void(const std::string&)>;

  explicit ServeServer(const ServeOptions& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Process one request line. Always produces exactly one response
  /// through `respond` — inline for list/stats/shutdown and every
  /// rejection, from a worker thread for admitted solve/replay jobs.
  void submitLine(const std::string& line, Responder respond);

  /// A `shutdown` request was processed (or `requestStop` was called).
  bool stopping() const;
  /// Block until `stopping()` — transports park their accept loop here.
  void waitUntilStopping();
  /// Programmatic shutdown (SIGTERM handling, tests).
  void requestStop();

  /// Wait for every admitted job to finish (responses delivered).
  void drain();

  ServeStats stats() const;

  /// The request-line cap (`ServeOptions::maxRequestBytes`).
  std::size_t maxRequestBytes() const { return options_.maxRequestBytes; }

private:
  using Clock = std::chrono::steady_clock;

  void runSolveJob(const ServeRequest& request, const Responder& respond,
                   Clock::time_point admitted, Clock::time_point deadline);
  void runReplayJob(const ServeRequest& request, const Responder& respond,
                    Clock::time_point admitted, Clock::time_point deadline);
  /// Checks the cooperative deadline; responds "timeout" and returns true
  /// when expired.
  bool expired(Clock::time_point deadline, const ServeRequest& request,
               const Responder& respond);
  SolverOptions mergedOptions(const SolverOptions& requestOptions) const;
  void respondError(const Responder& respond, const std::string& id,
                    const std::string& kind, const std::string& code,
                    const std::string& message);

  ServeOptions options_;
  RequestParser parser_;
  ContextCache cache_;
  WorkerPool pool_;

  mutable std::mutex statsMutex_;
  std::int64_t received_ = 0, completed_ = 0, failed_ = 0;
  std::int64_t rejectedQueueFull_ = 0, timeouts_ = 0;
  /// Exact-sample histograms (obs::Histogram) — the percentile values are
  /// byte-stable with the former hand-rolled nearest-rank code.
  obs::Histogram latency_;
  obs::Histogram queueWait_;

  mutable std::mutex stopMutex_;
  std::condition_variable stopCv_;
  bool stopping_ = false;
};

} // namespace cawo
