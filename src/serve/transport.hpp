#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/server.hpp"

/// \file transport.hpp
/// Byte movers for the serve daemon: both transports speak the same
/// newline-delimited `cawosched-serve-v1` protocol against one shared
/// `ServeServer` — a request line in, a response line out, responses
/// possibly out of order (correlated by `id`).
///
/// * `runStdioServe` pumps an istream/ostream pair (the CLI wires
///   stdin/stdout) on the calling thread until EOF or daemon shutdown.
/// * `TcpServeListener` accepts local TCP connections (127.0.0.1 only —
///   this is a workstation-local service, not a network daemon) and pumps
///   each on its own reader thread. Port 0 binds an ephemeral port;
///   `port()` reports the real one. Accepted sockets set `TCP_NODELAY`,
///   so each response leaves the moment it is written, and a line that
///   outgrows `ServeOptions::maxRequestBytes` before its newline is
///   answered `oversized` and closes the connection.
///
/// Both transports serialise their own output writes; blank input lines
/// are ignored (so interactive `netcat` sessions can add breathing room).

namespace cawo {

/// Read request lines from `in` until EOF or `server.stopping()`,
/// submitting each and writing responses (one per line) to `out`.
/// Before returning, drains the server so every response for a line read
/// here has been written — the caller can close the stream immediately.
void runStdioServe(ServeServer& server, std::istream& in, std::ostream& out);

/// Loopback TCP listener: binds 127.0.0.1:`port` in the constructor
/// (throws PreconditionError when the bind fails) and serves connections
/// on background threads until `stop()`/destruction.
class TcpServeListener {
public:
  TcpServeListener(ServeServer& server, std::uint16_t port);
  ~TcpServeListener();

  TcpServeListener(const TcpServeListener&) = delete;
  TcpServeListener& operator=(const TcpServeListener&) = delete;

  /// The bound port (the ephemeral one when constructed with port 0).
  std::uint16_t port() const { return port_; }

  /// Stop accepting, unblock and join every connection thread. Responses
  /// already handed to a connection are flushed; call `server.drain()`
  /// first if in-flight jobs must still deliver theirs. Idempotent.
  void stop();

private:
  /// One accepted connection: the fd plus a write lock. The reader thread
  /// and every in-flight responder hold a shared_ptr; the fd closes when
  /// the last of them lets go, so a connection whose reader has ended
  /// still delivers its pending responses, then closes (no fd-reuse
  /// hazard).
  struct Conn {
    explicit Conn(int f) : fd(f) {}
    ~Conn();
    int fd;
    std::mutex writeMutex;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  static void writeLine(const ConnPtr& conn, const std::string& line);
  void acceptLoop();
  void connectionLoop(ConnPtr conn);

  ServeServer& server_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopRequested_{false};
  std::thread acceptThread_;
  std::mutex connMutex_;
  std::vector<std::weak_ptr<Conn>> conns_; ///< for stop()'s shutdown
  std::vector<std::thread> connThreads_;
  bool stopped_ = false;
};

} // namespace cawo
