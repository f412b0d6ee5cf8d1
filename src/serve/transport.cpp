#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "util/require.hpp"

namespace cawo {

namespace {

bool blankLine(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

} // namespace

void runStdioServe(ServeServer& server, std::istream& in, std::ostream& out) {
  // Workers respond concurrently; one mutex keeps response lines whole.
  std::mutex outMutex;
  std::string line;
  while (!server.stopping() && std::getline(in, line)) {
    if (blankLine(line)) continue;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    server.submitLine(line, [&outMutex, &out](const std::string& response) {
      const std::scoped_lock lock(outMutex);
      out << response << '\n' << std::flush;
    });
  }
  // The responders above borrow this frame's stream and mutex — every
  // admitted job must finish before they go out of scope.
  server.drain();
}

TcpServeListener::Conn::~Conn() { ::close(fd); }

TcpServeListener::TcpServeListener(ServeServer& server, std::uint16_t port)
    : server_(server) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  CAWO_REQUIRE(listenFd_ >= 0,
               std::string("cannot create socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    CAWO_REQUIRE(false, "cannot bind 127.0.0.1:" + std::to_string(port) +
                            ": " + why);
  }
  if (::listen(listenFd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    CAWO_REQUIRE(false, "cannot listen on 127.0.0.1:" +
                            std::to_string(port) + ": " + why);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  CAWO_REQUIRE(::getsockname(listenFd_,
                             reinterpret_cast<sockaddr*>(&bound), &len) == 0,
               std::string("getsockname failed: ") + std::strerror(errno));
  port_ = ntohs(bound.sin_port);

  acceptThread_ = std::thread([this] { acceptLoop(); });
}

TcpServeListener::~TcpServeListener() { stop(); }

void TcpServeListener::stop() {
  {
    const std::scoped_lock lock(connMutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopRequested_.store(true);
  if (acceptThread_.joinable()) acceptThread_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  // Unblock every reader stuck in recv, then join. The fds stay open
  // until the last responder drops its ConnPtr.
  {
    const std::scoped_lock lock(connMutex_);
    for (const std::weak_ptr<Conn>& weak : conns_)
      if (const ConnPtr conn = weak.lock()) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (std::thread& t : connThreads_) t.join();
  connThreads_.clear();
  conns_.clear();
}

void TcpServeListener::writeLine(const ConnPtr& conn,
                                 const std::string& line) {
  const std::scoped_lock lock(conn->writeMutex);
  std::string payload = line;
  payload.push_back('\n');
  const char* data = payload.data();
  std::size_t left = payload.size();
  while (left > 0) {
    const ssize_t n = ::send(conn->fd, data, left, MSG_NOSIGNAL);
    if (n <= 0) return; // peer gone — the response is undeliverable
    data += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
}

void TcpServeListener::acceptLoop() {
  // Poll with a short timeout so stop() never races a blocked accept.
  while (!stopRequested_.load()) {
    pollfd pfd{};
    pfd.fd = listenFd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Responses are whole lines written the moment they are ready; with
    // Nagle on, a small one would wait for the peer's delayed ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(fd);
    const std::scoped_lock lock(connMutex_);
    if (stopped_) {
      ::shutdown(fd, SHUT_RDWR);
      continue; // conn's destructor closes the fd
    }
    conns_.push_back(conn);
    connThreads_.emplace_back(
        [this, conn = std::move(conn)] { connectionLoop(conn); });
  }
}

void TcpServeListener::connectionLoop(ConnPtr conn) {
  const auto respond = [conn](const std::string& response) {
    writeLine(conn, response);
  };
  // A request line may carry one '\r' past the cap. A partial line longer
  // than that can never parse: it is answered `oversized` and the
  // connection closed, so a peer that never sends '\n' cannot grow the
  // buffer without bound.
  const std::size_t maxPartial = server_.maxRequestBytes() + 1;
  std::string buffer;
  std::size_t scanned = 0; // prefix of `buffer` known to hold no '\n'
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break; // EOF, error, or stop()'s shutdown
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol;
    while ((eol = buffer.find('\n', scanned)) != std::string::npos) {
      std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      scanned = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (blankLine(line)) continue;
      server_.submitLine(line, respond);
    }
    scanned = buffer.size();
    if (buffer.size() > maxPartial) {
      server_.submitLine(buffer, respond);
      break;
    }
  }
}

} // namespace cawo
