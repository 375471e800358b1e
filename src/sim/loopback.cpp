#include "sim/loopback.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace archline::sim {

int connect_to(std::uint16_t port, const std::string& host) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const timeval deadline{kLoopbackDeadlineMs / 1000,
                         (kLoopbackDeadlineMs % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof deadline);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof deadline);
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::vector<std::string> read_lines(int fd, std::size_t count,
                                    std::string* carry) {
  std::vector<std::string> lines;
  std::string local;
  std::string& buffer = carry ? *carry : local;
  char chunk[65536];
  for (;;) {
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && lines.size() < count;
         nl = buffer.find('\n', start)) {
      lines.push_back(buffer.substr(start, nl - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (lines.size() >= count) break;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or the receive deadline
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return lines;
}

bool request_once(int fd, std::string_view line, std::string& reply) {
  std::string framed(line);
  framed += '\n';
  if (!send_all(fd, framed)) return false;
  std::vector<std::string> lines = read_lines(fd, 1);
  if (lines.empty()) return false;
  reply = std::move(lines.front());
  return true;
}

bool wait_for_eof(int fd) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return true;
    if (n < 0 && errno != EINTR) return false;
  }
}

LoopbackServer::LoopbackServer(const serve::ServerOptions& server_options,
                               serve::TcpOptions tcp_options)
    : server_(std::make_unique<serve::Server>(server_options)) {
  server_->start();
  tcp_options.port = 0;
  listener_ = std::make_unique<serve::TcpListener>(*server_, tcp_options);
  opened_ = listener_->open(&error_);
  if (opened_)
    loop_ = std::thread([this] {
      listener_->run(stop_);
      done_.store(true, std::memory_order_release);
    });
}

LoopbackServer::~LoopbackServer() {
  request_stop();
  if (loop_.joinable()) loop_.join();
  server_->shutdown();
}

}  // namespace archline::sim
