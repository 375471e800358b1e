#pragma once
// The one blocking TCP line client of the serve stack, and the
// in-process server fixture it usually talks to.
//
// Client: plain functions over a connected fd, newline framing as in
// the protocol. connect_to() sets TCP_NODELAY and a fixed, generous
// receive and send deadline (kLoopbackDeadlineMs) on the socket, so a
// lost reply or a peer that never reads fails the caller instead of
// hanging it. serve_loadgen's pipelined multiplexer connects through
// connect_to() too, then switches the fd to non-blocking.
//
// Fixture: LoopbackServer is a started serve::Server plus a
// serve::TcpListener on an ephemeral port with its event loop on its
// own thread. Destruction stops the loop (which drains every admitted
// request), joins it and shuts the server down, so each user also
// exercises the drain path. Linux-only, like the transport itself.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/tcp.hpp"

namespace archline::sim {

/// Receive and send deadline on every socket connect_to() opens.
inline constexpr int kLoopbackDeadlineMs = 30'000;

/// Connects a blocking socket to host:port; -1 on failure.
[[nodiscard]] int connect_to(std::uint16_t port,
                             const std::string& host = "127.0.0.1");

/// Sends every byte of `data`; false when the connection failed or the
/// send deadline passed.
bool send_all(int fd, std::string_view data);

/// Reads until `count` newline-terminated lines arrived, the peer
/// closed, or the receive deadline passed; returns the lines (without
/// their newlines). Extracts at most `count` lines: bytes past them
/// stay in `carry` for a later call (pass the same string when reading
/// one pipelined reply stream across calls).
std::vector<std::string> read_lines(int fd, std::size_t count,
                                    std::string* carry = nullptr);

/// One request line, one reply line; false on failure.
bool request_once(int fd, std::string_view line,
                  std::string& reply);

/// Reads until EOF; true when the peer closed cleanly, false on error
/// or when the receive deadline passed first.
[[nodiscard]] bool wait_for_eof(int fd);

class LoopbackServer {
 public:
  /// Starts the server and opens the listener (tcp_options.port is
  /// forced to 0); the loop runs only when opened() is true.
  LoopbackServer(const serve::ServerOptions& server_options,
                 serve::TcpOptions tcp_options);
  ~LoopbackServer();

  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  [[nodiscard]] bool opened() const noexcept { return opened_; }
  /// Why open() failed (empty when it did not).
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::uint16_t port() const { return listener_->port(); }
  [[nodiscard]] serve::Server& server() noexcept { return *server_; }

  /// Asks the loop to stop without waiting for it; it drains and
  /// returns on its next wake.
  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }
  /// True once the loop has returned.
  [[nodiscard]] bool loop_done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::TcpListener> listener_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::thread loop_;
  std::string error_;
  bool opened_ = false;
};

}  // namespace archline::sim
