// TCP transport integration tests over real sockets: the epoll event
// loop's framing contract (half-close answers the final un-terminated
// line), pipelined bursts whose total size exceeds the per-line limit,
// the hard connection cap, idle timeouts (on a SimClock — exact, no
// wall-clock waits), queue deadlines, Light misses run on the shard when
// no worker is idle, and graceful stop flushing.
// Linux-only, like the transport itself.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "serve_tcp_testlib.hpp"
#include "sim/clock.hpp"

namespace {

using namespace archline::serve;
using namespace serve_tcp_testlib;

const char* kPredict =
    R"({"type":"predict","platform":"GTX Titan","flops":1e9,"intensity":4})";

ServerOptions small_options() {
  ServerOptions o;
  o.threads = 2;
  o.queue_capacity = 64;
  o.cache_capacity = 128;
  o.cache_shards = 4;
  return o;
}

/// A distinct (cache-missing) predict tagged with `id`.
std::string predict_line(int id) {
  Json req = Json::object();
  req.set("type", "predict");
  req.set("platform", "GTX Titan");
  req.set("id", id);
  req.set("intensity", 1.0 + id);
  return req.dump();
}

TEST(ServeTcp, AnswersPipelinedRequestsInOrder) {
  TcpTransport transport(small_options(), TcpOptions{});
  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  std::string block;
  for (int i = 0; i < 20; ++i) block += predict_line(i) + "\n";
  ASSERT_TRUE(send_all(fd, block));
  const auto lines = read_lines(fd, 20);
  ASSERT_EQ(lines.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const Json body = Json::parse(lines[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(body.bool_or("ok", false));
    EXPECT_EQ(body.number_or("id", -1), i);  // FIFO order held
  }
  ::close(fd);
}

TEST(ServeTcp, HalfCloseStillAnswersFinalUnterminatedLine) {
  TcpTransport transport(small_options(), TcpOptions{});
  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  // One complete line, then a final request with no trailing newline,
  // then half-close the write side. Both must be answered.
  std::string block = std::string(kPredict) + "\n" +
                      R"({"type":"platforms"})";
  ASSERT_TRUE(send_all(fd, block));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const auto lines = read_lines(fd, 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(Json::parse(lines[0]).string_or("type", ""), "predict");
  EXPECT_EQ(Json::parse(lines[1]).string_or("type", ""), "platforms");
  EXPECT_TRUE(wait_for_eof(fd));  // server closes after the flush
  ::close(fd);
}

TEST(ServeTcp, PipelinedBurstBiggerThanLineLimitIsNotRejected) {
  // Regression: the old transport bounded TOTAL buffered bytes before
  // extracting lines, so a burst of small requests tripped "too_large".
  ServerOptions options = small_options();
  options.limits.max_request_bytes = 512;
  TcpTransport transport(options, TcpOptions{});
  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  std::string block;
  constexpr int kRequests = 64;  // ~70 bytes each: way past 2 * 512 total
  for (int i = 0; i < kRequests; ++i)
    block += std::string(kPredict) + "\n";
  ASSERT_GT(block.size(), 2 * options.limits.max_request_bytes);
  ASSERT_TRUE(send_all(fd, block));
  const auto lines = read_lines(fd, kRequests);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (const std::string& line : lines)
    EXPECT_TRUE(Json::parse(line).bool_or("ok", false));
  ::close(fd);
}

TEST(ServeTcp, UnterminatedOversizedLineGetsTooLargeThenClose) {
  ServerOptions options = small_options();
  options.limits.max_request_bytes = 512;
  TcpTransport transport(options, TcpOptions{});
  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  // A single "line" that never ends and exceeds the limit.
  const std::string endless(2048, 'x');
  ASSERT_TRUE(send_all(fd, endless));
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(Json::parse(lines[0]).string_or("error", ""), "too_large");
  EXPECT_TRUE(wait_for_eof(fd));
  ::close(fd);
}

TEST(ServeTcp, ConnectionCapAnswersOverloadedAndCloses) {
  TcpOptions tcp;
  tcp.max_connections = 2;
  TcpTransport transport(small_options(), tcp);
  const int fd1 = connect_to(transport.port());
  const int fd2 = connect_to(transport.port());
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  // Round-trips prove both are accepted (not just queued in the
  // backlog) before the third connect.
  ASSERT_TRUE(send_all(fd1, std::string(kPredict) + "\n"));
  ASSERT_TRUE(send_all(fd2, std::string(kPredict) + "\n"));
  ASSERT_EQ(read_lines(fd1, 1).size(), 1u);
  ASSERT_EQ(read_lines(fd2, 1).size(), 1u);

  const int fd3 = connect_to(transport.port());
  ASSERT_GE(fd3, 0);
  const auto rejected = read_lines(fd3, 1);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(Json::parse(rejected[0]).string_or("error", ""), "overloaded");
  EXPECT_TRUE(wait_for_eof(fd3));
  ::close(fd3);

  const auto snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.connections_accepted, 2u);
  EXPECT_EQ(snap.connections_rejected, 1u);
  EXPECT_EQ(snap.connections_open, 2u);
  ::close(fd1);
  ::close(fd2);
}

TEST(ServeTcp, CapFreesUpWhenAConnectionCloses) {
  TcpOptions tcp;
  tcp.max_connections = 1;
  TcpTransport transport(small_options(), tcp);
  const int fd1 = connect_to(transport.port());
  ASSERT_GE(fd1, 0);
  ASSERT_TRUE(send_all(fd1, std::string(kPredict) + "\n"));
  ASSERT_EQ(read_lines(fd1, 1).size(), 1u);
  ::close(fd1);
  // The slot is released once the loop notices the close; a new client
  // must eventually be admitted and served. Each attempt is a full
  // blocking round-trip, so retries are already paced by the loop —
  // no sleeping needed, just a wall-clock bound on the whole test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool served = false;
  while (!served && std::chrono::steady_clock::now() < deadline) {
    const int fd = connect_to(transport.port());
    ASSERT_GE(fd, 0);
    if (send_all(fd, std::string(kPredict) + "\n")) {
      const auto lines = read_lines(fd, 1);
      if (lines.size() == 1 &&
          Json::parse(lines[0]).bool_or("ok", false))
        served = true;
    }
    ::close(fd);
    if (!served) std::this_thread::yield();
  }
  EXPECT_TRUE(served);
}

TEST(ServeTcp, IdleConnectionIsClosedAndCounted) {
  // The idle timer runs on a SimClock: 60 s of simulated idleness is
  // one advance call, so the test proves "closed because idle", not
  // "closed because the test slept long enough". The poll interval is
  // real time — it only bounds how fast the loop notices.
  archline::sim::SimClock clock;
  TcpOptions tcp;
  tcp.idle_timeout_ms = 60'000;
  tcp.poll_interval_ms = 5;
  tcp.clock = &clock;
  TcpTransport transport(small_options(), tcp);
  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  // Activity first, so the close below is provably the idle timer —
  // and proof the connection survives while sim time stands still.
  ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);
  clock.advance_ms(60'001);  // one tick past the limit
  EXPECT_TRUE(wait_for_eof(fd));  // blocks until the sweep fires
  ::close(fd);
  const auto snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.connections_idle_closed, 1u);
  EXPECT_EQ(snap.connections_open, 0u);
}

/// Real sockets, but every sendv() advances the SimClock by `advance_ms`
/// before returning — the schedule where the peer reads its reply and
/// moves time on while the loop is still inside the syscall.
class ClockAdvancingSendOps final : public SocketOps {
 public:
  ClockAdvancingSendOps(archline::sim::SimClock& clock, std::int64_t advance_ms)
      : clock_(clock), advance_ms_(advance_ms) {}

  ssize_t sendv(int fd, const struct iovec* iov, int iovcnt) noexcept override {
    const ssize_t n = real_socket_ops().sendv(fd, iov, iovcnt);
    clock_.advance_ms(advance_ms_);
    return n;
  }

 private:
  archline::sim::SimClock& clock_;
  std::int64_t advance_ms_;
};

TEST(ServeTcp, IdleTimerStartsBeforeTheReplyIsSent) {
  // Regression: flush() stamped last_activity after sendv(), so time
  // that passed during the send restarted the idle timer, and with the
  // clock then standing still the connection never expired.
  archline::sim::SimClock clock;
  ClockAdvancingSendOps ops(clock, 60'001);
  TcpOptions tcp;
  tcp.idle_timeout_ms = 60'000;
  tcp.poll_interval_ms = 5;
  tcp.clock = &clock;
  tcp.socket_ops = &ops;
  TcpTransport transport(small_options(), tcp);
  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);
  EXPECT_TRUE(wait_for_eof(fd));  // the reply's send already idled it out
  ::close(fd);
  EXPECT_EQ(transport.server().metrics().snapshot().connections_idle_closed,
            1u);
}

/// A calibration fit over `n` synthetic observations; `salt` keeps the
/// request bytes (and so the cache key) distinct.
std::string fit_line(int n, int salt) {
  Json obs = Json::array();
  for (int p = 0; p < n; ++p) {
    Json row = Json::object();
    row.set("flops", 1e9 + salt);
    row.set("bytes", 1e9 / (1.0 + p % 37));
    row.set("seconds", 1e-3 * (1 + p % 11));
    row.set("joules", 1e-1 * (1 + p % 7));
    obs.push_back(std::move(row));
  }
  Json fit = Json::object();
  fit.set("type", "fit");
  fit.set("observations", std::move(obs));
  return fit.dump();
}

/// Holds one worker of `server` inside a fit's completion callback until
/// release() (or destruction): while held, that worker is busy, so the
/// pool is saturated without any timing assumption. Declare it after the
/// transport, so it lets go before the server shuts down.
class WorkerHold {
 public:
  explicit WorkerHold(Server& server) {
    std::future<void> holding = holding_.get_future();
    EXPECT_TRUE(server.submit(fit_line(8, -1), [this](std::string&&) {
      holding_.set_value();
      release_signal_.wait();
    }));
    holding.wait();
  }
  ~WorkerHold() { release(); }
  WorkerHold(const WorkerHold&) = delete;
  WorkerHold& operator=(const WorkerHold&) = delete;

  void release() {
    if (released_) return;
    released_ = true;
    release_.set_value();
  }

 private:
  std::promise<void> holding_;
  std::promise<void> release_;
  std::future<void> release_signal_ = release_.get_future();
  bool released_ = false;
};

/// Spins (yielding, never sleeping) until `done()` holds; false when it
/// has not after 30 s.
template <typename Pred>
bool spin_until(Pred done) {
  const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > limit) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ServeTcp, QueueWaitPastDeadlineAnswersDeadlineExceeded) {
  // One worker, held by a fit; a second fit arrives over TCP with a 1 ms
  // heavy deadline and waits in the heavy lane. Simulated time passes the
  // deadline before the worker is let go, so the queued fit must come
  // back deadline_exceeded instead of running.
  archline::sim::SimClock clock;
  ServerOptions options = small_options();
  options.threads = 1;
  options.heavy_deadline_ms = 1;
  options.clock = &clock;
  TcpTransport transport(options, TcpOptions{});
  Server& server = transport.server();
  WorkerHold hold(server);

  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, fit_line(64, 1) + "\n"));
  ASSERT_TRUE(spin_until([&] {
    return server.metrics().snapshot().lanes[kHeavyLane].depth == 1;
  }));
  clock.advance_ms(2);
  hold.release();
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(Json::parse(lines[0]).string_or("error", ""), "deadline_exceeded");
  ::close(fd);
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.lanes[kHeavyLane].deadline_exceeded, 1u);
  EXPECT_EQ(snap.deadline_exceeded, 1u);
}

TEST(ServeTcp, SaturatedPoolRunsLightMissesOnTheShardInOrder) {
  // The only worker is busy, and a fit from this connection waits in the
  // heavy lane. The pipelined predicts behind it cannot wait for a
  // worker: the shard evaluates them itself, and their replies keep
  // their FIFO slots behind the fit's.
  ServerOptions options = small_options();
  options.threads = 1;
  TcpTransport transport(options, TcpOptions{});
  Server& server = transport.server();
  WorkerHold hold(server);
  ASSERT_EQ(server.idle_workers(), 0);

  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  constexpr int kPredicts = 12;
  std::string block = fit_line(8, 2) + "\n";
  for (int i = 0; i < kPredicts; ++i) block += predict_line(i) + "\n";
  ASSERT_TRUE(send_all(fd, block));
  ASSERT_TRUE(spin_until([&] {
    return server.metrics().snapshot().executed_inline ==
           static_cast<std::uint64_t>(kPredicts);
  }));
  hold.release();

  const auto lines = read_lines(fd, 1 + kPredicts);
  ASSERT_EQ(lines.size(), 1u + kPredicts);
  EXPECT_EQ(Json::parse(lines[0]).string_or("type", ""), "fit") << lines[0];
  for (int i = 0; i < kPredicts; ++i) {
    const Json body = Json::parse(lines[static_cast<std::size_t>(i) + 1]);
    EXPECT_TRUE(body.bool_or("ok", false)) << i;
    EXPECT_EQ(body.number_or("id", -1), i);  // request order held
  }
  ::close(fd);
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.shards[0].executed_inline,
            static_cast<std::uint64_t>(kPredicts));
  EXPECT_EQ(snap.shards[0].cached_inline, 0u);
  EXPECT_EQ(snap.lanes[kLightLane].peak, 0u) << "a predict was queued";
}

TEST(ServeTcp, IdleWorkerTakesALightMiss) {
  // With the worker idle, a Light miss keeps the pool path: it is queued
  // on the light lane and the shard runs nothing itself.
  ServerOptions options = small_options();
  options.threads = 1;
  TcpTransport transport(options, TcpOptions{});
  Server& server = transport.server();
  ASSERT_EQ(server.idle_workers(), 1);

  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  std::string reply;
  ASSERT_TRUE(archline::sim::request_once(fd, kPredict, reply));
  EXPECT_TRUE(Json::parse(reply).bool_or("ok", false)) << reply;
  ::close(fd);
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.executed_inline, 0u);
  EXPECT_EQ(snap.lanes[kLightLane].peak, 1u);
}

TEST(ServeTcp, InlineErrorReplyKeepsItsFifoSlot) {
  // A Light request that fails is answered on the shard like any other
  // inline miss: its bad_request reply waits behind the in-flight fit's
  // and ahead of the predict pipelined after it.
  ServerOptions options = small_options();
  options.threads = 1;
  TcpTransport transport(options, TcpOptions{});
  Server& server = transport.server();
  WorkerHold hold(server);

  const int fd = connect_to(transport.port());
  ASSERT_GE(fd, 0);
  const std::string block = fit_line(8, 3) + "\n" +
                            R"({"type":"predict","intensity":4})" "\n" +
                            predict_line(7) + "\n";
  ASSERT_TRUE(send_all(fd, block));
  ASSERT_TRUE(spin_until(
      [&] { return server.metrics().snapshot().executed_inline == 2u; }));
  hold.release();

  const auto lines = read_lines(fd, 3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(Json::parse(lines[0]).string_or("type", ""), "fit") << lines[0];
  EXPECT_EQ(Json::parse(lines[1]).string_or("error", ""), "bad_request")
      << lines[1];
  EXPECT_EQ(Json::parse(lines[2]).number_or("id", -1), 7) << lines[2];
  ::close(fd);
}

TEST(ServeTcp, GracefulStopFlushesAdmittedWork) {
  // Submit a batch, then immediately tear the transport down; every
  // admitted request must still be answered before the socket closes.
  auto transport =
      std::make_unique<TcpTransport>(small_options(), TcpOptions{});
  const int fd = connect_to(transport->port());
  ASSERT_GE(fd, 0);
  constexpr int kRequests = 16;
  std::string block;
  for (int i = 0; i < kRequests; ++i)
    block += std::string(kPredict) + "\n";
  ASSERT_TRUE(send_all(fd, block));
  // The first response proves the loop consumed the whole block (one
  // localhost segment, read in one 64 KiB recv), i.e. all kRequests are
  // admitted. Then destruction stops the loop; the admitted work must
  // still be answered and flushed before the connection closes.
  std::string carry;
  ASSERT_EQ(read_lines(fd, 1, &carry).size(), 1u);
  std::thread teardown([&] { transport.reset(); });
  const auto rest = read_lines(fd, kRequests - 1, &carry);
  teardown.join();
  EXPECT_EQ(rest.size(), static_cast<std::size_t>(kRequests - 1));
  ::close(fd);
}

TEST(ServeTcp, ManyConcurrentConnections) {
  // 32 sockets, interleaved writes, all answered; the transport runs on
  // one loop thread regardless.
  ServerOptions options = small_options();
  options.queue_capacity = 1024;  // headroom: no legitimate overloads
  TcpTransport transport(options, TcpOptions{});
  constexpr int kConns = 32;
  constexpr int kPerConn = 8;
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    const int fd = connect_to(transport.port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  for (int r = 0; r < kPerConn; ++r)
    for (const int fd : fds)
      ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
  for (const int fd : fds) {
    const auto lines = read_lines(fd, kPerConn);
    EXPECT_EQ(lines.size(), static_cast<std::size_t>(kPerConn));
    for (const std::string& line : lines)
      EXPECT_TRUE(Json::parse(line).bool_or("ok", false));
    ::close(fd);
  }
  const auto snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.connections_accepted, static_cast<std::uint64_t>(kConns));
}

}  // namespace
