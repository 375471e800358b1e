#pragma once
// The closed-loop, pipelined TCP client and the server process it drives.
//
// One client thread owns every connection. Each connection keeps at most
// `depth` requests outstanding and sends the next one as soon as a reply
// frees a slot, so a slow server receives less load (the system's
// clients — control loops and calibration uploaders — wait for replies).
// Replies are matched to requests in per-connection FIFO order and every
// one is checked.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// archline_serverd as a child process: ready when it prints its
/// "listening on 127.0.0.1:PORT" line (it is started with --port 0).
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool start(const std::string& path, const std::vector<std::string>& args,
             const std::vector<int>& cpus, std::string& error);
  /// SIGTERM, drain its stderr, wait for exit. Safe to call twice.
  void stop();

  [[nodiscard]] int port() const { return port_; }
  /// CPU time of all its threads so far, from /proc/<pid>/task/*/schedstat.
  [[nodiscard]] std::uint64_t cpu_ns() const;
  /// Peak resident set (VmHWM) in MB.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
};

/// The server command line every workload uses: one event-loop shard and
/// two workers (so server + client threads fit in four CPUs), explicit
/// refits only.
std::vector<std::string> server_args();

/// CPUs for the server and for the client: disjoint when there are at
/// least two, else both empty (no pinning).
void split_cpus(std::vector<int>& server, std::vector<int>& client);
void pin_self(const std::vector<int>& cpus);

/// CPU time the hypervisor took from this VM's CPUs so far (the "steal"
/// column of /proc/stat), in seconds: a large value means a noisy run.
double host_steal_s();

/// Blocking connect to 127.0.0.1:port, then switched to non-blocking.
int connect_local(int port, std::string& error);

struct Pending {
  const Request* req = nullptr;
  std::unique_ptr<Request> owned;  // set when the driver generated it
  int key = -1;  // hot_cached pool index (byte-identical replay check)
  Clock::time_point sent;
};

/// Supplies requests to connections and learns about their replies.
class Driver {
 public:
  virtual ~Driver() = default;
  /// Fills `out` with connection c's next request; false when none may be
  /// sent now (blocked on replies, or the driver is done).
  virtual bool next(int c, Pending& out) = 0;
  virtual void on_reply(int /*c*/, const Pending& /*p*/) {}
  /// Deadline reached: finish the rounds under way, start no new ones.
  void stop() { stopping_ = true; }
  /// True when nothing more will be sent.
  [[nodiscard]] virtual bool finished() const = 0;

 protected:
  bool stopping_ = false;
};

/// Stops another driver's stream at the deadline, mid-round: for a
/// recording whose requests are replayed, not counted.
class UntilDeadline : public Driver {
 public:
  explicit UntilDeadline(Driver& inner) : inner_(inner) {}
  bool next(int c, Pending& out) override { return !stopping_ && inner_.next(c, out); }
  void on_reply(int c, const Pending& p) override { inner_.on_reply(c, p); }
  [[nodiscard]] bool finished() const override { return stopping_; }

 private:
  Driver& inner_;
};

/// Sends a fixed list once, spread round-robin over the connections.
class ListDriver : public Driver {
 public:
  explicit ListDriver(std::vector<Request> list, int conns)
      : list_(std::move(list)), conns_(conns) {}
  bool next(int c, Pending& out) override;
  [[nodiscard]] bool finished() const override { return pos_ >= list_.size(); }

 private:
  std::vector<Request> list_;
  int conns_;
  std::size_t pos_ = 0;
};

std::unique_ptr<Driver> make_driver(WorkloadKind kind, std::uint64_t seed,
                                    int conns,
                                    const std::vector<Request>* hot_pool);

/// Connection count and per-connection pipeline depth of a workload.
int connections_for(WorkloadKind kind);
int depth_for(WorkloadKind kind);

struct RunStats {
  std::uint64_t attempted[kOpCount] = {};
  std::uint64_t failed[kOpCount] = {};
  std::uint64_t completed = 0;
  std::uint64_t wrong = 0;
  /// Send-to-reply latency of every reply that arrived before the
  /// deadline: the measured window. Replies that finish the last rounds
  /// after it are checked and counted above but not timed.
  std::vector<float> latency_us;
  std::uint64_t in_window = 0;
  Clock::time_point start, end;
  bool io_error = false;
  /// Requests in the order they were sent (only when recording).
  std::vector<Request> sent;
};

/// Runs `driver` over `fds` until it is finished and every reply is in.
/// With seconds > 0 the driver is stopped at that deadline, where
/// `at_deadline` is called. Replies to hot_cached pool keys are checked in
/// full once, then byte-compared.
RunStats drive(const std::vector<int>& fds, Driver& driver, Checker& checker,
               int depth, double seconds, std::vector<std::string>* verified,
               bool record_lines = false,
               const std::function<void()>& at_deadline = {});

/// Sends {"type":"stats"} on fd and returns the reply line ("" on error).
std::string fetch_stats(int fd);

/// The warm-up a workload's set-up ends with: hot_cached answers its
/// whole pool once, cold_model one round of its own, learn_refit one
/// seed_online calibration fit per platform.
std::vector<Request> warmup_requests(WorkloadKind kind, std::uint64_t seed,
                                     const std::vector<Request>* hot_pool);

/// A started server, its connections, and the checker that has seen the
/// warm-up replies.
struct Session {
  ServerProcess server;
  std::vector<int> fds;
  Checker checker;
  double setup_s = 0.0;  // spawn to end of warm-up
  RunStats warmup;
  ~Session() { close(); }
  void close();
};

/// Spawn, wait for the listening line, connect, warm up.
std::unique_ptr<Session> open_session(WorkloadKind kind, std::uint64_t seed,
                                      const std::string& server_path,
                                      const std::vector<int>& server_cpus,
                                      int conns,
                                      const std::vector<Request>* hot_pool,
                                      bool record, std::string& error);

}  // namespace perfbench
