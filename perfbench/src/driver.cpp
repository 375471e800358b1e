#include "driver.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

// ---- Server process --------------------------------------------------

bool ServerProcess::start(const std::string& path,
                          const std::vector<std::string>& args,
                          const std::vector<int>& cpus, std::string& error) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    error = "pipe failed";
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(path.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: die with the benchmark, stderr to the pipe, stdout discarded.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (!cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (int c : cpus) CPU_SET(c, &set);
      ::sched_setaffinity(0, sizeof set, &set);
    }
    ::dup2(pipefd[1], STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    ::execv(path.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  pid_ = pid;
  err_fd_ = pipefd[0];
  // Ready when the banner names the port.
  std::string text;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < give_up) {
    pollfd pfd{err_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(err_fd_, buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = text.find("listening on ");
    if (at == std::string::npos) continue;
    const std::size_t colon = text.find(':', at + 13);
    const std::size_t eol = text.find_first_of(" \n", colon == std::string::npos ? at : colon);
    if (colon == std::string::npos || eol == std::string::npos) continue;
    port_ = std::atoi(text.c_str() + colon + 1);
    if (port_ > 0) return true;
  }
  error = "server did not report a listening port: " + text.substr(0, 300);
  stop();
  return false;
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  // Drain its stderr (the shutdown summary) so it never blocks on the pipe.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(15);
  char buf[4096];
  while (err_fd_ >= 0 && Clock::now() < give_up) {
    pollfd pfd{err_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    if (::read(err_fd_, buf, sizeof buf) <= 0) break;
  }
  if (Clock::now() >= give_up) ::kill(pid_, SIGKILL);
  if (err_fd_ >= 0) ::close(err_fd_);
  err_fd_ = -1;
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

std::uint64_t ServerProcess::cpu_ns() const {
  std::uint64_t total = 0;
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (!d) return 0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const std::string file = dir + "/" + e->d_name + "/schedstat";
    if (FILE* f = std::fopen(file.c_str(), "r")) {
      unsigned long long ns = 0;
      if (std::fscanf(f, "%llu", &ns) == 1) total += ns;
      std::fclose(f);
    }
  }
  ::closedir(d);
  return total;
}

double ServerProcess::peak_rss_mb() const {
  const std::string file = "/proc/" + std::to_string(pid_) + "/status";
  FILE* f = std::fopen(file.c_str(), "r");
  if (!f) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  std::fclose(f);
  return kb / 1024.0;
}

std::vector<std::string> server_args() {
  return {"--port",    "0", "--bind",    "127.0.0.1", "--shards", "1",
          "--threads", "1", "--refit-interval-ms", "0"};
}

void split_cpus(std::vector<int>& server, std::vector<int>& client) {
  server.clear();
  client.clear();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.size() < 2) return;
  client.push_back(cpus.back());
  server.assign(cpus.begin(), cpus.end() - 1);
}

void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

double host_steal_s() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK))
                : 0.0;
}

int connect_local(int port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = "socket failed";
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = std::string("connect failed: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// ---- Drivers ----------------------------------------------------------

bool ListDriver::next(int c, Pending& out) {
  // Entry i goes to connection i mod conns, in list order.
  if (pos_ >= list_.size() || static_cast<int>(pos_ % static_cast<std::size_t>(conns_)) != c)
    return false;
  out.req = &list_[pos_++];
  return true;
}

namespace {

/// hot_cached: each connection replays the pool as seeded shuffled rounds.
class HotDriver : public Driver {
 public:
  HotDriver(const std::vector<Request>& pool, std::uint64_t seed, int conns)
      : pool_(pool), seed_(seed), conns_(static_cast<std::size_t>(conns)) {
    for (auto& c : conns_) c.pos = pool_.size();  // start a round on demand
  }
  bool next(int c, Pending& out) override {
    Conn& s = conns_[static_cast<std::size_t>(c)];
    if (s.pos == pool_.size()) {
      if (stopping_) return false;
      s.order.resize(pool_.size());
      for (std::size_t i = 0; i < s.order.size(); ++i) s.order[i] = static_cast<int>(i);
      Rng rng(seed_, static_cast<std::uint64_t>(c) + 0x5407, s.round++);
      for (std::size_t i = s.order.size() - 1; i > 0; --i)
        std::swap(s.order[i], s.order[static_cast<std::size_t>(rng.below(static_cast<int>(i + 1)))]);
      s.pos = 0;
    }
    out.key = s.order[s.pos++];
    out.req = &pool_[static_cast<std::size_t>(out.key)];
    return true;
  }
  [[nodiscard]] bool finished() const override {
    if (!stopping_) return false;
    for (const Conn& s : conns_)
      if (s.pos != pool_.size()) return false;
    return true;
  }

 private:
  struct Conn {
    std::vector<int> order;
    std::size_t pos = 0;
    std::uint64_t round = 0;
  };
  const std::vector<Request>& pool_;
  std::uint64_t seed_;
  std::vector<Conn> conns_;
};

/// cold_model: each connection sends whole rounds of 32 fresh requests.
class ColdDriver : public Driver {
 public:
  ColdDriver(std::uint64_t seed, int conns)
      : seed_(seed), conns_(static_cast<std::size_t>(conns)) {}
  bool next(int c, Pending& out) override {
    Conn& s = conns_[static_cast<std::size_t>(c)];
    if (s.pos == s.round_reqs.size()) {
      if (stopping_) return false;
      s.round_reqs = cold_round(seed_, c, s.round++);
      s.pos = 0;
    }
    out.owned = std::make_unique<Request>(std::move(s.round_reqs[s.pos++]));
    out.req = out.owned.get();
    return true;
  }
  [[nodiscard]] bool finished() const override {
    if (!stopping_) return false;
    for (const Conn& s : conns_)
      if (s.pos != s.round_reqs.size()) return false;
    return true;
  }

 private:
  struct Conn {
    std::vector<Request> round_reqs;
    std::size_t pos = 0;
    std::uint64_t round = 0;
  };
  std::uint64_t seed_;
  std::vector<Conn> conns_;
};

/// learn_refit: per platform, rounds of alternating observe / read (8192
/// each) and then one refit. Connection c serves platforms p = c mod
/// conns. A platform has at most one observe in flight; a refit is sent
/// only when nothing of its platform is in flight, and nothing of the
/// platform is sent while its refit is. So each re-solve sees the same
/// last 4096 tuples of its round, in order, on every run, and every read
/// is answered at a known published generation.
class LearnDriver : public Driver {
 public:

  LearnDriver(std::uint64_t seed, int conns) : seed_(seed), conns_(conns) {
    const int n = static_cast<int>(platforms().size());
    for (int p = 0; p < n; ++p) {
      State s;
      s.platform = p;
      s.reads = learn_reads(seed, p);
      states_.push_back(std::move(s));
    }
    cursor_.assign(static_cast<std::size_t>(conns), 0);
  }

  bool next(int c, Pending& out) override {
    const int n = static_cast<int>(states_.size());
    // Try this connection's platforms, rotating the starting point.
    const int mine = (n - c + conns_ - 1) / conns_;
    for (int k = 0; k < mine; ++k) {
      const int slot = (cursor_[static_cast<std::size_t>(c)] + k) % mine;
      State& s = states_[static_cast<std::size_t>(c + slot * conns_)];
      if (try_next(s, out)) {
        cursor_[static_cast<std::size_t>(c)] = (slot + 1) % mine;
        return true;
      }
    }
    return false;
  }

  void on_reply(int, const Pending& p) override {
    State& s = states_[static_cast<std::size_t>(p.req->platform)];
    --s.in_flight;
    if (p.req->op == Op::Observe) s.observe_in_flight = false;
    if (p.req->op == Op::Refit) {
      s.observes = s.reads_sent = 0;
      ++s.round;
    }
  }

  [[nodiscard]] bool finished() const override {
    if (!stopping_) return false;
    for (const State& s : states_)
      if (s.observes != 0 || s.reads_sent != 0 || s.in_flight != 0) return false;
    return true;
  }

 private:
  struct State {
    int platform = 0;
    std::vector<Request> reads;
    std::uint64_t round = 0;
    int observes = 0;  // sent this round
    int reads_sent = 0;
    int in_flight = 0;
    bool observe_in_flight = false;
    std::size_t read_pos = 0;
  };

  bool try_next(State& s, Pending& out) {
    const bool round_done = s.observes == kObservesPerRound && s.reads_sent == kReadsPerRound;
    if (round_done && s.in_flight != 0) return false;  // the refit, or its wait
    if (s.observes == 0 && s.reads_sent == 0 && stopping_) return false;
    const bool observe_next = !round_done && s.observes == s.reads_sent;
    if (observe_next && s.observe_in_flight) return false;
    ++s.in_flight;
    if (round_done) {
      out.owned = std::make_unique<Request>(refit_request(s.platform));
    } else if (observe_next) {
      s.observe_in_flight = true;
      out.owned = std::make_unique<Request>(
          observe_batch(seed_, s.platform, s.round, s.observes++));
    } else {
      out.req = &s.reads[s.read_pos++ % s.reads.size()];
      ++s.reads_sent;
      return true;
    }
    out.req = out.owned.get();
    return true;
  }

  std::uint64_t seed_;
  int conns_;
  std::vector<State> states_;
  std::vector<int> cursor_;
};

bool send_some(int fd, std::string& out, std::size_t& off) {
  while (off < out.size()) {
    const ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (off == out.size()) {
    out.clear();
    off = 0;
  }
  return true;
}

}  // namespace

std::unique_ptr<Driver> make_driver(WorkloadKind kind, std::uint64_t seed,
                                    int conns,
                                    const std::vector<Request>* hot_pool) {
  switch (kind) {
    case WorkloadKind::HotCached:
      return std::make_unique<HotDriver>(*hot_pool, seed, conns);
    case WorkloadKind::ColdModel: return std::make_unique<ColdDriver>(seed, conns);
    case WorkloadKind::LearnRefit: return std::make_unique<LearnDriver>(seed, conns);
  }
  return nullptr;
}

int connections_for(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::HotCached: return 4;
    case WorkloadKind::ColdModel: return 4;
    case WorkloadKind::LearnRefit: return 4;
  }
  return 1;
}

int depth_for(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::HotCached: return 16;
    case WorkloadKind::ColdModel: return 64;
    case WorkloadKind::LearnRefit: return 16;
  }
  return 1;
}

RunStats drive(const std::vector<int>& fds, Driver& driver, Checker& checker,
               int depth, double seconds, std::vector<std::string>* verified,
               bool record_lines, const std::function<void()>& at_deadline) {
  struct Conn {
    std::string out, in;
    std::size_t out_off = 0;
    std::size_t in_done = 0;  // bytes of `in` whose replies are checked
    std::deque<Pending> pending;
  };
  struct Reply {
    Pending p;
    std::string_view line;  // into its connection's `in`
  };
  RunStats st;
  std::vector<Conn> conns(fds.size());
  std::vector<pollfd> pfds(fds.size());
  std::vector<Reply> received;
  st.start = Clock::now();
  const Clock::time_point deadline =
      st.start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
  bool stopped = seconds <= 0.0;
  if (stopped) driver.stop();
  char buf[1 << 16];
  for (;;) {
    // 1. Refill every window and send, before checking what came back,
    //    so the server is never left waiting on the checker.
    Clock::time_point now = Clock::now();
    if (!stopped && now >= deadline) {
      driver.stop();
      stopped = true;
      if (at_deadline) at_deadline();
    }
    bool waiting = false;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& cn = conns[c];
      Pending p;
      while (cn.pending.size() < static_cast<std::size_t>(depth) &&
             driver.next(static_cast<int>(c), p)) {
        p.sent = now;
        cn.out += p.req->line;
        cn.out += '\n';
        if (record_lines) st.sent.push_back(*p.req);
        ++st.attempted[static_cast<int>(p.req->op)];
        cn.pending.push_back(std::move(p));
        p = Pending{};
      }
      if (!cn.out.empty() && !send_some(fds[c], cn.out, cn.out_off)) {
        st.io_error = true;
        return st;
      }
      waiting = waiting || !cn.pending.empty();
      pfds[c] = pollfd{fds[c], static_cast<short>(POLLIN | (cn.out.empty() ? 0 : POLLOUT)), 0};
    }
    // 2. Check the replies received last time, in arrival order.
    for (Reply& r : received) {
      Verdict v;
      std::string* known =
          (verified && r.p.key >= 0) ? &(*verified)[static_cast<std::size_t>(r.p.key)] : nullptr;
      if (known && !known->empty()) {
        v = (r.line == *known) ? Verdict::Ok : Verdict::Wrong;
        if (v == Verdict::Wrong && ++checker.wrong <= 5)
          std::fprintf(stderr, "perfbench: cached reply differs from the verified one: %.200s\n",
                       std::string(r.line).c_str());
      } else {
        v = checker.check(*r.p.req, r.line);
        if (known && v == Verdict::Ok) known->assign(r.line);
      }
      if (v == Verdict::Failed) ++st.failed[static_cast<int>(r.p.req->op)];
      if (v == Verdict::Wrong) ++st.wrong;
    }
    received.clear();
    for (Conn& cn : conns) {
      cn.in.erase(0, cn.in_done);
      cn.in_done = 0;
    }
    if (!waiting) {
      if (driver.finished()) break;
      if (!stopped) continue;  // a driver blocked with nothing in flight
      break;
    }
    // 3. Wait, then take in every complete reply line.
    const int ready = ::poll(pfds.data(), pfds.size(), 10000);
    if (ready <= 0) {
      std::fprintf(stderr, "perfbench: no reply for 10 s\n");
      st.io_error = true;
      return st;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& cn = conns[c];
      if ((pfds[c].revents & POLLOUT) && !send_some(fds[c], cn.out, cn.out_off)) {
        st.io_error = true;
        return st;
      }
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        const ssize_t n = ::recv(fds[c], buf, sizeof buf, 0);
        if (n > 0) {
          cn.in.append(buf, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof buf) break;
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "perfbench: connection closed by the server\n");
        st.io_error = true;
        return st;
      }
      const Clock::time_point got = Clock::now();
      for (std::size_t nl; (nl = cn.in.find('\n', cn.in_done)) != std::string::npos;
           cn.in_done = nl + 1) {
        if (cn.pending.empty()) {
          std::fprintf(stderr, "perfbench: reply without a request\n");
          ++st.wrong;
          continue;
        }
        Pending p = std::move(cn.pending.front());
        cn.pending.pop_front();
        if (!stopped) {
          st.latency_us.push_back(static_cast<float>(
              std::chrono::duration<double, std::micro>(got - p.sent).count()));
          ++st.in_window;
        }
        ++st.completed;
        driver.on_reply(static_cast<int>(c), p);
        received.push_back(Reply{std::move(p), {}});
        received.back().line = std::string_view(cn.in).substr(cn.in_done, nl - cn.in_done);
      }
      st.end = got;
    }
  }
  return st;
}

std::string fetch_stats(int fd) {
  const std::string req = "{\"type\":\"stats\"}\n";
  std::string out = req;
  std::size_t off = 0;
  std::string in;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < give_up) {
    if (!out.empty() && !send_some(fd, out, off)) return "";
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[8192];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      return "";
    }
    in.append(buf, static_cast<std::size_t>(n));
    const std::size_t nl = in.find('\n');
    if (nl != std::string::npos) return in.substr(0, nl);
  }
  return "";
}

std::vector<Request> warmup_requests(WorkloadKind kind, std::uint64_t seed,
                                     const std::vector<Request>* hot_pool) {
  switch (kind) {
    case WorkloadKind::HotCached: return *hot_pool;
    case WorkloadKind::ColdModel:
      return cold_round(seed, /*conn=*/1000, /*round=*/0);  // never measured
    case WorkloadKind::LearnRefit: {
      std::vector<Request> fits;
      for (int p = 0; p < static_cast<int>(platforms().size()); ++p)
        fits.push_back(calibration_fit(seed, p));
      return fits;
    }
  }
  return {};
}

void Session::close() {
  for (int fd : fds) ::close(fd);
  fds.clear();
  server.stop();
}

std::unique_ptr<Session> open_session(WorkloadKind kind, std::uint64_t seed,
                                      const std::string& server_path,
                                      const std::vector<int>& server_cpus,
                                      int conns,
                                      const std::vector<Request>* hot_pool,
                                      bool record, std::string& error) {
  std::vector<Request> warm = warmup_requests(kind, seed, hot_pool);
  auto s = std::make_unique<Session>();
  const Clock::time_point t0 = Clock::now();
  if (!s->server.start(server_path, server_args(), server_cpus, error)) return nullptr;
  for (int c = 0; c < conns; ++c) {
    const int fd = connect_local(s->server.port(), error);
    if (fd < 0) return nullptr;
    s->fds.push_back(fd);
  }
  ListDriver list(std::move(warm), conns);
  s->warmup = drive(s->fds, list, s->checker, depth_for(kind), 0.0, nullptr, record);
  s->setup_s = seconds_between(t0, Clock::now());
  if (s->warmup.io_error) {
    error = "warm-up failed";
    return nullptr;
  }
  return s;
}

}  // namespace perfbench
