// perfbench — end-to-end run of one workload against a fresh
// archline_serverd over loopback TCP.
//
//   perfbench --server PATH --workload NAME --seed N --seconds S
//   perfbench --self-test
//
// Set-up (spawn to end of warm-up) is done kSetups times and its median
// is setup_s; the last server is then measured for S seconds of
// closed-loop pipelined load, with every reply checked. Server CPU and
// peak RSS are read from /proc. The last stdout line is the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check.hpp"
#include "driver.hpp"
#include "report.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

double client_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Set-ups per run: setup_s is their median. On a shared machine one
// spawn can take several times another, so the median needs many.
constexpr int kSetups = 15;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --server PATH --workload "
               "hot_cached|cold_model|learn_refit --seed N --seconds S\n"
               "       perfbench --self-test\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string server, workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int failures = self_test();
      std::printf("perfbench self-test: %s\n", failures ? "FAILED" : "ok");
      return failures ? 1 : 0;
    }
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (arg == "--server") server = value;
    else if (arg == "--workload") workload = value;
    else if (arg == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") seconds = std::atof(value);
    else usage();
  }
  WorkloadKind kind;
  if (server.empty() || !parse_workload(workload, kind) || !(seconds > 0)) usage();
  const bool checker_ok = self_test() == 0;

  std::vector<int> server_cpus, client_cpus;
  split_cpus(server_cpus, client_cpus);
  pin_self(client_cpus);
  const int conns = connections_for(kind);
  const std::vector<Request> pool =
      kind == WorkloadKind::HotCached ? hot_pool(seed) : std::vector<Request>{};

  // Set up K times; the last server is the one measured.
  std::vector<double> setup_times;
  std::unique_ptr<Session> session;
  std::uint64_t warm_wrong = 0;
  for (int k = 0; k < kSetups; ++k) {
    if (session) session->close();
    std::string error;
    session = open_session(kind, seed, server, server_cpus, conns, &pool,
                           /*record=*/false, error);
    if (!session) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_times.push_back(session->setup_s);
    warm_wrong += session->warmup.wrong;
  }

  std::vector<std::string> verified(pool.size());
  auto driver = make_driver(kind, seed, conns, &pool);
  // Timing metrics cover the fixed window up to the deadline; the rounds
  // finished after it are checked and counted but not timed.
  const double client0 = client_cpu_s();
  const double steal0 = host_steal_s();
  double steal_s = 0.0;
  const std::uint64_t cpu0 = session->server.cpu_ns();
  std::uint64_t cpu1 = cpu0;
  double client_s = 0.0;
  RunStats st = drive(session->fds, *driver, session->checker, depth_for(kind),
                      seconds, &verified, false, [&] {
                        cpu1 = session->server.cpu_ns();
                        client_s = client_cpu_s() - client0;
                        steal_s = host_steal_s() - steal0;
                      });
  const double rss_mb = session->server.peak_rss_mb();
  const ServerCounters counters =
      st.io_error ? ServerCounters{} : parse_counters(fetch_stats(session->fds[0]));
  session->close();
  if (st.io_error) {
    std::fprintf(stderr, "perfbench: the run did not complete\n");
    return 1;
  }

  const double tail = seconds_between(st.start, st.end) - seconds;
  const auto completed = static_cast<double>(st.in_window);
  print_counts(st, counters);
  const double p50_ms = quantile(st.latency_us, 0.50) / 1000.0;
  std::string setups = "# set-ups (s):";
  for (double t : setup_times) {
    setups += ' ';
    setups += std::to_string(t);
  }
  std::printf("%s\n", setups.c_str());
  std::printf("# %s seed %llu: %llu replies in the %.1f s window (%llu in "
              "all, last rounds done %.3f s after it); server CPU %.3f s, "
              "client CPU %.3f s, host steal %.2f s in the window; setups "
              "%d, median set-up %.4f s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(st.in_window), seconds,
              static_cast<unsigned long long>(st.completed), tail,
              static_cast<double>(cpu1 - cpu0) * 1e-9, client_s, steal_s, kSetups,
              median(setup_times));
  // Nothing shed: an overload or deadline reply would also fail its check.
  const bool correct = checker_ok && warm_wrong == 0 && st.wrong == 0 &&
                       counters.ok && counters.rejected == 0 &&
                       counters.deadlined == 0;
  print_result(correct, total(st.attempted), total(st.failed),
               {{"setup_s", median(setup_times), "s"},
                {"throughput_rps", completed / seconds, "1/s"},
                {"p50_ms", p50_ms, "ms"},
                {"cpu_us_per_req",
                 static_cast<double>(cpu1 - cpu0) / 1000.0 / completed, "us"},
                {"peak_rss_mb", rss_mb, "MB"}});
  return 0;
}
