// perfbench_trace — the traced run: per-layer costs of one workload.
//
//   perfbench_trace --server PATH --workload NAME --seed N --seconds S
//                   --out DIR
//
// Four phases, sharing the --seconds budget:
//   1. the workload over TCP as in the end-to-end run (4 connections),
//      for the server's own counters (cache hit ratio and stale entries,
//      lane peak depths, resolves);
//   2. the same generator over ONE pipelined connection to a fresh
//      server until the deadline, recording every request sent; its wall
//      time per request, minus Server::handle_into's time for the same
//      stream in process, is the transport's cost (tcp.ns_per_req);
//   3. the first kReplayMax requests of that stream replayed in process
//      through the public entry point of each layer: ShardedLruCache,
//      Json::parse_in_situ / dump_to, serve::handle_line (no cache,
//      operator new counted), Server::submit versus handle_into,
//      core::predict_batch / policy_advise, fit::fit_observations,
//      OnlineStore::observe; after the replay, one refit per platform
//      (handle_line and OnlineStore::resolve) on the windows it filled;
//   4. spans, kept in memory, written to DIR/spans-<workload>-<seed>.jsonl.
// A layer that does no work on a workload reports 0. The last stdout
// line is the JSON result with every per-layer metric.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "core/kernels.hpp"
#include "core/policy.hpp"
#include "driver.hpp"
#include "fit/model_fit.hpp"
#include "fit/online/snapshot.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "report.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workload.hpp"

// Counted allocations (protocol.allocs_per_req).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace perfbench;
namespace serve = archline::serve;
namespace core = archline::core;

namespace {

// ---- Spans ------------------------------------------------------------

/// In-memory spans: name, start, end, the span that caused it, and the
/// request they belong to (its index in the replayed stream, or -1).
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns, end_ns;
    std::int32_t parent;
    std::int32_t request;
  };

  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 18); }

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent = -1, std::int32_t request = -1) {
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  Span& at(std::int32_t i) { return spans_[static_cast<std::size_t>(i)]; }

  /// Mean duration (ns) of spans named `name`, less the timer's own cost.
  double mean_ns(const char* name, double overhead_ns) const {
    double sum = 0, n = 0;
    for (const Span& s : spans_)
      if (std::string_view(s.name) == name) {
        sum += static_cast<double>(s.end_ns - s.start_ns);
        ++n;
      }
    return n ? std::max(0.0, sum / n - overhead_ns) : 0.0;
  }

  void write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"request\":%d}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.request);
    }
    std::fclose(f);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Cost of taking the two timestamps of an empty span.
double timer_overhead_ns(const Tracer& t) {
  constexpr int kN = 20000;
  volatile std::int64_t sink = 0;
  const std::int64_t a = t.now();
  for (int i = 0; i < kN; ++i) sink = sink + t.now();
  const std::int64_t b = t.now();
  return static_cast<double>(b - a) / kN;
}

const char* protocol_span(Op op) {
  static const char* names[kOpCount] = {
      "protocol.predict",     "protocol.predict_batch64", "protocol.predict_batch256",
      "protocol.crossover",   "protocol.params",          "protocol.policy_advise",
      "protocol.sensitivity", "protocol.scenario_sweep",  "protocol.observe",
      "protocol.refit",       "protocol.fit"};
  return names[static_cast<int>(op)];
}

bool cacheable(Op op) {
  return op != Op::Observe && op != Op::Refit && op != Op::Fit;
}

std::vector<archline::fit::online::Sample> samples_of(const Request& r) {
  std::vector<archline::fit::online::Sample> out;
  for (std::size_t i = 0; i < r.flops.size(); ++i)
    out.push_back({r.flops[i], r.bytes[i], r.seconds[i], r.joules[i]});
  return out;
}

core::Objective objective_of(const std::string& o) {
  if (o == "min_time") return core::Objective::MinTime;
  if (o == "min_edp") return core::Objective::MinEdp;
  return core::Objective::MinEnergy;
}

serve::ServerOptions server_options() {
  serve::ServerOptions o;  // what server_args() gives archline_serverd
  o.threads = 1;
  o.refit_interval_ms = 0;
  return o;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_trace --server PATH --workload "
               "hot_cached|cold_model|learn_refit --seed N --seconds S --out DIR\n");
  std::exit(2);
}

constexpr std::size_t kReplayMax = 20000;  // requests replayed per layer
constexpr std::size_t kQueueMax = 2000;    // requests sent through the pool

}  // namespace

int main(int argc, char** argv) {
  std::string server, workload, out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--server") server = value;
    else if (arg == "--workload") workload = value;
    else if (arg == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") seconds = std::atof(value);
    else if (arg == "--out") out_dir = value;
    else usage();
  }
  WorkloadKind kind;
  if (server.empty() || !parse_workload(workload, kind) || !(seconds > 0)) usage();
  const bool checker_ok = self_test() == 0;
  std::vector<int> server_cpus, client_cpus;
  split_cpus(server_cpus, client_cpus);
  pin_self(client_cpus);
  const std::vector<Request> pool =
      kind == WorkloadKind::HotCached ? hot_pool(seed) : std::vector<Request>{};
  std::vector<MetricValue> metrics;

  // 1. The workload over TCP, for the server's counters.
  std::string error;
  const int conns = connections_for(kind);
  auto session = open_session(kind, seed, server, server_cpus, conns, &pool, false, error);
  if (!session) {
    std::fprintf(stderr, "perfbench_trace: set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::vector<std::string> verified(pool.size());
  auto driver = make_driver(kind, seed, conns, &pool);
  const RunStats st = drive(session->fds, *driver, session->checker,
                            depth_for(kind), 0.4 * seconds, &verified);
  const ServerCounters counters =
      st.io_error ? ServerCounters{} : parse_counters(fetch_stats(session->fds[0]));
  session->close();
  if (st.io_error) return 1;
  print_counts(st, counters);
  {
    std::vector<float> lat = st.latency_us;
    std::printf("# traced run, TCP phase (%.1f s, allocation counting on in the "
                "client): throughput %.6g/s, p50 %.6g ms\n",
                0.4 * seconds, static_cast<double>(st.in_window) / (0.4 * seconds),
                quantile(lat, 0.5) / 1000.0);
  }

  // 2. One pipelined connection, every request recorded.
  auto one = open_session(kind, seed, server, server_cpus, 1, &pool, true, error);
  if (!one) {
    std::fprintf(stderr, "perfbench_trace: set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::vector<std::string> verified1(pool.size());
  auto driver1 = make_driver(kind, seed, 1, &pool);
  UntilDeadline until(*driver1);
  RunStats st1 = drive(one->fds, until, one->checker, depth_for(kind),
                       0.15 * seconds, &verified1, /*record=*/true);
  one->close();
  if (st1.io_error || st1.completed == 0) return 1;
  const std::vector<Request>& warm = one->warmup.sent;
  std::vector<Request>& stream = st1.sent;
  const double tcp_ns = seconds_between(st1.start, st1.end) * 1e9 /
                        static_cast<double>(st1.completed);

  Tracer tr;
  const double overhead = timer_overhead_ns(tr);
  {
    serve::Server inproc(server_options());
    std::string out;
    for (const Request& r : warm) inproc.handle_into(r.line, out);
    const std::int64_t t0 = tr.now();
    const std::int32_t pass = tr.add("replay.handle_into", t0, t0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::int64_t a = tr.now();
      inproc.handle_into(stream[i].line, out);
      const std::int64_t b = tr.now();
      if (i < kReplayMax) tr.add("server.handle_into", a, b, pass, static_cast<std::int32_t>(i));
    }
    tr.at(pass).end_ns = tr.now();
    const double inproc_ns = static_cast<double>(tr.at(pass).end_ns - t0) /
                             static_cast<double>(stream.size());
    metrics.push_back({"tcp.ns_per_req", std::max(0.0, tcp_ns - inproc_ns), "ns"});
  }
  if (stream.size() > kReplayMax) stream.resize(kReplayMax);
  // The platforms whose online windows the replayed stream fed.
  std::vector<int> observed;
  for (const Request& r : stream)
    if (r.op == Op::Observe &&
        std::find(observed.begin(), observed.end(), r.platform) == observed.end())
      observed.push_back(r.platform);

  // 3a. serve/protocol: handle_line without a cache; replies kept for 3b/3c.
  std::vector<std::string> warm_replies, replies;
  std::uint64_t allocs = 0;
  {
    archline::fit::online::OnlineStore store;
    serve::Reply reply;
    const serve::ProtocolLimits limits;
    for (const Request& r : warm) {
      serve::handle_line(r.line, limits, reply, &store);
      warm_replies.push_back(reply.body);
    }
    const std::int64_t t0 = tr.now();
    const std::int32_t pass = tr.add("replay.protocol", t0, t0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
      const std::int64_t a = tr.now();
      serve::handle_line(stream[i].line, limits, reply, &store);
      const std::int64_t b = tr.now();
      allocs += g_allocs.load(std::memory_order_relaxed) - before;
      tr.add(protocol_span(stream[i].op), a, b, pass, static_cast<std::int32_t>(i));
      replies.push_back(reply.body);
    }
    for (int p : observed) {
      const std::int64_t a = tr.now();
      serve::handle_line(refit_request(p).line, limits, reply, &store);
      tr.add(protocol_span(Op::Refit), a, tr.now(), pass);
    }
    tr.at(pass).end_ns = tr.now();
  }
  for (int i = 0; i < kOpCount; ++i) {
    const auto op = static_cast<Op>(i);
    if (op == Op::Fit) continue;
    metrics.push_back({std::string(protocol_span(op)) + "_us",
                       tr.mean_ns(protocol_span(op), overhead) / 1000.0, "us"});
  }
  metrics.push_back({"protocol.allocs_per_req",
                     static_cast<double>(allocs) / static_cast<double>(stream.size()),
                     "count"});

  // 3b. serve/json: the request parse and the reply render.
  {
    const std::int64_t t0 = tr.now();
    const std::int32_t pass = tr.add("replay.json", t0, t0);
    std::string out;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::int64_t a = tr.now();
      const serve::Json req = serve::Json::parse_in_situ(stream[i].line);
      const std::int64_t b = tr.now();
      tr.add("json.parse_in_situ", a, b, pass, static_cast<std::int32_t>(i));
      const serve::Json rep = serve::Json::parse(replies[i]);
      out.clear();
      const std::int64_t c = tr.now();
      rep.dump_to(out);
      tr.add("json.dump_to", c, tr.now(), pass, static_cast<std::int32_t>(i));
    }
    tr.at(pass).end_ns = tr.now();
  }
  metrics.push_back({"json.parse_ns_per_req", tr.mean_ns("json.parse_in_situ", overhead), "ns"});
  metrics.push_back({"json.dump_ns_per_req", tr.mean_ns("json.dump_to", overhead), "ns"});

  // 3c. serve/cache: probe every line; fill on a miss; a refit publishes.
  {
    serve::ShardedLruCache cache(server_options().cache_capacity,
                                 server_options().cache_shards);
    const std::uint64_t generation = 0;
    for (std::size_t i = 0; i < warm.size(); ++i)
      if (cacheable(warm[i].op)) cache.put(warm[i].line, warm_replies[i], 0, generation, true);
    const std::int64_t t0 = tr.now();
    const std::int32_t pass = tr.add("replay.cache", t0, t0);
    std::string out;
    std::uint8_t tag = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Request& r = stream[i];
      const std::int64_t a = tr.now();
      const bool hit = cache.get(r.line, generation, out, tag);
      const std::int64_t b = tr.now();
      tr.add(hit ? "cache.hit" : "cache.miss", a, b, pass, static_cast<std::int32_t>(i));
      if (hit || !cacheable(r.op)) continue;
      const std::int64_t c = tr.now();
      cache.put(r.line, replies[i], 0, generation, true);
      tr.add("cache.put", c, tr.now(), pass, static_cast<std::int32_t>(i));
    }
    tr.at(pass).end_ns = tr.now();
  }
  metrics.push_back({"cache.hit_ns", tr.mean_ns("cache.hit", overhead), "ns"});
  metrics.push_back({"cache.miss_ns", tr.mean_ns("cache.miss", overhead), "ns"});
  metrics.push_back({"cache.put_ns", tr.mean_ns("cache.put", overhead), "ns"});
  metrics.push_back({"cache.hit_ratio", counters.hit_rate, "ratio"});
  metrics.push_back({"cache.stale", counters.stale, "count"});

  // 3d. serve/queue: submit -> done against handle_into, same line, no cache.
  {
    serve::ServerOptions o = server_options();
    o.cache_capacity = 0;
    serve::Server pool_server(o);
    pool_server.start();
    std::string out;
    for (const Request& r : warm) pool_server.handle_into(r.line, out);
    const std::int64_t t0 = tr.now();
    const std::int32_t pass = tr.add("replay.queue", t0, t0);
    std::size_t sent = 0;
    for (std::size_t i = 0; i < stream.size() && sent < kQueueMax; ++i) {
      if (stream[i].op == Op::Refit) continue;
      ++sent;
      std::atomic<bool> done{false};
      const std::int64_t a = tr.now();
      if (!pool_server.submit(stream[i].line, [&](std::string&&) {
            done.store(true, std::memory_order_release);
          }))
        continue;
      while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::int64_t b = tr.now();
      pool_server.handle_into(stream[i].line, out);
      const std::int64_t c = tr.now();
      const std::int32_t hop = tr.add("queue.submit_to_done", a, b, pass,
                                      static_cast<std::int32_t>(i));
      tr.add("queue.handle_into", b, c, hop, static_cast<std::int32_t>(i));
    }
    tr.at(pass).end_ns = tr.now();
    pool_server.shutdown();
  }
  metrics.push_back({"queue.hop_us",
                     std::max(0.0, tr.mean_ns("queue.submit_to_done", 0) -
                                       tr.mean_ns("queue.handle_into", 0)) / 1000.0,
                     "us"});
  metrics.push_back({"server.light_peak_depth", counters.light_peak, "count"});
  metrics.push_back({"server.heavy_peak_depth", counters.heavy_peak, "count"});

  // 3e. core: the batch kernel and the policy engine on the stream's inputs.
  {
    const std::int64_t t0 = tr.now();
    const std::int32_t pass = tr.add("replay.core", t0, t0);
    double elements = 0, batch_ns = 0;
    core::WorkloadBatch batch;
    core::PredictionBatch out;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Request& r = stream[i];
      const archline::platforms::PlatformSpec& spec =
          archline::platforms::all_platforms()[static_cast<std::size_t>(std::max(r.platform, 0))];
      if (r.op == Op::PredictBatch64 || r.op == Op::PredictBatch256) {
        batch.flops = r.flops;
        batch.bytes = r.bytes;
        const std::int64_t a = tr.now();
        core::predict_batch(spec.machine(), batch, out);
        const std::int64_t b = tr.now();
        tr.add("core.predict_batch", a, b, pass, static_cast<std::int32_t>(i));
        elements += static_cast<double>(r.flops.size());
        batch_ns += static_cast<double>(b - a);
      } else if (r.op == Op::PolicyAdvise) {
        core::PolicyRequest pr;
        pr.workload = core::Workload{.flops = r.flops[0], .bytes = r.bytes[0]};
        pr.objective = objective_of(r.objective);
        pr.period_s = r.period_s;
        const std::int64_t a = tr.now();
        const core::PolicyAdvice advice =
            core::policy_advise(spec.machine(), spec.operating_points, pr);
        tr.add("core.policy_advise", a, tr.now(), pass, static_cast<std::int32_t>(i));
        if (!advice.has_recommendation()) std::fprintf(stderr, "perfbench_trace: no advice\n");
      }
    }
    tr.at(pass).end_ns = tr.now();
    metrics.push_back({"core.predict_batch_ns_per_elem",
                       elements ? std::max(0.0, batch_ns / elements) : 0.0, "ns"});
    metrics.push_back({"core.policy_advise_us", tr.mean_ns("core.policy_advise", overhead) / 1000.0, "us"});
  }

  // 3f. fit: the calibration uploads of the set-up.
  {
    const std::int64_t t0 = tr.now();
    const std::int32_t pass = tr.add("replay.fit", t0, t0);
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const Request& r = warm[i];
      if (r.op != Op::Fit) continue;
      std::vector<archline::microbench::Observation> obs(r.flops.size());
      for (std::size_t k = 0; k < obs.size(); ++k) {
        obs[k].kernel.label = "serve obs " + std::to_string(k);
        obs[k].kernel.flops = r.flops[k];
        obs[k].kernel.bytes = r.bytes[k];
        obs[k].seconds = r.seconds[k];
        obs[k].joules = r.joules[k];
        obs[k].watts = r.joules[k] / r.seconds[k];
      }
      archline::fit::FitOptions opt;
      opt.idle_watts_hint = r.idle_watts;
      opt.max_watts_hint = r.max_watts;
      const std::int64_t a = tr.now();
      (void)archline::fit::fit_observations(obs, opt);
      tr.add("fit.fit_observations", a, tr.now(), pass, static_cast<std::int32_t>(i));
    }
    tr.at(pass).end_ns = tr.now();
  }
  metrics.push_back({"fit.fit_observations_ms", tr.mean_ns("fit.fit_observations", 0) / 1e6, "ms"});

  // 3g. fit/online: ingest and re-solve as the stream orders them.
  {
    archline::fit::online::OnlineStore store;
    for (const Request& r : warm)
      if (r.op == Op::Fit) store.observe(platforms()[static_cast<std::size_t>(r.platform)].name, samples_of(r));
    const std::int64_t t0 = tr.now();
    const std::int32_t pass = tr.add("replay.online", t0, t0);
    double tuples = 0, observe_ns = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Request& r = stream[i];
      const std::string& name = platforms()[static_cast<std::size_t>(std::max(r.platform, 0))].name;
      if (r.op == Op::Observe) {
        const auto batch = samples_of(r);
        const std::int64_t a = tr.now();
        store.observe(name, batch);
        const std::int64_t b = tr.now();
        tr.add("online.observe", a, b, pass, static_cast<std::int32_t>(i));
        tuples += static_cast<double>(batch.size());
        observe_ns += static_cast<double>(b - a) - overhead;
      }
    }
    for (int p : observed) {
      const std::int64_t a = tr.now();
      (void)store.resolve(platforms()[static_cast<std::size_t>(p)].name);
      tr.add("online.resolve", a, tr.now(), pass);
    }
    tr.at(pass).end_ns = tr.now();
    metrics.push_back({"online.observe_ns_per_tuple",
                       tuples ? std::max(0.0, observe_ns / tuples) : 0.0, "ns"});
    metrics.push_back({"online.resolve_ms", tr.mean_ns("online.resolve", 0) / 1e6, "ms"});
    metrics.push_back({"online.resolves", counters.resolves, "count"});
  }

  // 4. Spans out, then the result.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string spans = out_dir + "/spans-" + workload + "-" + std::to_string(seed) + ".jsonl";
  tr.write(spans);
  std::printf("# traced %s seed %llu: %zu warm-up + %zu replayed requests; timer "
              "overhead %.1f ns subtracted from sub-microsecond spans; spans in %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed), warm.size(),
              stream.size(), overhead, spans.c_str());
  const bool correct = checker_ok && st.wrong == 0 && st1.wrong == 0 &&
                       session->warmup.wrong == 0 && one->warmup.wrong == 0 &&
                       counters.ok && counters.rejected == 0 && counters.deadlined == 0;
  print_result(correct, total(st.attempted), total(st.failed), metrics);
  return 0;
}
