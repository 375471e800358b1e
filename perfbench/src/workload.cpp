#include "workload.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "platforms/platform_db.hpp"

namespace perfbench {

namespace {

constexpr const char* kObjectives[] = {"min_energy", "min_time", "min_edp"};
constexpr const char* kMetricNames[] = {"performance", "efficiency", "power"};

// Shortest round-trip form: the server parses exactly the double we hold.
void num(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void key(std::string& out, const char* k) {
  out += ",\"";
  out += k;
  out += "\":";
}

std::string begin(const char* type) {
  std::string s = "{\"type\":\"";
  s += type;
  s += '"';
  return s;
}

void platform_field(std::string& s, const char* name, int p) {
  key(s, name);
  s += '"';
  s += platforms()[static_cast<std::size_t>(p)].name;
  s += '"';
}

double log2_uniform(Rng& rng, double lo_exp, double hi_exp) {
  return std::exp2(rng.uniform(lo_exp, hi_exp));
}

Request predict(Rng& rng, int p) {
  Request r;
  r.op = Op::Predict;
  r.platform = p;
  const double flops = 1e9 * log2_uniform(rng, 0, 4);
  const double intensity = log2_uniform(rng, -5, 10);
  r.flops = {flops};
  r.bytes = {flops / intensity};
  r.line = begin("predict");
  platform_field(r.line, "platform", p);
  key(r.line, "flops");
  num(r.line, flops);
  key(r.line, "intensity");
  num(r.line, intensity);
  r.line += '}';
  return r;
}

// The ROADMAP fault 1(d) shape: finite inputs whose bytes overflow.
constexpr double kExtremeFlops = 1e300;
constexpr double kExtremeIntensity = 1e-300;

Request extreme_predict(int p, std::uint64_t id) {
  Request r;
  r.op = Op::Predict;
  r.platform = p;
  r.extreme = true;
  r.flops = {kExtremeFlops};
  r.bytes = {kExtremeFlops / kExtremeIntensity};
  r.line = begin("predict");
  platform_field(r.line, "platform", p);
  key(r.line, "flops");
  r.line += "1e300";
  key(r.line, "intensity");
  r.line += "1e-300";
  key(r.line, "id");
  num(r.line, static_cast<double>(id));
  r.line += '}';
  return r;
}

Request predict_batch(Rng& rng, int p, int n, bool with_extreme) {
  Request r;
  r.op = n > 64 ? Op::PredictBatch256 : Op::PredictBatch64;
  r.platform = p;
  r.extreme = with_extreme;
  r.line = begin("predict_batch");
  platform_field(r.line, "platform", p);
  key(r.line, "elements");
  r.line += '[';
  for (int i = 0; i < n; ++i) {
    if (i) r.line += ',';
    if (with_extreme && i == 0) {
      r.flops.push_back(kExtremeFlops);
      r.bytes.push_back(kExtremeFlops / kExtremeIntensity);
      r.line += "{\"flops\":1e300,\"intensity\":1e-300}";
      continue;
    }
    const double flops = 1e9 * log2_uniform(rng, 0, 4);
    const double intensity = log2_uniform(rng, -5, 10);
    r.flops.push_back(flops);
    r.bytes.push_back(flops / intensity);
    r.line += "{\"flops\":";
    num(r.line, flops);
    r.line += ",\"intensity\":";
    num(r.line, intensity);
    r.line += '}';
  }
  r.line += "]}";
  return r;
}

Request params(int p) {
  Request r;
  r.op = Op::Params;
  r.platform = p;
  r.line = begin("params");
  platform_field(r.line, "platform", p);
  r.line += '}';
  return r;
}

/// A policy question whose period is three times the nominal busy time
/// under `m`, so the nominal point is always feasible.
Request policy(Rng& rng, int p, const char* objective, const Machine& m) {
  Request r;
  r.op = Op::PolicyAdvise;
  r.platform = p;
  const double flops = 1e11 * log2_uniform(rng, 0, 4);
  const double intensity = log2_uniform(rng, -3, 8);
  r.flops = {flops};
  r.bytes = {flops / intensity};
  r.objective = objective;
  r.period_s = 3.0 * perfbench::predict(m, flops, flops / intensity).time_s;
  r.line = begin("policy_advise");
  platform_field(r.line, "platform", p);
  key(r.line, "objective");
  r.line += '"';
  r.line += objective;
  r.line += '"';
  key(r.line, "flops");
  num(r.line, flops);
  key(r.line, "intensity");
  num(r.line, intensity);
  key(r.line, "period_s");
  num(r.line, r.period_s);
  r.line += '}';
  return r;
}

Request crossover(int a, int b, Metric metric, double lo, double hi,
                  bool default_bracket) {
  Request r;
  r.op = Op::Crossover;
  r.platform = a;
  r.platform_b = b;
  r.metric = metric;
  r.lo = lo;
  r.hi = hi;
  r.line = begin("crossover");
  platform_field(r.line, "a", a);
  platform_field(r.line, "b", b);
  key(r.line, "metric");
  r.line += '"';
  r.line += kMetricNames[static_cast<int>(metric)];
  r.line += '"';
  if (!default_bracket) {
    key(r.line, "lo");
    num(r.line, lo);
    key(r.line, "hi");
    num(r.line, hi);
  }
  r.line += '}';
  return r;
}

Request sensitivity(Rng& rng, int p) {
  Request r;
  r.op = Op::Sensitivity;
  r.platform = p;
  r.metric = static_cast<Metric>(rng.below(3));
  r.intensity = log2_uniform(rng, -4, 9);
  r.line = begin("sensitivity");
  platform_field(r.line, "platform", p);
  key(r.line, "intensity");
  num(r.line, r.intensity);
  key(r.line, "metric");
  r.line += '"';
  r.line += kMetricNames[static_cast<int>(r.metric)];
  r.line += "\"}";
  return r;
}

Request sweep(Rng& rng, int p) {
  Request r;
  r.op = Op::ScenarioSweep;
  r.platform = p;
  for (int i = 0; i < 8; ++i) r.sweep_intensity.push_back(log2_uniform(rng, -4, 9));
  const double u = rng.uniform();
  r.sweep_divisor = {1.0, 1.0 + u, 2.0 + u, 4.0 + u};
  r.line = begin("scenario_sweep");
  platform_field(r.line, "platform", p);
  key(r.line, "intensities");
  r.line += '[';
  for (std::size_t i = 0; i < r.sweep_intensity.size(); ++i) {
    if (i) r.line += ',';
    num(r.line, r.sweep_intensity[i]);
  }
  r.line += ']';
  key(r.line, "cap_divisors");
  r.line += '[';
  for (std::size_t i = 0; i < r.sweep_divisor.size(); ++i) {
    if (i) r.line += ',';
    num(r.line, r.sweep_divisor[i]);
  }
  r.line += "]}";
  return r;
}

int platform_with_points(Rng& rng) {
  for (;;) {
    const int p = rng.below(static_cast<int>(platforms().size()));
    if (platforms()[static_cast<std::size_t>(p)].has_points) return p;
  }
}

/// Tuple k of a platform's measurement stream: a 32-point intensity grid
/// over 2^-4..2^9 crossed with four problem sizes, so every window holds
/// compute-, memory- and cap-bound shapes. Time is exact; energy carries
/// 1% lognormal noise (noisy time would be an errors-in-variables
/// regressor, a property of the data rather than of the learner).
void add_tuples(Request& r, Rng& rng, const Machine& g, std::uint64_t first,
                int n) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = first + static_cast<std::uint64_t>(i);
    const double intensity = std::exp2(-4.0 + 13.0 * static_cast<double>(k % 32) / 31.0);
    const double flops = 1e9 * std::exp2(static_cast<double>((k / 32) % 4));
    const double bytes = flops / intensity;
    const Prediction truth = perfbench::predict(g, flops, bytes);
    r.flops.push_back(flops);
    r.bytes.push_back(bytes);
    r.seconds.push_back(truth.time_s);
    r.joules.push_back(truth.energy_j * std::exp(0.01 * rng.normal()));
  }
}

void tuples_json(std::string& s, const Request& r) {
  s += '[';
  for (std::size_t i = 0; i < r.flops.size(); ++i) {
    if (i) s += ',';
    s += "{\"flops\":";
    num(s, r.flops[i]);
    s += ",\"bytes\":";
    num(s, r.bytes[i]);
    s += ",\"seconds\":";
    num(s, r.seconds[i]);
    s += ",\"joules\":";
    num(s, r.joules[i]);
    s += '}';
  }
  s += ']';
}

}  // namespace

double Rng::normal() {
  // Box-Muller; one deviate per call keeps the stream position simple.
  const double u1 = std::max(uniform(), 0x1.0p-60);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

const char* op_label(Op op) {
  switch (op) {
    case Op::Predict: return "predict";
    case Op::PredictBatch64: return "predict_batch64";
    case Op::PredictBatch256: return "predict_batch256";
    case Op::Crossover: return "crossover";
    case Op::Params: return "params";
    case Op::PolicyAdvise: return "policy_advise";
    case Op::Sensitivity: return "sensitivity";
    case Op::ScenarioSweep: return "scenario_sweep";
    case Op::Observe: return "observe";
    case Op::Refit: return "refit";
    case Op::Fit: return "fit";
    case Op::kCount: break;
  }
  return "?";
}

const char* op_type(Op op) {
  switch (op) {
    case Op::PredictBatch64:
    case Op::PredictBatch256: return "predict_batch";
    default: return op_label(op);
  }
}

const std::vector<Platform>& platforms() {
  static const std::vector<Platform> all = [] {
    std::vector<Platform> out;
    for (const archline::platforms::PlatformSpec& spec :
         archline::platforms::all_platforms()) {
      const archline::core::MachineParams mp = spec.machine();
      Platform p;
      p.name = spec.name;
      p.machine = Machine{mp.tau_flop, mp.eps_flop, mp.tau_mem,
                          mp.eps_mem, mp.pi1, mp.delta_pi};
      // The learner's ground truth: Table I's rates and constant power,
      // with the memory energy set so both engines draw the same power
      // and the usable power at 1.5x that. Every window then holds
      // compute-, cap- and memory-bound shapes, and the cap slows the
      // balance point by a third, so all six constants are identifiable.
      p.generator = p.machine;
      p.generator.eps_mem = p.machine.pi_flop() * p.machine.tau_mem;
      p.generator.delta_pi = 1.5 * p.machine.pi_flop();
      p.has_points = !spec.operating_points.empty();
      if (p.has_points) p.nominal_point = spec.operating_points.nominal().label;
      out.push_back(std::move(p));
    }
    return out;
  }();
  return all;
}

bool parse_workload(const std::string& name, WorkloadKind& out) {
  if (name == "hot_cached") out = WorkloadKind::HotCached;
  else if (name == "cold_model") out = WorkloadKind::ColdModel;
  else if (name == "learn_refit") out = WorkloadKind::LearnRefit;
  else return false;
  return true;
}

std::vector<Request> hot_pool(std::uint64_t seed) {
  Rng rng(seed, 0x407);
  const int n = static_cast<int>(platforms().size());
  std::vector<Request> pool;
  for (int p = 0; p < n; ++p) {
    for (int i = 0; i < 3; ++i) pool.push_back(predict(rng, p));
    pool.push_back(params(p));
    if (platforms()[static_cast<std::size_t>(p)].has_points)
      pool.push_back(policy(rng, p, kObjectives[p % 3],
                            platforms()[static_cast<std::size_t>(p)].machine));
    const int b = (p + 1 + rng.below(n - 1)) % n;
    pool.push_back(crossover(p, b, static_cast<Metric>(p % 3), 1.0 / 64.0,
                             512.0, /*default_bracket=*/true));
  }
  return pool;
}

std::vector<Request> cold_round(std::uint64_t seed, int conn,
                                std::uint64_t round) {
  Rng rng(seed, static_cast<std::uint64_t>(conn) + 0xC01D, round);
  const int n = static_cast<int>(platforms().size());
  // The two extreme requests do not depend on the seed.
  const int fixed = static_cast<int>((round + static_cast<std::uint64_t>(conn)) %
                                     static_cast<std::uint64_t>(n));
  std::vector<Request> out;
  out.reserve(kColdRoundSize);
  for (int i = 0; i < 15; ++i) out.push_back(predict(rng, rng.below(n)));
  out.push_back(extreme_predict(fixed, round * 64 + static_cast<std::uint64_t>(conn)));
  out.push_back(predict_batch(rng, rng.below(n), 64, false));
  out.push_back(predict_batch(rng, fixed, 64, true));
  out.push_back(predict_batch(rng, rng.below(n), 256, false));
  for (int i = 0; i < 4; ++i) {
    const int p = platform_with_points(rng);
    out.push_back(policy(rng, p, kObjectives[rng.below(3)],
                         platforms()[static_cast<std::size_t>(p)].machine));
  }
  for (int i = 0; i < 4; ++i) {
    const int a = rng.below(n);
    const int b = (a + 1 + rng.below(n - 1)) % n;
    const auto metric = static_cast<Metric>(rng.below(3));
    const double lo = log2_uniform(rng, -6, -3);
    const double hi = log2_uniform(rng, 6, 9);
    out.push_back(crossover(a, b, metric, lo, hi, false));
  }
  for (int i = 0; i < 4; ++i) out.push_back(sensitivity(rng, rng.below(n)));
  out.push_back(sweep(rng, rng.below(n)));
  // Seeded order within the round (Fisher-Yates).
  for (std::size_t i = out.size() - 1; i > 0; --i)
    std::swap(out[i], out[static_cast<std::size_t>(rng.below(static_cast<int>(i + 1)))]);
  return out;
}

Request calibration_fit(std::uint64_t seed, int p) {
  Rng rng(seed, static_cast<std::uint64_t>(p) + 0xF17, 0);
  Request r;
  r.op = Op::Fit;
  r.platform = p;
  add_tuples(r, rng, platforms()[static_cast<std::size_t>(p)].generator, 0,
             kCalibrationTuples);
  // A calibration campaign measures idle and peak power directly; the
  // fit takes them as anchors for pi1 and the cap (FitOptions hints).
  const Machine& g = platforms()[static_cast<std::size_t>(p)].generator;
  r.idle_watts = g.pi1;
  r.max_watts = g.pi1 + g.delta_pi;
  r.line = begin("fit");
  platform_field(r.line, "platform", p);
  r.line += ",\"seed_online\":true";
  key(r.line, "idle_watts");
  num(r.line, r.idle_watts);
  key(r.line, "max_watts");
  num(r.line, r.max_watts);
  key(r.line, "observations");
  tuples_json(r.line, r);
  r.line += '}';
  return r;
}

Request observe_batch(std::uint64_t seed, int p, std::uint64_t round,
                      int index) {
  Rng rng(seed, static_cast<std::uint64_t>(p) + 0x0B5,
          round * kObservesPerRound + static_cast<std::uint64_t>(index));
  Request r;
  r.op = Op::Observe;
  r.platform = p;
  add_tuples(r, rng, platforms()[static_cast<std::size_t>(p)].generator,
             static_cast<std::uint64_t>(index) * kTuplesPerObserve,
             kTuplesPerObserve);
  r.line = begin("observe");
  platform_field(r.line, "platform", p);
  key(r.line, "observations");
  tuples_json(r.line, r);
  r.line += '}';
  return r;
}

std::vector<Request> learn_reads(std::uint64_t seed, int p) {
  Rng rng(seed, static_cast<std::uint64_t>(p) + 0x4EAD);
  const Platform& pf = platforms()[static_cast<std::size_t>(p)];
  std::vector<Request> out;
  for (int i = 0; i < 4; ++i) out.push_back(predict(rng, p));
  out.push_back(params(p));
  if (pf.has_points) {
    out.push_back(policy(rng, p, "min_energy", pf.generator));
    out.push_back(policy(rng, p, "min_edp", pf.generator));
  }
  return out;
}

Request refit_request(int p) {
  Request r;
  r.op = Op::Refit;
  r.platform = p;
  r.line = begin("refit");
  platform_field(r.line, "platform", p);
  r.line += '}';
  return r;
}

}  // namespace perfbench
