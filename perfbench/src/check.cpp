#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr std::uint64_t kWindowCapacity = 4096;  // OnlineFitOptions default
constexpr const char* kParamNames[] = {"tau_flop", "eps_flop", "tau_mem",
                                       "eps_mem",  "pi1",      "delta_pi"};

double& param(Machine& m, int i) {
  switch (i) {
    case 0: return m.tau_flop;
    case 1: return m.eps_flop;
    case 2: return m.tau_mem;
    case 3: return m.eps_mem;
    case 4: return m.pi1;
    default: return m.delta_pi;
  }
}

/// Our own +-1e-4 log-step central difference of log(metric) (the
/// endpoint's documented definition), with its two guards.
double elasticity(const Machine& m, int i, Metric metric, double intensity) {
  if (i == 4 && m.pi1 == 0.0) return 0.0;
  if (i == 5 && !m.capped()) return 0.0;
  constexpr double kStep = 1e-4;
  Machine up = m, down = m;
  param(up, i) *= std::exp(kStep);
  param(down, i) *= std::exp(-kStep);
  return (std::log(metric_at(up, metric, intensity)) -
          std::log(metric_at(down, metric, intensity))) /
         (2.0 * kStep);
}

std::string fmt(const char* what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: got %.17g want %.17g", what, got, want);
  return buf;
}

/// Reads a {"tau_flop",...,"delta_pi"} object (null delta_pi = uncapped).
bool read_machine(const JsonDoc& doc, std::int32_t obj, Machine& out) {
  if (obj < 0) return false;
  out.tau_flop = doc.num(obj, "tau_flop");
  out.eps_flop = doc.num(obj, "eps_flop");
  out.tau_mem = doc.num(obj, "tau_mem");
  out.eps_mem = doc.num(obj, "eps_mem");
  out.pi1 = doc.num(obj, "pi1");
  out.delta_pi = doc.is_null(obj, "delta_pi")
                     ? std::numeric_limits<double>::infinity()
                     : doc.num(obj, "delta_pi");
  return std::isfinite(out.tau_flop) && std::isfinite(out.eps_flop) &&
         std::isfinite(out.tau_mem) && std::isfinite(out.eps_mem) &&
         std::isfinite(out.pi1) && !std::isnan(out.delta_pi);
}

bool finite_prediction(const JsonDoc& d, std::int32_t row) {
  return std::isfinite(d.num(row, "time_s")) &&
         std::isfinite(d.num(row, "energy_j")) &&
         std::isfinite(d.num(row, "avg_power_w"));
}

}  // namespace

Checker::Checker() {
  for (const Platform& p : platforms()) {
    machine.push_back(p.machine);
    epoch.push_back(0);
    tuples.push_back(0);
  }
}

Verdict Checker::wrong_reply(const Request& req, std::string_view reply,
                             const std::string& what) {
  if (++wrong <= 5)
    std::fprintf(stderr, "perfbench: wrong %s reply (%s)\n  request: %.300s\n  reply:   %.300s\n",
                 op_label(req.op), what.c_str(), req.line.c_str(),
                 std::string(reply).c_str());
  return Verdict::Wrong;
}

Verdict Checker::check(const Request& req, std::string_view reply) {
  if (!doc_.parse(reply) || doc_.root().type != JsonDoc::Type::Object)
    return wrong_reply(req, reply, "not a JSON object");
  if (!doc_.is_true(0, "ok")) {
    // A typed error is the accepted outcome for an extreme input.
    if (req.extreme && !doc_.str(0, "error").empty()) return Verdict::Ok;
    return wrong_reply(req, reply, "ok is not true");
  }
  if (doc_.str(0, "type") != op_type(req.op))
    return wrong_reply(req, reply, "reply type does not match the request "
                                   "(out of order?)");
  std::string why;
  Verdict v = Verdict::Wrong;
  switch (req.op) {
    case Op::Predict: v = check_predict(req, why); break;
    case Op::PredictBatch64:
    case Op::PredictBatch256: v = check_batch(req, why); break;
    case Op::Crossover: v = check_crossover(req, why); break;
    case Op::Params: v = check_params(req, why); break;
    case Op::PolicyAdvise: v = check_policy(req, why); break;
    case Op::Sensitivity: v = check_sensitivity(req, why); break;
    case Op::ScenarioSweep: v = check_sweep(req, why); break;
    case Op::Observe:
      if (doc_.num(0, "accepted") == static_cast<double>(req.flops.size())) {
        tuples[static_cast<std::size_t>(req.platform)] += req.flops.size();
        v = Verdict::Ok;
      } else {
        why = "accepted count";
      }
      break;
    case Op::Refit: v = check_refit(req, why); break;
    case Op::Fit: v = check_fit(req, why); break;
    case Op::kCount: break;
  }
  if (v == Verdict::Wrong) return wrong_reply(req, reply, why);
  return v;
}

bool Checker::prediction_row(std::int32_t row, const Machine& m, double flops,
                             double bytes, std::string& why) const {
  const Prediction p = predict(m, flops, bytes);
  // Eq. (7) is E/T in closed form; it must agree with eqs. (1)/(3).
  const double p7 = avg_power_eq7(m, flops / bytes);
  if (!near(p.avg_power_w, p7, 1e-6)) {
    why = fmt("eq. (7) power", p.avg_power_w, p7);
    return false;
  }
  // One pass over the row's members (this is the client's hot loop).
  const struct {
    std::string_view key;
    double want;
  } fields[] = {{"time_s", p.time_s},
                {"energy_j", p.energy_j},
                {"avg_power_w", p.avg_power_w},
                {"performance_flops", p.performance},
                {"efficiency_flops_per_joule", p.efficiency},
                {"intensity", flops / bytes}};
  int seen = 0;
  bool regime_seen = false;
  for (std::int32_t c = doc_.at(row).first; c >= 0; c = doc_.at(c).next) {
    const JsonDoc::Node& n = doc_.at(c);
    if (n.key == "regime") {
      regime_seen = true;
      if (!p.regime_tie && n.text != regime_name(p.regime)) {
        why = std::string("regime ") + std::string(n.text) + " want " +
              regime_name(p.regime);
        return false;
      }
      continue;
    }
    for (const auto& f : fields) {
      if (n.key != f.key) continue;
      const double got = n.type == JsonDoc::Type::Number
                             ? n.number
                             : std::numeric_limits<double>::quiet_NaN();
      if (!near(got, f.want, kModelRel)) {
        why = fmt(f.key.data(), got, f.want);
        return false;
      }
      ++seen;
      break;
    }
  }
  if (seen != 6 || !regime_seen) {
    why = "prediction fields missing";
    return false;
  }
  return true;
}

Verdict Checker::check_predict(const Request& req, std::string& why) {
  if (req.extreme) return finite_prediction(doc_, 0) ? Verdict::Ok : Verdict::Failed;
  if (doc_.str(0, "platform") != platforms()[static_cast<std::size_t>(req.platform)].name) {
    why = "platform";
    return Verdict::Wrong;
  }
  return prediction_row(0, machine[static_cast<std::size_t>(req.platform)],
                        req.flops[0], req.bytes[0], why)
             ? Verdict::Ok
             : Verdict::Wrong;
}

Verdict Checker::check_batch(const Request& req, std::string& why) {
  const std::int32_t results = doc_.find(0, "results");
  if (results < 0 || doc_.at(results).count != static_cast<std::int32_t>(req.flops.size()) ||
      doc_.num(0, "count") != static_cast<double>(req.flops.size())) {
    why = "result count";
    return Verdict::Wrong;
  }
  const Machine& m = machine[static_cast<std::size_t>(req.platform)];
  bool failed = false;
  std::size_t i = 0;
  for (std::int32_t row = doc_.at(results).first; row >= 0;
       row = doc_.at(row).next, ++i) {
    if (req.extreme && i == 0) {
      failed = !finite_prediction(doc_, row);
      continue;
    }
    if (!prediction_row(row, m, req.flops[i], req.bytes[i], why)) {
      why = "element " + std::to_string(i) + ": " + why;
      return Verdict::Wrong;
    }
  }
  return failed ? Verdict::Failed : Verdict::Ok;
}

Verdict Checker::check_crossover(const Request& req, std::string& why) {
  const Machine& a = machine[static_cast<std::size_t>(req.platform)];
  const Machine& b = machine[static_cast<std::size_t>(req.platform_b)];
  const std::int32_t found = doc_.find(0, "found");
  if (found < 0 || doc_.at(found).type != JsonDoc::Type::Bool) {
    why = "found";
    return Verdict::Wrong;
  }
  const auto gap = [&](double x) {
    return std::log(metric_at(a, req.metric, x)) - std::log(metric_at(b, req.metric, x));
  };
  if (!doc_.at(found).boolean) {
    // Not found is right only if the bracket shows no sign change.
    if ((gap(req.lo) > 0.0) != (gap(req.hi) > 0.0)) {
      why = "found:false but the metric gap changes sign on the bracket";
      return Verdict::Wrong;
    }
    return Verdict::Ok;
  }
  const double x = doc_.num(0, "intensity");
  if (!(x >= req.lo * (1 - 1e-12) && x <= req.hi * (1 + 1e-12))) {
    why = fmt("intensity outside bracket", x, req.lo);
    return Verdict::Wrong;
  }
  const double va = doc_.num(0, "value_a"), vb = doc_.num(0, "value_b");
  if (!near(va, metric_at(a, req.metric, x), kModelRel)) {
    why = fmt("value_a", va, metric_at(a, req.metric, x));
    return Verdict::Wrong;
  }
  if (!near(vb, metric_at(b, req.metric, x), kModelRel)) {
    why = fmt("value_b", vb, metric_at(b, req.metric, x));
    return Verdict::Wrong;
  }
  if (!near(va, vb, kCrossoverTie)) {
    why = fmt("value_a vs value_b at the crossover", va, vb);
    return Verdict::Wrong;
  }
  return Verdict::Ok;
}

Verdict Checker::check_policy(const Request& req, std::string& why) {
  const Platform& pf = platforms()[static_cast<std::size_t>(req.platform)];
  const Machine& m = machine[static_cast<std::size_t>(req.platform)];
  if (!near(doc_.num(0, "flops"), req.flops[0], 1e-15) ||
      !near(doc_.num(0, "bytes"), req.bytes[0], 1e-15)) {
    why = "workload echo";
    return Verdict::Wrong;
  }
  const std::int32_t rec = doc_.find(0, "recommended");
  const std::int32_t plans = doc_.find(0, "plans");
  const std::int32_t point = doc_.find(rec, "point");
  if (rec < 0 || plans < 0 || point < 0 || doc_.at(plans).count == 0) {
    why = "recommended / plans missing";
    return Verdict::Wrong;
  }
  const double best = doc_.num(rec, "objective_value");
  const std::string_view label = doc_.str(point, "label");
  const std::string_view plan = doc_.str(rec, "plan");
  double min_value = std::numeric_limits<double>::infinity();
  bool listed = false;
  double nominal_busy = std::numeric_limits<double>::quiet_NaN();
  for (std::int32_t row = doc_.at(plans).first; row >= 0; row = doc_.at(row).next) {
    if (doc_.str(row, "point") == pf.nominal_point &&
        doc_.str(row, "plan") == "race_to_idle")
      nominal_busy = doc_.num(row, "busy_s");
    if (!doc_.is_true(row, "feasible")) continue;
    const double v = doc_.num(row, "objective_value");
    min_value = std::min(min_value, v);
    if (doc_.str(row, "point") == label && doc_.str(row, "plan") == plan && v == best)
      listed = true;
  }
  if (!listed) {
    why = "recommended plan is not among the listed feasible plans";
    return Verdict::Wrong;
  }
  if (best != min_value) {
    why = fmt("recommended objective is not the argmin", best, min_value);
    return Verdict::Wrong;
  }
  const double e = doc_.num(rec, "energy_j"), t = doc_.num(rec, "time_s");
  const double busy = doc_.num(rec, "busy_s"), pi1 = doc_.num(point, "pi1_w");
  if (!(e >= pi1 * busy * (1.0 - 1e-12))) {
    why = fmt("E >= pi1 * busy time", e, pi1 * busy);
    return Verdict::Wrong;
  }
  if (!near(doc_.num(rec, "avg_power_w"), e / t, kModelRel) ||
      !near(doc_.num(rec, "edp"), e * busy, kModelRel)) {
    why = "avg_power_w / edp of the recommendation";
    return Verdict::Wrong;
  }
  const double want = predict(m, req.flops[0], req.bytes[0]).time_s;
  if (!near(nominal_busy, want, kModelRel)) {
    why = fmt("nominal-point busy time vs eq. (3)", nominal_busy, want);
    return Verdict::Wrong;
  }
  return Verdict::Ok;
}

Verdict Checker::check_sensitivity(const Request& req, std::string& why) {
  const std::int32_t el = doc_.find(0, "elasticities");
  const Machine& m = machine[static_cast<std::size_t>(req.platform)];
  double top = -1.0;
  const char* dominant = "";
  for (int i = 0; i < 6; ++i) {
    const double got = doc_.num(el, kParamNames[i]);
    const double want = elasticity(m, i, req.metric, req.intensity);
    if (!(std::abs(got - want) <= kElasticityAbs)) {
      why = fmt(kParamNames[i], got, want);
      return Verdict::Wrong;
    }
    if (std::abs(got) > top) {
      top = std::abs(got);
      dominant = kParamNames[i];
    }
  }
  if (doc_.str(0, "dominant") != dominant) {
    why = "dominant is not the largest |elasticity|";
    return Verdict::Wrong;
  }
  return Verdict::Ok;
}

Verdict Checker::check_sweep(const Request& req, std::string& why) {
  const std::size_t ni = req.sweep_intensity.size(), nk = req.sweep_divisor.size();
  const std::int32_t rows = doc_.find(0, "sweep");
  if (rows < 0 || doc_.at(rows).count != static_cast<std::int32_t>(ni * nk)) {
    why = "sweep size";
    return Verdict::Wrong;
  }
  std::int32_t row = doc_.at(rows).first;
  for (std::size_t k = 0; k < nk; ++k) {
    Machine mk = machine[static_cast<std::size_t>(req.platform)];
    if (mk.capped()) mk.delta_pi /= req.sweep_divisor[k];
    for (std::size_t i = 0; i < ni; ++i, row = doc_.at(row).next) {
      const double x = req.sweep_intensity[i];
      if (doc_.num(row, "intensity") != x ||
          doc_.num(row, "cap_divisor") != req.sweep_divisor[k]) {
        why = "grid order";
        return Verdict::Wrong;
      }
      const double checks[][2] = {
          {doc_.num(row, "power_w"), avg_power_eq7(mk, x)},
          {doc_.num(row, "performance_flops"), metric_at(mk, Metric::Performance, x)},
          {doc_.num(row, "efficiency_flops_per_joule"), metric_at(mk, Metric::Efficiency, x)}};
      for (const auto& c : checks)
        if (!near(c[0], c[1], kModelRel)) {
          why = fmt("sweep point", c[0], c[1]);
          return Verdict::Wrong;
        }
      const Prediction p = predict(mk, 1.0, 1.0 / x);
      if (!p.regime_tie && doc_.str(row, "regime") != regime_name(p.regime)) {
        why = "sweep regime";
        return Verdict::Wrong;
      }
    }
  }
  return Verdict::Ok;
}

Verdict Checker::check_params(const Request& req, std::string& why) {
  const auto p = static_cast<std::size_t>(req.platform);
  if (epoch[p] == 0) {
    if (doc_.is_true(0, "fitted") || doc_.num(0, "epoch") != 0.0) {
      why = "params of a platform never refitted";
      return Verdict::Wrong;
    }
    return Verdict::Ok;
  }
  Machine got;
  if (!doc_.is_true(0, "fitted") ||
      doc_.num(0, "epoch") != static_cast<double>(epoch[p]) ||
      !read_machine(doc_, doc_.find(0, "machine"), got)) {
    why = "params epoch / machine";
    return Verdict::Wrong;
  }
  for (int i = 0; i < 6; ++i)
    if (!(param(got, i) == param(machine[p], i) ||
          near(param(got, i), param(machine[p], i), 1e-15))) {
      why = fmt("params machine differs from the published refit", param(got, i),
                param(machine[p], i));
      return Verdict::Wrong;
    }
  return Verdict::Ok;
}

Verdict Checker::check_refit(const Request& req, std::string& why) {
  const auto p = static_cast<std::size_t>(req.platform);
  const Machine& g = platforms()[p].generator;
  Machine got;
  const bool counts_ok =
      doc_.num(0, "epoch") == static_cast<double>(epoch[p] + 1) &&
      doc_.num(0, "observations") == static_cast<double>(tuples[p]) &&
      doc_.num(0, "window_observations") ==
          static_cast<double>(std::min(tuples[p], kWindowCapacity));
  if (!read_machine(doc_, doc_.find(0, "machine"), got)) {
    why = "machine";
    return Verdict::Wrong;
  }
  // Later reads are judged at what was published, even if it is wrong.
  epoch[p] = static_cast<std::uint64_t>(doc_.num(0, "epoch"));
  machine[p] = got;
  if (!counts_ok) {
    why = "epoch / observation counts";
    return Verdict::Wrong;
  }
  // The re-solve recovers the time constants; the RLS-blended energy
  // constants and the cap are not judged (see README, "Output checks").
  if (!near(got.tau_flop, g.tau_flop, kTauRel) || !near(got.tau_mem, g.tau_mem, kTauRel)) {
    why = fmt("refit tau_flop", got.tau_flop, g.tau_flop) + ", " +
          fmt("tau_mem", got.tau_mem, g.tau_mem);
    return Verdict::Wrong;
  }
  return Verdict::Ok;
}

Verdict Checker::check_fit(const Request& req, std::string& why) {
  const auto p = static_cast<std::size_t>(req.platform);
  Machine got;
  if (doc_.num(0, "seeded") != static_cast<double>(req.flops.size()) ||
      doc_.str(0, "seeded_platform") != platforms()[p].name ||
      !read_machine(doc_, doc_.find(0, "machine"), got)) {
    why = "seeded count / machine";
    return Verdict::Wrong;
  }
  tuples[p] += req.flops.size();
  // What 256 tuples pin down: the time constants, pi1 (anchored by the
  // measured idle power), and the energy per flop and per byte including
  // the constant-power share (eps + pi1 * tau). The eps/pi1 split and
  // the cap are not judged (see README, "Output checks").
  const Machine& g = platforms()[p].generator;
  const double checks[][3] = {
      {got.tau_flop, g.tau_flop, kTauRel},
      {got.tau_mem, g.tau_mem, kTauRel},
      {got.pi1, g.pi1, kFitPi1Rel},
      {got.eps_flop + got.pi1 * got.tau_flop, g.eps_flop + g.pi1 * g.tau_flop, kFitEnergyRel},
      {got.eps_mem + got.pi1 * got.tau_mem, g.eps_mem + g.pi1 * g.tau_mem, kFitEnergyRel}};
  const char* names[] = {"tau_flop", "tau_mem", "pi1", "energy per flop", "energy per byte"};
  for (int i = 0; i < 5; ++i)
    if (!near(checks[i][0], checks[i][1], checks[i][2])) {
      why = "fit does not recover the generator: " + fmt(names[i], checks[i][0], checks[i][1]);
      return Verdict::Wrong;
    }
  return Verdict::Ok;
}

// ---- Self-test --------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&](const char* what, double got, double want) {
    if (!near(got, want, 1e-12)) {
      std::fprintf(stderr, "perfbench self-test: %s\n", fmt(what, got, want).c_str());
      ++failures;
    }
  };
  // By hand: 1 Tflop/s at 10 pJ/flop (pi_flop 10 W), 100 GB/s at
  // 100 pJ/B (pi_mem 10 W), pi1 50 W, usable power 15 W; B_tau = 10.
  const Machine m{1e-12, 1e-11, 1e-11, 1e-10, 50.0, 15.0};
  // I = 100: T = W tau_flop = 1 ms, E = 0.011 J + 50 W * 1 ms = 0.061 J.
  Prediction p = predict(m, 1e9, 1e7);
  expect("compute T", p.time_s, 1e-3);
  expect("compute E", p.energy_j, 0.061);
  expect("compute P", p.avg_power_w, 61.0);
  if (p.regime != Regime::Compute) ++failures;
  // I = 1: T = Q tau_mem = 10 ms, E = 0.11 J + 0.5 J.
  p = predict(m, 1e9, 1e9);
  expect("memory T", p.time_s, 1e-2);
  expect("memory E", p.energy_j, 0.61);
  if (p.regime != Regime::Memory) ++failures;
  // I = 10: T = 0.02 J / 15 W = 4/3 ms, P = pi1 + dpi = 65 W.
  p = predict(m, 1e9, 1e8);
  expect("cap T", p.time_s, 0.02 / 15.0);
  expect("cap P", p.avg_power_w, 65.0);
  if (p.regime != Regime::PowerCap) ++failures;
  // Eqs. (5)/(6): B+ = 10 * 10/5 = 20, B- = 10 * 5/10 = 5.
  expect("B+", balance_hi(m), 20.0);
  expect("B-", balance_lo(m), 5.0);
  // Eq. (7) on each branch and at the B+ boundary.
  expect("eq7 compute", avg_power_eq7(m, 100.0), 61.0);
  expect("eq7 memory", avg_power_eq7(m, 1.0), 61.0);
  expect("eq7 plateau", avg_power_eq7(m, 10.0), 65.0);
  expect("eq7 at B+", avg_power_eq7(m, 20.0), 65.0);
  // Uncapped: I = 10 is the balance point, P = 50 + 10 + 10 = 70 W.
  Machine free = m;
  free.delta_pi = std::numeric_limits<double>::infinity();
  expect("uncapped P", predict(free, 1e9, 1e8).avg_power_w, 70.0);
  expect("uncapped eq7", avg_power_eq7(free, 10.0), 70.0);
  // Degenerate cap 8 W < pi_flop, pi_mem: always on the 58 W plateau.
  Machine tight = m;
  tight.delta_pi = 8.0;
  expect("tight eq7", avg_power_eq7(tight, 1000.0), 58.0);
  expect("tight P", predict(tight, 1e9, 1e6).avg_power_w, 58.0);
  // Elasticities deep inside a regime: performance ~ 1/tau_flop when
  // compute-bound, ~ 1/tau_mem when memory-bound, and ~ 1 / (energy / cap)
  // on the plateau.
  const auto el = [&](int i, Metric metric, double x) {
    return elasticity(m, i, metric, x);
  };
  if (std::abs(el(0, Metric::Performance, 100.0) + 1.0) > 1e-9) ++failures;
  if (std::abs(el(2, Metric::Performance, 100.0)) > 1e-9) ++failures;
  if (std::abs(el(2, Metric::Performance, 1.0) + 1.0) > 1e-9) ++failures;
  if (std::abs(el(5, Metric::Performance, 10.0) - 1.0) > 1e-9) ++failures;
  // Performance at I = 100 is W/T = 1e12 flop/s.
  expect("metric perf", metric_at(m, Metric::Performance, 100.0), 1e12);
  // The reply reader.
  JsonDoc d;
  if (!d.parse(R"({"ok":true,"a":[1,2.5e-3,{"b":null}],"s":"x\"y","t":false})") ||
      !d.is_true(0, "ok") || d.at(d.find(0, "a")).count != 3 ||
      d.str(0, "s") != R"(x\"y)" || d.is_true(0, "t")) {
    std::fprintf(stderr, "perfbench self-test: JSON reader\n");
    ++failures;
  }
  const std::int32_t a = d.find(0, "a");
  expect("json number", d.at(d.at(d.at(a).first).next).number, 2.5e-3);
  if (d.parse("{\"ok\":tru}") || d.parse("[1,2") || d.parse("{} x")) {
    std::fprintf(stderr, "perfbench self-test: JSON reader accepts bad input\n");
    ++failures;
  }
  return failures;
}

}  // namespace perfbench
