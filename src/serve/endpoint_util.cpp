#include "serve/endpoint_util.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/scenarios.hpp"
#include "fit/online/snapshot.hpp"
#include "platforms/platform_db.hpp"

namespace archline::serve {

void bad(std::string message) {
  throw RequestError{"bad_request", std::move(message)};
}

double require_number(const Json& req, std::string_view key) {
  const Json* v = req.find(key);
  if (!v) bad("missing required field \"" + std::string(key) + "\"");
  if (!v->is_number())
    bad("field \"" + std::string(key) + "\" must be a number");
  return v->as_number();
}

std::string_view require_string(const Json& req, std::string_view key) {
  const Json* v = req.find(key);
  if (!v) bad("missing required field \"" + std::string(key) + "\"");
  if (!v->is_string())
    bad("field \"" + std::string(key) + "\" must be a string");
  return v->as_string_view();
}

core::Precision parse_precision(const Json& req) {
  const std::string_view p = req.string_view_or("precision", "sp");
  if (p == "sp" || p == "single") return core::Precision::Single;
  if (p == "dp" || p == "double") return core::Precision::Double;
  bad("unknown precision \"" + std::string(p) +
      "\" (expected \"sp\" or \"dp\")");
}

core::MemLevel parse_level(const Json& req) {
  const std::string_view l = req.string_view_or("level", "dram");
  if (l == "dram") return core::MemLevel::DRAM;
  if (l == "l1") return core::MemLevel::L1;
  if (l == "l2") return core::MemLevel::L2;
  bad("unknown level \"" + std::string(l) +
      "\" (expected \"dram\", \"l1\", or \"l2\")");
}

const platforms::PlatformSpec& lookup_platform(std::string_view name) {
  if (const platforms::PlatformSpec* spec = platforms::find_platform(name))
    return *spec;
  // Miss path: list what IS available so clients can self-correct.
  // Allocation is fine here — errors are off the hot path by definition.
  std::string message = "no platform named \"" + std::string(name) +
                        "\"; available:";
  bool first = true;
  for (const platforms::PlatformSpec& p : platforms::all_platforms()) {
    message += first ? " " : ", ";
    message += p.name;
    first = false;
  }
  throw RequestError{"unknown_platform", std::move(message)};
}

namespace {

/// MachineParams from an inline {"machine": {...}} object.
core::MachineParams machine_from_json(const Json& spec) {
  core::MachineParams m;
  m.tau_flop = require_number(spec, "tau_flop");
  m.eps_flop = require_number(spec, "eps_flop");
  m.tau_mem = require_number(spec, "tau_mem");
  m.eps_mem = require_number(spec, "eps_mem");
  m.pi1 = require_number(spec, "pi1");
  const Json* cap = spec.find("delta_pi");
  m.delta_pi = (cap && cap->is_number()) ? cap->as_number() : core::kUncapped;
  return m;
}

}  // namespace

core::MachineParams platform_machine(const EndpointContext& ctx,
                                     std::string_view name,
                                     core::Precision prec) {
  const platforms::PlatformSpec& spec = lookup_platform(name);
  core::MachineParams m;
  try {
    m = spec.machine(prec);
  } catch (const std::exception& e) {
    throw RequestError{"unsupported", e.what()};
  }
  // Online overlay: live estimates replace the static Table I machine.
  // Only the base single-precision machine is learned from the stream;
  // DP constants stay static (documented in docs/MODEL.md).
  if (ctx.online && prec == core::Precision::Single) {
    if (const std::shared_ptr<const fit::online::ParamSnapshot> snap =
            ctx.online->published(name))
      m = snap->machine;
  }
  return m;
}

core::MachineParams resolve_machine(const EndpointContext& ctx,
                                    std::string_view& name_out) {
  const Json& req = ctx.req;
  core::MachineParams m;
  if (const Json* inline_spec = req.find("machine")) {
    if (!inline_spec->is_object()) bad("\"machine\" must be an object");
    m = machine_from_json(*inline_spec);
    name_out = req.string_view_or("name", "inline");
  } else {
    const std::string_view platform_name = require_string(req, "platform");
    const platforms::PlatformSpec& spec = lookup_platform(platform_name);
    const core::Precision prec = parse_precision(req);
    const core::MemLevel level = parse_level(req);
    try {
      m = (level == core::MemLevel::DRAM) ? spec.machine(prec)
                                          : spec.machine_at_level(level, prec);
    } catch (const std::exception& e) {
      throw RequestError{"unsupported", e.what()};
    }
    // Online overlay: live estimates replace the static Table I
    // machine. Only the base SP @ DRAM machine is learned from the
    // stream; DP and cache-level constants stay static.
    if (ctx.online && prec == core::Precision::Single &&
        level == core::MemLevel::DRAM) {
      if (const std::shared_ptr<const fit::online::ParamSnapshot> snap =
              ctx.online->published(platform_name))
        m = snap->machine;
    }
    name_out = platform_name;
  }
  if (req.bool_or("uncapped", false)) m = m.without_cap();
  if (const Json* k = req.find("cap_divisor")) {
    if (!k->is_number() || k->as_number() < 1.0)
      bad("\"cap_divisor\" must be a number >= 1");
    m = core::with_cap_scaled(m, k->as_number());
  }
  if (const Json* w = req.find("cap_watts")) {
    if (!w->is_number() || w->as_number() <= 0.0)
      bad("\"cap_watts\" must be a positive number");
    m = core::with_cap(m, w->as_number());
  }
  try {
    m.validate("request machine");
  } catch (const std::exception& e) {
    bad(e.what());
  }
  return m;
}

fit::online::Sample parse_observation_tuple(const Json& row,
                                            std::size_t index) {
  if (!row.is_object())
    bad("observation " + std::to_string(index) + " must be an object");
  fit::online::Sample s;
  s.flops = require_number(row, "flops");
  s.bytes = require_number(row, "bytes");
  s.seconds = require_number(row, "seconds");
  s.joules = require_number(row, "joules");
  if (!(s.flops >= 0.0) || !(s.bytes > 0.0) || !(s.seconds > 0.0) ||
      !(s.joules > 0.0))
    bad("observation " + std::to_string(index) +
        " needs bytes/seconds/joules > 0 and flops >= 0");
  return s;
}

core::Workload resolve_workload(const Json& req) {
  const double flops = req.number_or("flops", 1e9);
  if (!(flops > 0.0)) bad("\"flops\" must be positive");
  const Json* bytes = req.find("bytes");
  const Json* intensity = req.find("intensity");
  core::Workload w;
  if (bytes) {
    if (!bytes->is_number() || !(bytes->as_number() > 0.0))
      bad("\"bytes\" must be a positive number");
    w = core::Workload{.flops = flops, .bytes = bytes->as_number()};
  } else if (intensity) {
    if (!intensity->is_number() || !(intensity->as_number() > 0.0))
      bad("\"intensity\" must be a positive number");
    w = core::Workload::from_intensity(flops, intensity->as_number());
  } else {
    bad("need \"bytes\" or \"intensity\"");
  }
  const double i = w.intensity();
  if (!std::isfinite(w.bytes) || !(w.bytes > 0.0) || !std::isfinite(i) ||
      !(i > 0.0))
    bad("\"flops\" with \"bytes\" or \"intensity\" gives no finite "
        "positive workload");
  return w;
}

void require_finite_prediction(std::initializer_list<double> values) {
  for (const double v : values)
    if (!std::isfinite(v)) bad("the prediction is not a finite number");
}

core::Metric parse_metric(const Json& req) {
  const std::string_view m = req.string_view_or("metric", "performance");
  if (m == "performance") return core::Metric::Performance;
  if (m == "efficiency") return core::Metric::EnergyEfficiency;
  if (m == "power") return core::Metric::Power;
  bad("unknown metric \"" + std::string(m) +
      "\" (expected \"performance\", \"efficiency\", or \"power\")");
}

Json begin_reply(const Endpoint& endpoint, const Json& req) {
  Json out = Json::object();
  out.set("ok", true);
  // The name is a view into the static registry — outlives everything.
  out.set("type", Json::view(endpoint.name));
  if (const Json* id = req.find("id")) out.set("id", *id);
  return out;
}

void add_prediction(Json& out, const core::MachineParams& m,
                    const core::Workload& w) {
  const double t = core::time(m, w);
  const double e = core::energy(m, w);
  const double p = core::avg_power(m, w);
  require_finite_prediction({t, e, p, w.flops / t, w.flops / e});
  out.set("intensity", w.intensity());
  out.set("time_s", t);
  out.set("energy_j", e);
  out.set("avg_power_w", p);
  out.set("performance_flops", w.flops / t);
  out.set("efficiency_flops_per_joule", w.flops / e);
  out.set("regime", core::regime_name(core::regime(m, w)));
}

}  // namespace archline::serve
