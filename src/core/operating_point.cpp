#include "core/operating_point.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/roofline.hpp"
#include "core/scenarios.hpp"

namespace archline::core {

void OperatingPoint::validate() const {
  if (!(freq_scale > 0.0) || !std::isfinite(freq_scale))
    throw std::invalid_argument(
        "OperatingPoint: freq_scale must be positive and finite");
  if (!(energy_scale > 0.0) || !std::isfinite(energy_scale))
    throw std::invalid_argument(
        "OperatingPoint: energy_scale must be positive and finite");
  if (pi1_watts >= 0.0 && !std::isfinite(pi1_watts))
    throw std::invalid_argument("OperatingPoint: pi1_watts must be finite");
  if (!(idle_watts >= 0.0) || !std::isfinite(idle_watts))
    throw std::invalid_argument(
        "OperatingPoint: idle_watts must be >= 0 and finite");
}

double dvfs_energy_scale(double leakage_fraction, double s) noexcept {
  return leakage_fraction + (1.0 - leakage_fraction) * s * s;
}

MachineParams apply_operating_point(const MachineParams& m,
                                    const OperatingPoint& p) {
  p.validate();
  MachineParams out = m;
  out.tau_flop = m.tau_flop / p.freq_scale;
  out.eps_flop = m.eps_flop * p.energy_scale;
  if (p.scale_memory) {
    out.tau_mem = m.tau_mem / p.freq_scale;
    out.eps_mem = m.eps_mem * p.energy_scale;
  }
  if (p.pi1_watts >= 0.0) out.pi1 = p.pi1_watts;
  return out;
}

const OperatingPoint& OperatingPointTable::nominal() const {
  if (points.empty())
    throw std::invalid_argument("OperatingPointTable: empty table");
  return points.back();
}

double OperatingPointTable::park_watts() const noexcept {
  double park = 0.0;
  bool first = true;
  for (const OperatingPoint& p : points) {
    if (first || p.idle_watts < park) park = p.idle_watts;
    first = false;
  }
  return park;
}

void OperatingPointTable::validate() const {
  if (points.empty())
    throw std::invalid_argument("OperatingPointTable: empty table");
  double prev = 0.0;
  for (const OperatingPoint& p : points) {
    p.validate();
    if (!(p.freq_scale > prev))
      throw std::invalid_argument(
          "OperatingPointTable: freq_scale must be strictly increasing");
    prev = p.freq_scale;
  }
}

std::vector<MachineParams> machines_at_points(
    const MachineParams& base, std::span<const OperatingPoint> points) {
  std::vector<MachineParams> machines;
  machines.reserve(points.size());
  for (const OperatingPoint& p : points)
    machines.push_back(apply_operating_point(base, p));
  return machines;
}

void DvfsModel::validate() const {
  if (!(leakage_fraction >= 0.0) || leakage_fraction >= 1.0)
    throw std::invalid_argument("DvfsModel: leakage outside [0, 1)");
  if (!(min_scale > 0.0) || min_scale > 1.0)
    throw std::invalid_argument("DvfsModel: min_scale outside (0, 1]");
}

OperatingPoint dvfs_operating_point(const DvfsModel& model, double s) {
  model.validate();
  if (!(s >= model.min_scale) || s > 1.0)
    throw std::invalid_argument(
        "dvfs_operating_point: scale outside [min_scale, 1]");
  OperatingPoint p;
  char label[32];
  std::snprintf(label, sizeof label, "%.2fx", s);
  p.label = label;
  p.freq_scale = s;
  p.energy_scale = dvfs_energy_scale(model.leakage_fraction, s);
  p.scale_memory = model.scale_memory;
  return p;
}

OperatingPointTable dvfs_ladder(const DvfsModel& model, std::size_t count,
                                double idle_watts) {
  model.validate();
  if (count < 2)
    throw std::invalid_argument("dvfs_ladder: need at least 2 points");
  if (!(idle_watts >= 0.0))
    throw std::invalid_argument("dvfs_ladder: idle_watts must be >= 0");
  OperatingPointTable table;
  table.points.reserve(count);
  const double span = 1.0 - model.min_scale;
  for (std::size_t i = 0; i < count; ++i) {
    // Endpoint-exact spacing: the first point is min_scale, the last is
    // exactly 1.0 (no accumulated rounding past the generator's domain).
    const double s = i + 1 == count
                         ? 1.0
                         : model.min_scale + span * static_cast<double>(i) /
                                                 static_cast<double>(count - 1);
    OperatingPoint p = dvfs_operating_point(model, s);
    p.idle_watts = idle_watts;
    table.points.push_back(std::move(p));
  }
  table.validate();
  return table;
}

double dvfs_scale_for_power(const MachineParams& m, const DvfsModel& model,
                            double target_watts) {
  model.validate();
  if (m.max_power() <= target_watts) return 1.0;
  const auto power_at = [&](double s) {
    return apply_operating_point(m, dvfs_operating_point(model, s))
        .max_power();
  };
  if (power_at(model.min_scale) > target_watts)
    throw std::invalid_argument(
        "dvfs_scale_for_power: target unreachable at the voltage floor");
  double lo = model.min_scale;
  double hi = 1.0;
  for (int iter = 0; iter < 100 && hi - lo > 1e-10; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (power_at(mid) > target_watts)
      hi = mid;
    else
      lo = mid;
  }
  return lo;
}

PowerMechanismComparison compare_cap_vs_dvfs(const MachineParams& m,
                                             const DvfsModel& model,
                                             double target_watts,
                                             double intensity) {
  if (!(target_watts > m.pi1))
    throw std::invalid_argument(
        "compare_cap_vs_dvfs: target below constant power");

  PowerMechanismComparison r;
  r.target_watts = target_watts;
  r.intensity = intensity;

  // Mechanism 1: cap. Reduce delta_pi so pi1 + delta_pi == target.
  const MachineParams capped = with_cap(m, target_watts - m.pi1);
  r.cap_performance = performance(capped, intensity);
  r.cap_efficiency = energy_efficiency(capped, intensity);

  // Mechanism 2: DVFS at the largest scale that fits the target.
  r.frequency_scale = dvfs_scale_for_power(m, model, target_watts);
  const MachineParams scaled = apply_operating_point(
      m, dvfs_operating_point(model, r.frequency_scale));
  r.dvfs_performance = performance(scaled, intensity);
  r.dvfs_efficiency = energy_efficiency(scaled, intensity);
  return r;
}

}  // namespace archline::core
