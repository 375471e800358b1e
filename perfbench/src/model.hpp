#pragma once
// The benchmark's own implementation of the energy-roofline model
// (paper §III, eqs. 1-7). Replies from archline_serverd are checked
// against these functions, so nothing here calls into the library:
// only the platform constants (tau/eps/pi1/delta_pi) come from it.

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

struct Machine {
  double tau_flop = 0.0;  // s/flop
  double eps_flop = 0.0;  // J/flop
  double tau_mem = 0.0;   // s/byte
  double eps_mem = 0.0;   // J/byte
  double pi1 = 0.0;       // W, constant power
  double delta_pi = std::numeric_limits<double>::infinity();  // W, usable

  [[nodiscard]] bool capped() const { return std::isfinite(delta_pi); }
  [[nodiscard]] double pi_flop() const { return eps_flop / tau_flop; }
  [[nodiscard]] double pi_mem() const { return eps_mem / tau_mem; }
  [[nodiscard]] double balance() const { return tau_mem / tau_flop; }
};

enum class Regime { Compute, Memory, PowerCap };

inline const char* regime_name(Regime r) {
  switch (r) {
    case Regime::Compute: return "compute";
    case Regime::Memory: return "memory";
    case Regime::PowerCap: return "power-cap";
  }
  return "?";
}

struct Prediction {
  double time_s = 0.0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double performance = 0.0;  // flop/s
  double efficiency = 0.0;   // flop/J
  Regime regime = Regime::Compute;
  /// True when two of eq. (3)'s terms are within 1e-12 of each other,
  /// so the regime label is a tie the checker does not judge.
  bool regime_tie = false;
};

/// Eq. (3): T = max(W tau_flop, Q tau_mem, (W eps_flop + Q eps_mem)/dpi),
/// eq. (1): E = W eps_flop + Q eps_mem + pi1 T.
inline Prediction predict(const Machine& m, double flops, double bytes) {
  const double t_flop = flops * m.tau_flop;
  const double t_mem = bytes * m.tau_mem;
  const double active = flops * m.eps_flop + bytes * m.eps_mem;
  const double t_cap = m.capped() ? active / m.delta_pi : 0.0;
  Prediction p;
  p.time_s = std::max({t_flop, t_mem, t_cap});
  p.energy_j = active + m.pi1 * p.time_s;
  p.avg_power_w = p.energy_j / p.time_s;
  p.performance = flops / p.time_s;
  p.efficiency = flops / p.energy_j;
  // Regime: the winning term; ties resolve compute > memory > cap.
  if (t_flop >= t_mem && t_flop >= t_cap)
    p.regime = Regime::Compute;
  else if (t_mem >= t_cap)
    p.regime = Regime::Memory;
  else
    p.regime = Regime::PowerCap;
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 * std::max(a, b);
  };
  p.regime_tie = close(t_flop, t_mem) || close(t_flop, t_cap) ||
                 close(t_mem, t_cap);
  return p;
}

/// Eq. (5): B_tau+ = B_tau max(1, pi_mem / (dpi - pi_flop)), infinite when
/// dpi <= pi_flop. Eq. (6): B_tau- = B_tau min(1, (dpi - pi_mem)/pi_flop),
/// zero when dpi <= pi_mem.
inline double balance_hi(const Machine& m) {
  if (!m.capped()) return m.balance();
  const double room = m.delta_pi - m.pi_flop();
  if (room <= 0.0) return std::numeric_limits<double>::infinity();
  return m.balance() * std::max(1.0, m.pi_mem() / room);
}

inline double balance_lo(const Machine& m) {
  if (!m.capped()) return m.balance();
  const double room = m.delta_pi - m.pi_mem();
  if (room <= 0.0) return 0.0;
  return m.balance() * std::min(1.0, room / m.pi_flop());
}

/// Eq. (7): average power as a closed function of intensity.
inline double avg_power_eq7(const Machine& m, double intensity) {
  const double b = m.balance();
  if (intensity >= balance_hi(m))
    return m.pi1 + m.pi_flop() + m.pi_mem() * b / intensity;
  if (intensity <= balance_lo(m))
    return m.pi1 + m.pi_flop() * intensity / b + m.pi_mem();
  return m.pi1 + m.delta_pi;
}

enum class Metric { Performance, Efficiency, Power };

/// The crossover / sensitivity metrics at intensity I (per-flop forms,
/// so independent of W).
inline double metric_at(const Machine& m, Metric metric, double intensity) {
  const Prediction p = predict(m, 1.0, 1.0 / intensity);
  switch (metric) {
    case Metric::Performance: return p.performance;
    case Metric::Efficiency: return p.efficiency;
    case Metric::Power: return avg_power_eq7(m, intensity);
  }
  return 0.0;
}

/// Relative closeness with an absolute floor for values near zero.
inline bool near(double got, double want, double rel) {
  if (!std::isfinite(got) || !std::isfinite(want)) return false;
  return std::abs(got - want) <= rel * std::max(std::abs(want), 1e-300);
}

}  // namespace perfbench
