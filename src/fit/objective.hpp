#pragma once
// Residual functions connecting the roofline model to measured
// observations, plus the parameter packing used by the optimizers.
//
// Parameters are optimized in log space: every model constant is a
// positive physical quantity, and log-parameterization both enforces that
// and equalizes scales across parameters that differ by 12 orders of
// magnitude (tau_flop in ps vs pi1 in watts).

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/machine_params.hpp"
#include "microbench/suite.hpp"

namespace archline::fit {

/// Which model the residuals evaluate (paper Fig. 4's comparison).
enum class ModelKind {
  Capped,    ///< this paper: eq. (3) with the delta_pi term
  Uncapped,  ///< prior model: T = max(W tau_flop, Q tau_mem)
};

/// Number of packed parameters (6 capped, 5 uncapped).
[[nodiscard]] std::size_t parameter_count(ModelKind kind) noexcept;

/// Packs machine parameters into log-space optimizer coordinates
/// [log tau_flop, log eps_flop, log tau_mem, log eps_mem, log pi1,
///  (log delta_pi)].
[[nodiscard]] std::vector<double> pack(const core::MachineParams& m,
                                       ModelKind kind);

/// Inverse of pack(). For Uncapped, delta_pi becomes core::kUncapped.
[[nodiscard]] core::MachineParams unpack(std::span<const double> x,
                                         ModelKind kind);

/// Hash-map key of a workload shape (W, Q): the exact bit patterns, so
/// only shapes the model cannot tell apart share a key.
struct ShapeKey {
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] static ShapeKey of(const core::Workload& w) noexcept {
    return {std::bit_cast<std::uint64_t>(w.flops),
            std::bit_cast<std::uint64_t>(w.bytes)};
  }
  friend bool operator==(const ShapeKey&, const ShapeKey&) = default;

  struct Hash {
    std::size_t operator()(const ShapeKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (k.flops * 0x9e3779b97f4a7c15ULL) ^ k.bytes);
    }
  };
};

/// The observations of a sweep or window grouped by workload shape
/// (W, Q), in first-appearance order: what the fitting residuals read.
///
/// The model's time T and energy E depend on the shape alone, so a group
/// of n repeats is summed up by n and, for each of x = 1/t, 1/e and 1/p,
/// the mean m and the centred sum of squares S of the measured values
/// (Welford). For one quantity with model value M, the n per-tuple
/// residuals M*x_i - 1 and the two residuals sqrt(n)*(M*m - 1) and
/// M*sqrt(S) have the same sum of squares, n(Mm - 1)^2 + M^2 S, and —
/// since both depend on the parameters only through M — the same J^T J
/// and J^T r. A least-squares fit over the groups therefore takes the
/// steps of one over the tuples, at a cost set by the shapes instead of
/// the tuples. A group of one emits the per-tuple residuals themselves,
/// so a sweep without repeated shapes gives bit-identical residuals.
class ShapeMoments {
 public:
  explicit ShapeMoments(std::span<const microbench::Observation> obs);

  /// Distinct (W, Q) shapes.
  [[nodiscard]] std::size_t shapes() const noexcept { return groups_.size(); }

  /// Length of time_energy_residuals(): 3 per single-tuple shape, 6 per
  /// repeated one.
  [[nodiscard]] std::size_t residual_count() const noexcept {
    return residual_count_;
  }

  friend std::vector<double> time_energy_residuals(
      const core::MachineParams& m, const ShapeMoments& shapes);
  friend double sum_squared_residuals(const core::MachineParams& m,
                                      const ShapeMoments& shapes);

 private:
  /// Calls `emit(r)` for each residual, in time_energy_residuals() order.
  template <typename Emit>
  void for_each_residual(const core::MachineParams& m, Emit&& emit) const;

  /// Moments of one inverted measured quantity over a group.
  struct Moments {
    double mean = 0.0;     ///< m
    double root_ss = 0.0;  ///< sqrt(S)
  };
  struct Group {
    core::Workload shape;
    std::size_t n = 0;
    double root_n = 0.0;
    /// The first tuple's measured t, e, p: a group of one divides by
    /// them exactly as the per-tuple residual does.
    double first[3] = {};
    Moments inv[3];  ///< of 1/t, 1/e, 1/p
  };
  std::vector<Group> groups_;
  std::size_t residual_count_ = 0;
};

/// Relative residuals of predicted vs measured time, energy, and average
/// power over the shape groups. A single-tuple shape emits the three
/// per-tuple residuals (T/t - 1, E/e - 1, P/p - 1); a repeated shape
/// emits, per quantity, sqrt(n)*(M*m - 1) then M*sqrt(S) (see
/// ShapeMoments). Either way the sum of squares is the per-tuple RSS.
///
/// Power is E/T and thus analytically redundant, but including it weights
/// the fit toward reproducing the power curve's *shape* — which is what
/// separates a flat cap plateau from a rising memory-bound segment on
/// platforms where pi_mem ~ delta_pi (e.g. the APU GPU) and pins delta_pi
/// near the observed peak power when the cap barely binds (Xeon Phi).
[[nodiscard]] std::vector<double> time_energy_residuals(
    const core::MachineParams& m, const ShapeMoments& shapes);

/// Sum of squared time_energy_residuals — the scalar objective for
/// Nelder-Mead seeding — without building the vector.
[[nodiscard]] double sum_squared_residuals(const core::MachineParams& m,
                                           const ShapeMoments& shapes);

/// Per-observation relative prediction errors (model - measured)/measured
/// for the three quantities of interest — the raw material of Fig. 4.
struct PredictionErrors {
  std::vector<double> time;
  std::vector<double> energy;
  std::vector<double> power;
  std::vector<double> performance;  ///< flop/s errors (= -time/(1+time))
};

[[nodiscard]] PredictionErrors prediction_errors(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs);

/// Heuristic starting point for the DRAM fit, derived from the sweep's
/// extremes (bandwidth-bound and compute-bound ends).
[[nodiscard]] core::MachineParams initial_guess(
    std::span<const microbench::Observation> obs, ModelKind kind);

/// Directly measured sustained throughputs ("sustained peak" in the
/// paper's terms): the best observed flop rate and byte rate over the
/// sweep. The regression fixes tau_flop/tau_mem to these — per-op times
/// are NOT identifiable by regression alone on machines whose power cap
/// rides at or below the engine's demand (pi_mem >~ delta_pi on the
/// NUC CPU, APU GPU, ...), where the rate limit never binds.
struct MeasuredThroughput {
  double tau_flop = 0.0;  ///< s/flop from the fastest compute-bound point
  double tau_mem = 0.0;   ///< s/B from the fastest bandwidth-bound point
};

[[nodiscard]] MeasuredThroughput measure_throughput(
    std::span<const microbench::Observation> obs);

}  // namespace archline::fit
