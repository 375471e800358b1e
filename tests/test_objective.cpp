// Tests for the fitting objective: packing, residuals over per-shape
// moments and their equivalence with the per-tuple definition,
// prediction errors, and the heuristic initial guess.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/roofline.hpp"
#include "fit/objective.hpp"
#include "microbench/suite.hpp"
#include "per_tuple_objective.hpp"
#include "platforms/platform_db.hpp"
#include "sim/factory.hpp"
#include "stats/rng.hpp"

namespace {

namespace ft = archline::fit;
namespace co = archline::core;
namespace mb = archline::microbench;
namespace pl = archline::platforms;
namespace si = archline::sim;

co::MachineParams titan() { return pl::platform("GTX Titan").machine(); }

mb::SuiteData titan_suite(std::uint64_t seed = 5) {
  const si::SimMachine m = si::make_machine(pl::platform("GTX Titan"));
  archline::stats::Rng rng(seed);
  mb::SuiteOptions opt;
  opt.intensities = {0.125, 0.5, 2.0, 8.0, 32.0, 128.0};
  opt.repeats = 2;
  opt.target_seconds = 0.1;
  opt.include_double = false;
  opt.include_caches = false;
  opt.include_random = false;
  return mb::run_suite(m, opt, rng);
}

TEST(ParameterCount, SixCappedFiveUncapped) {
  EXPECT_EQ(ft::parameter_count(ft::ModelKind::Capped), 6u);
  EXPECT_EQ(ft::parameter_count(ft::ModelKind::Uncapped), 5u);
}

TEST(PackUnpack, RoundTripCapped) {
  const co::MachineParams m = titan();
  const auto x = ft::pack(m, ft::ModelKind::Capped);
  ASSERT_EQ(x.size(), 6u);
  const co::MachineParams back = ft::unpack(x, ft::ModelKind::Capped);
  EXPECT_NEAR(back.tau_flop, m.tau_flop, 1e-18);
  EXPECT_NEAR(back.eps_mem, m.eps_mem, 1e-18);
  EXPECT_NEAR(back.pi1, m.pi1, 1e-9);
  EXPECT_NEAR(back.delta_pi, m.delta_pi, 1e-9);
}

TEST(PackUnpack, UncappedDropsCap) {
  const auto x = ft::pack(titan(), ft::ModelKind::Uncapped);
  ASSERT_EQ(x.size(), 5u);
  EXPECT_TRUE(ft::unpack(x, ft::ModelKind::Uncapped).uncapped());
}

TEST(Unpack, WrongSizeThrows) {
  EXPECT_THROW((void)ft::unpack(std::vector<double>{1.0, 2.0},
                                ft::ModelKind::Capped),
               std::invalid_argument);
}

TEST(Residuals, ZeroAtGroundTruthWithoutNoise) {
  // Build noise-free observations directly from the model.
  const co::MachineParams m = titan();
  std::vector<mb::Observation> obs;
  for (const double intensity : {0.25, 2.0, 16.0}) {
    mb::Observation o;
    o.kernel.flops = 1e12;
    o.kernel.bytes = 1e12 / intensity;
    o.seconds = co::time(m, o.kernel.workload());
    o.joules = co::energy(m, o.kernel.workload());
    o.watts = o.joules / o.seconds;
    obs.push_back(o);
  }
  const ft::ShapeMoments shapes(obs);
  const auto r = ft::time_energy_residuals(m, shapes);
  ASSERT_EQ(r.size(), 9u);
  for (const double v : r) EXPECT_NEAR(v, 0.0, 1e-12);
  EXPECT_NEAR(ft::sum_squared_residuals(m, shapes), 0.0, 1e-20);
}

TEST(Residuals, WrongParametersProduceSignal) {
  const mb::SuiteData data = titan_suite();
  co::MachineParams wrong = titan();
  wrong.eps_flop *= 2.0;
  const ft::ShapeMoments shapes(data.dram_sp);
  EXPECT_GT(ft::sum_squared_residuals(wrong, shapes),
            10.0 * ft::sum_squared_residuals(titan(), shapes));
}

/// A 4096-tuple measurement window like the online learner's: tuple k
/// runs shape k mod `shapes` on a 32-point intensity grid over
/// 2^-4..2^9 crossed with problem sizes, at Titan's exact model time,
/// with 1% lognormal noise on the energy. `shapes` = 4096 makes every
/// tuple a distinct shape.
std::vector<mb::Observation> noisy_window(std::size_t shapes,
                                          std::uint64_t seed) {
  const co::MachineParams m = titan();
  archline::stats::Rng rng(seed, 11);
  std::vector<mb::Observation> obs;
  obs.reserve(4096);
  for (std::size_t k = 0; k < 4096; ++k) {
    const std::size_t shape = k % shapes;
    const double intensity =
        std::exp2(-4.0 + 13.0 * static_cast<double>(shape % 32) / 31.0);
    mb::Observation o;
    o.kernel.flops = 1e9 * static_cast<double>(1 + shape / 32);
    o.kernel.bytes = o.kernel.flops / intensity;
    o.seconds = co::time(m, o.kernel.workload());
    o.joules = co::energy(m, o.kernel.workload()) * rng.lognormal(0.0, 0.01);
    o.watts = o.joules / o.seconds;
    obs.push_back(o);
  }
  return obs;
}

/// A fixed point off the optimum: energies and idle power mis-set, so
/// the gradient is far from zero, with the cap at its true level, so the
/// window holds compute-, cap- and memory-bound shapes and every
/// parameter moves the residuals.
co::MachineParams off_optimum() {
  co::MachineParams m = titan();
  m.eps_flop *= 1.2;
  m.eps_mem *= 0.9;
  m.pi1 *= 1.1;
  return m;
}

TEST(ShapeMoments, AllDistinctWindowIsBitIdenticalToPerTuple) {
  const auto obs = noisy_window(4096, 3);
  const ft::ShapeMoments shapes(obs);
  EXPECT_EQ(shapes.shapes(), 4096u);
  const co::MachineParams m = off_optimum();
  const std::vector<double> grouped = ft::time_energy_residuals(m, shapes);
  const std::vector<double> per_tuple =
      archline::testing::per_tuple_residuals(m, obs);
  ASSERT_EQ(grouped.size(), 3u * obs.size());
  for (std::size_t i = 0; i < grouped.size(); ++i)
    ASSERT_EQ(grouped[i], per_tuple[i]) << "residual " << i;
  EXPECT_EQ(ft::sum_squared_residuals(m, shapes),
            archline::testing::per_tuple_rss(m, obs));
}

TEST(ShapeMoments, RepeatedShapesKeepRssAndNormalEquations) {
  const auto obs = noisy_window(128, 5);
  const ft::ShapeMoments shapes(obs);
  ASSERT_EQ(shapes.shapes(), 128u);
  EXPECT_EQ(shapes.residual_count(), 6u * 128u);

  const std::vector<double> x0 = ft::pack(off_optimum(), ft::ModelKind::Capped);
  const auto grouped = [&](std::span<const double> x) {
    return ft::time_energy_residuals(ft::unpack(x, ft::ModelKind::Capped),
                                     shapes);
  };
  const auto per_tuple = [&](std::span<const double> x) {
    return archline::testing::per_tuple_residuals(
        ft::unpack(x, ft::ModelKind::Capped), obs);
  };

  // Sum of squares at the fixed point.
  const co::MachineParams m0 = ft::unpack(x0, ft::ModelKind::Capped);
  const double rss = archline::testing::per_tuple_rss(m0, obs);
  EXPECT_NEAR(ft::sum_squared_residuals(m0, shapes), rss, 1e-10 * rss);

  // J^T J and J^T r with the Jacobian by central differences, as the
  // Levenberg-Marquardt polish forms them.
  struct Normal {
    std::vector<double> jtj;  // row-major p x p
    std::vector<double> jtr;
  };
  const auto normal_equations = [&](const auto& residuals) {
    const std::size_t p = x0.size();
    const std::vector<double> r = residuals(x0);
    std::vector<std::vector<double>> cols(p);
    for (std::size_t j = 0; j < p; ++j) {
      const double h = 1e-4;
      std::vector<double> up = x0;
      std::vector<double> dn = x0;
      up[j] += h;
      dn[j] -= h;
      const std::vector<double> ru = residuals(up);
      const std::vector<double> rd = residuals(dn);
      cols[j].resize(r.size());
      for (std::size_t i = 0; i < r.size(); ++i)
        cols[j][i] = (ru[i] - rd[i]) / (2.0 * h);
    }
    Normal n{std::vector<double>(p * p, 0.0), std::vector<double>(p, 0.0)};
    for (std::size_t a = 0; a < p; ++a) {
      for (std::size_t i = 0; i < r.size(); ++i) n.jtr[a] += cols[a][i] * r[i];
      for (std::size_t b = 0; b < p; ++b)
        for (std::size_t i = 0; i < r.size(); ++i)
          n.jtj[a * p + b] += cols[a][i] * cols[b][i];
    }
    return n;
  };
  const Normal g = normal_equations(grouped);
  const Normal t = normal_equations(per_tuple);
  const std::size_t p = x0.size();
  for (std::size_t a = 0; a < p; ++a) {
    ASSERT_GT(t.jtj[a * p + a], 0.0) << "parameter " << a << " not excited";
    // Each entry is compared against its Cauchy-Schwarz scale, so
    // columns the window barely excites are held to the same standard.
    const double scale_r = std::sqrt(t.jtj[a * p + a] * rss);
    EXPECT_NEAR(g.jtr[a], t.jtr[a], 1e-10 * scale_r) << "J^T r[" << a << "]";
    for (std::size_t b = 0; b < p; ++b) {
      const double scale =
          std::sqrt(t.jtj[a * p + a] * t.jtj[b * p + b]);
      EXPECT_NEAR(g.jtj[a * p + b], t.jtj[a * p + b], 1e-10 * scale)
          << "J^T J[" << a << "][" << b << "]";
    }
  }
}

TEST(PredictionErrors, SmallAtGroundTruth) {
  const mb::SuiteData data = titan_suite();
  const ft::PredictionErrors e =
      ft::prediction_errors(titan(), data.dram_sp);
  ASSERT_EQ(e.power.size(), data.dram_sp.size());
  for (const double v : e.power) EXPECT_LT(std::abs(v), 0.1);
  for (const double v : e.time) EXPECT_LT(std::abs(v), 0.1);
}

TEST(PredictionErrors, PerformanceIsInverseTimeError) {
  const mb::SuiteData data = titan_suite();
  const ft::PredictionErrors e =
      ft::prediction_errors(titan(), data.dram_sp);
  for (std::size_t i = 0; i < e.time.size(); ++i)
    EXPECT_NEAR(e.performance[i], 1.0 / (1.0 + e.time[i]) - 1.0, 1e-12);
}

TEST(InitialGuess, LandsWithinFactorOfTruth) {
  const mb::SuiteData data = titan_suite();
  const co::MachineParams guess =
      ft::initial_guess(data.dram_sp, ft::ModelKind::Capped);
  const co::MachineParams truth = titan();
  EXPECT_LT(guess.tau_flop / truth.tau_flop, 3.0);
  EXPECT_GT(guess.tau_flop / truth.tau_flop, 0.3);
  EXPECT_LT(guess.tau_mem / truth.tau_mem, 3.0);
  EXPECT_GT(guess.tau_mem / truth.tau_mem, 0.3);
  EXPECT_LT(guess.pi1 / truth.pi1, 3.0);
  EXPECT_GT(guess.pi1 / truth.pi1, 0.2);
}

TEST(InitialGuess, UncappedVariantHasNoCap) {
  const mb::SuiteData data = titan_suite();
  EXPECT_TRUE(
      ft::initial_guess(data.dram_sp, ft::ModelKind::Uncapped).uncapped());
}

TEST(InitialGuess, TooFewObservationsThrows) {
  const mb::SuiteData data = titan_suite();
  const std::span<const mb::Observation> few(data.dram_sp.data(), 3);
  EXPECT_THROW((void)ft::initial_guess(few, ft::ModelKind::Capped),
               std::invalid_argument);
}

}  // namespace
