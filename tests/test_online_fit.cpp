// Online-fit layer tests: the published machine is the solver's own,
// it recovers the generator on every Table I platform, one repeated
// shape cannot wind it up, the window alone tracks a mid-stream
// parameter shift, and the OnlineStore / BackgroundResolver concurrency
// contract holds (run under TSan in CI: concurrent observe / published /
// resolve must be race-free by construction).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "core/roofline.hpp"
#include "fit/model_fit.hpp"
#include "fit/online/resolver.hpp"
#include "fit/online/snapshot.hpp"
#include "microbench/suite.hpp"
#include "per_tuple_objective.hpp"
#include "platforms/platform_db.hpp"
#include "stats/rng.hpp"

namespace {

using namespace archline;
using fit::online::OnlineFitOptions;
using fit::online::OnlineStore;
using fit::online::PowerAnchors;
using fit::online::Sample;

/// Ground-truth generator machine for the small streams below
/// (uncapped). Deliberately NOT a Table I platform: convergence is
/// judged against these numbers.
constexpr core::MachineParams kGenerator{.tau_flop = 2e-11,  // 50 Gflop/s
                                         .eps_flop = 5e-11,
                                         .tau_mem = 1.5e-10,  // ~6.7 GB/s
                                         .eps_mem = 4e-10,
                                         .pi1 = 3.0};

/// One measurement tuple at the given problem size and arithmetic
/// intensity [flop/B], with multiplicative lognormal noise on the
/// measured energy. Time is exact: noise on a regressor (t multiplies
/// pi1 in eq. 4) is an errors-in-variables problem that biases any
/// least-squares estimator — a property of the data, not the learner —
/// so the convergence tests keep it out of the regressors.
Sample make_sample(const core::MachineParams& g, double flops, double intensity,
                   double noise_sigma, stats::Rng& rng) {
  const double bytes = flops / intensity;
  const double t = std::max(flops * g.tau_flop, bytes * g.tau_mem);
  const double e = flops * g.eps_flop + bytes * g.eps_mem + g.pi1 * t;
  Sample s;
  s.flops = flops;
  s.bytes = bytes;
  s.seconds = t;
  s.joules = e * rng.lognormal(0.0, noise_sigma);
  return s;
}

/// A sweep over problem size AND intensity, straddling the machine
/// balance point. Both axes must vary: constant flops would leave the
/// regressors (W, Q, t) nearly collinear (W constant, t piecewise
/// proportional to Q) and no estimator could separate the constants.
std::vector<Sample> make_stream(const core::MachineParams& g, std::size_t n,
                                double noise_sigma, std::uint64_t seed) {
  static constexpr double kIntensities[] = {0.25, 0.5, 1, 2, 4, 8, 16, 32};
  static constexpr double kFlops[] = {5e7, 1e8, 2e8, 4e8};
  stats::Rng rng(seed, 11);
  std::vector<Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(make_sample(g, kFlops[(i / 8) % 4], kIntensities[i % 8],
                              noise_sigma, rng));
  return out;
}

double rel_err(double got, double want) {
  return std::abs(got - want) / std::abs(want);
}

/// The stream as the solver sees it, labeled the way
/// OnlineStore::resolve() labels its window: repeats of one workload
/// average, distinct workloads stay distinct kernels.
std::vector<microbench::Observation> labeled(std::span<const Sample> stream) {
  std::vector<microbench::Observation> obs;
  obs.reserve(stream.size());
  char label[64];
  for (const Sample& s : stream) {
    microbench::Observation o;
    o.kernel.flops = s.flops;
    o.kernel.bytes = s.bytes;
    std::snprintf(label, sizeof label, "%.9g/%.9g", s.flops, s.bytes);
    o.kernel.label = label;
    o.seconds = s.seconds;
    o.joules = s.joules;
    o.watts = s.joules / s.seconds;
    obs.push_back(o);
  }
  return obs;
}

/// Energy per flop and per byte, eps + pi1 * tau: what a fit of time
/// and energy identifies even where eps and pi1 trade off.
double energy_per_flop(const core::MachineParams& m) {
  return m.eps_flop + m.pi1 * m.tau_flop;
}
double energy_per_byte(const core::MachineParams& m) {
  return m.eps_mem + m.pi1 * m.tau_mem;
}

void expect_same_machine(const core::MachineParams& got,
                         const core::MachineParams& want) {
  EXPECT_EQ(got.tau_flop, want.tau_flop);
  EXPECT_EQ(got.eps_flop, want.eps_flop);
  EXPECT_EQ(got.tau_mem, want.tau_mem);
  EXPECT_EQ(got.eps_mem, want.eps_mem);
  EXPECT_EQ(got.pi1, want.pi1);
  EXPECT_EQ(got.delta_pi, want.delta_pi);
}

/// A Table I platform's learner ground truth, by the rule the end-to-end
/// benchmark uses: Table I's rates and constant power, eps_mem set so
/// both engines draw the same power, and usable power 1.5x that. The cap
/// then slows the balance point by a third, so a window over the grid
/// below holds compute-, cap- and memory-bound shapes.
core::MachineParams table1_generator(const platforms::PlatformSpec& spec) {
  core::MachineParams g = spec.machine();
  g.eps_mem = g.pi_flop() * g.tau_mem;
  g.delta_pi = 1.5 * g.pi_flop();
  return g;
}

/// Tuple k of a measurement stream: 32 intensities over 2^-4..2^9 times
/// four problem sizes, exact time, 1% lognormal noise on the energy.
Sample grid_sample(const core::MachineParams& g, std::size_t k,
                   stats::Rng& rng) {
  const double intensity =
      std::exp2(-4.0 + 13.0 * static_cast<double>(k % 32) / 31.0);
  const double flops = 1e9 * std::exp2(static_cast<double>((k / 32) % 4));
  const core::Workload w{flops, flops / intensity};
  return {w.flops, w.bytes, core::time(g, w),
          core::energy(g, w) * rng.lognormal(0.0, 0.01)};
}

TEST(OnlineFit, StoreResolvePublishesTheSolversMachine) {
  OnlineFitOptions opt;
  opt.nm_evaluations = 2000;
  opt.lm_iterations = 30;
  OnlineStore store(opt);
  const core::MachineParams g = kGenerator;
  const auto stream = make_stream(g, 64, 0.005, 9);

  ASSERT_TRUE(store.known("GTX Titan"));
  EXPECT_EQ(store.published("GTX Titan"), nullptr);
  EXPECT_EQ(store.resolve("GTX Titan"), nullptr)  // below the floor
      << "resolve must refuse an empty window";

  store.observe("GTX Titan", std::span<const Sample>(stream));
  EXPECT_EQ(store.observations("GTX Titan"), 64u);

  const auto snap = store.resolve("GTX Titan");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_EQ(snap->window_observations, 64u);
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_EQ(store.published("GTX Titan"), snap);
  // The published machine is the solver's on the same window, bit for
  // bit.
  fit::FitOptions fit_opt;
  fit_opt.nm_evaluations = opt.nm_evaluations;
  fit_opt.lm_iterations = opt.lm_iterations;
  const std::vector<microbench::Observation> obs = labeled(stream);
  const fit::FitResult solved = fit::fit_observations(obs, fit_opt);
  expect_same_machine(snap->machine, solved.machine);
  EXPECT_EQ(snap->rss, solved.rss);

  // Re-solving with no new tuples re-publishes (epoch 2) but the dirty
  // list no longer offers the platform to the background sweep.
  EXPECT_TRUE(store.dirty_platforms().empty());
  const auto snap2 = store.resolve("GTX Titan");
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(snap2->epoch, 2u);
  EXPECT_EQ(store.generation(), 2u);
}

// The calibration batch's anchors ride into every later re-solve, and
// the next seed replaces them (0 = unknown, as in FitOptions).
TEST(OnlineFit, SeedAnchorsEveryLaterResolve) {
  OnlineFitOptions opt;
  opt.nm_evaluations = 2000;
  opt.lm_iterations = 30;
  OnlineStore store(opt);
  const core::MachineParams g = kGenerator;
  const auto calibration = make_stream(g, 64, 0.005, 9);
  store.seed("GTX Titan", calibration, PowerAnchors{2.5, 0.0});
  const auto anchored = store.resolve("GTX Titan");
  ASSERT_NE(anchored, nullptr);

  fit::FitOptions fit_opt;
  fit_opt.nm_evaluations = opt.nm_evaluations;
  fit_opt.lm_iterations = opt.lm_iterations;
  fit_opt.idle_watts_hint = 2.5;
  expect_same_machine(
      anchored->machine,
      fit::fit_observations(labeled(calibration), fit_opt).machine);

  const auto recalibration = make_stream(g, 64, 0.005, 10);
  store.seed("GTX Titan", recalibration, PowerAnchors{});
  const auto unanchored = store.resolve("GTX Titan");
  ASSERT_NE(unanchored, nullptr);
  std::vector<Sample> window = calibration;
  window.insert(window.end(), recalibration.begin(), recalibration.end());
  fit_opt.idle_watts_hint = 0.0;
  expect_same_machine(unanchored->machine,
                      fit::fit_observations(labeled(window), fit_opt).machine);
}

TEST(OnlineFit, ResolveOverRepeatedShapesReportsPerTupleRss) {
  // A full default window of 4096 tuples that repeats 128 shapes (32
  // intensities over 2^-4..2^9 x 4 problem sizes), 1% energy noise: the
  // solver fits per-shape moments, but what it publishes is in tuples.
  const core::MachineParams g = kGenerator;
  stats::Rng rng(17, 11);
  std::vector<Sample> stream;
  stream.reserve(4096);
  for (std::size_t k = 0; k < 4096; ++k) {
    const double intensity =
        std::exp2(-4.0 + 13.0 * static_cast<double>(k % 32) / 31.0);
    const double flops = 1e8 * static_cast<double>(1 + (k / 32) % 4);
    stream.push_back(make_sample(g, flops, intensity, 0.01, rng));
  }
  OnlineStore store;
  store.observe("GTX Titan", std::span<const Sample>(stream));
  const auto snap = store.resolve("GTX Titan");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->window_observations, 4096u);

  // The snapshot publishes the deterministic solve's machine unchanged.
  const std::vector<microbench::Observation> obs = labeled(stream);
  fit::FitOptions opt;
  opt.nm_evaluations = store.options().nm_evaluations;
  opt.lm_iterations = store.options().lm_iterations;
  const fit::FitResult solved = fit::fit_observations(obs, opt);
  expect_same_machine(snap->machine, solved.machine);
  EXPECT_EQ(snap->rss, solved.rss);
  const double per_tuple = archline::testing::per_tuple_rss(solved.machine,
                                                            obs);
  EXPECT_NEAR(snap->rss, per_tuple, 1e-9 * per_tuple);
}

// A window that repeats one (W, Q) shape excites a single direction of
// the energy equation. A recursive estimator with exponential
// forgetting winds up along the others (a publish blended from one
// predicted 880 J for this 15.9 J kernel); the window re-solve fits
// what the tuples measure.
TEST(OnlineFit, OneRepeatedShapeDoesNotWindUp) {
  const platforms::PlatformSpec* spec = platforms::find_platform("GTX Titan");
  ASSERT_NE(spec, nullptr);
  const core::MachineParams g = table1_generator(*spec);
  const core::Workload shape{1e11, 1e11 / 8.0};
  stats::Rng rng(3, 11);
  std::vector<Sample> stream(100000);
  for (Sample& s : stream)
    s = {shape.flops, shape.bytes, core::time(g, shape),
         core::energy(g, shape) * rng.lognormal(0.0, 0.01)};

  OnlineStore store;
  store.observe("GTX Titan", std::span<const Sample>(stream));
  const auto snap = store.resolve("GTX Titan");
  ASSERT_NE(snap, nullptr);
  const core::MachineParams& m = snap->machine;
  for (const double v :
       {m.tau_flop, m.eps_flop, m.tau_mem, m.eps_mem, m.pi1, m.delta_pi})
    EXPECT_TRUE(std::isfinite(v)) << v;
  EXPECT_LT(rel_err(core::energy(m, shape), core::energy(g, shape)), 0.02)
      << core::energy(m, shape) << " J predicted, generator "
      << core::energy(g, shape) << " J";
}

// The ring window is the learner's only memory: once window_capacity
// post-shift tuples have arrived, a refit sees only the new regime.
TEST(OnlineFit, WindowTracksMidStreamShift) {
  const core::MachineParams before = kGenerator;
  core::MachineParams after = kGenerator;  // the "hardware drifted":
  after.eps_flop = 2.0 * before.eps_flop;  // costlier flops, lower idle
  after.eps_mem = 0.5 * before.eps_mem;
  after.pi1 = 0.5 * before.pi1;

  OnlineFitOptions opt;
  opt.window_capacity = 256;
  OnlineStore store(opt);
  const auto old_regime = make_stream(before, 512, 0.01, 1);
  store.observe("GTX Titan", std::span<const Sample>(old_regime));
  const auto mid = store.resolve("GTX Titan");
  ASSERT_NE(mid, nullptr);
  EXPECT_LT(rel_err(energy_per_flop(mid->machine), energy_per_flop(before)),
            0.02);

  const auto new_regime = make_stream(after, 256, 0.01, 2);
  store.observe("GTX Titan", std::span<const Sample>(new_regime));
  const auto end = store.resolve("GTX Titan");
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(end->window_observations, 256u);
  EXPECT_LT(rel_err(energy_per_flop(end->machine), energy_per_flop(after)),
            0.02)
      << energy_per_flop(end->machine);
  EXPECT_LT(rel_err(energy_per_byte(end->machine), energy_per_byte(after)),
            0.02)
      << energy_per_byte(end->machine);
}

// Parameter recovery on all 12 platforms, from a full 4096-tuple window,
// with the calibration run's idle/peak anchors and without them. What a
// fit of time and energy identifies is pinned: the time constants and
// the energy per flop and per byte. The eps / pi1 / delta_pi split is
// not — unanchored, eps and pi1 trade off, and some windows settle in
// the solver's uncapped basin.
TEST(OnlineFit, RecoversEveryPlatformsGenerator) {
  ASSERT_EQ(platforms::all_platforms().size(), 12u);
  for (const std::uint64_t seed : {1u, 7u}) {
    for (const bool anchored : {false, true}) {
      OnlineStore store;
      for (const platforms::PlatformSpec& spec : platforms::all_platforms()) {
        SCOPED_TRACE(std::string(spec.name) + " seed " +
                     std::to_string(seed) +
                     (anchored ? " anchored" : " unanchored"));
        const core::MachineParams g = table1_generator(spec);
        stats::Rng rng(seed, 11);
        std::vector<Sample> window;
        window.reserve(4096);
        for (std::size_t k = 0; k < 4096; ++k)
          window.push_back(grid_sample(g, k, rng));
        if (anchored)
          store.seed(spec.name, window,
                     PowerAnchors{g.pi1, g.pi1 + g.delta_pi});
        else
          store.observe(spec.name, window);
        const auto snap = store.resolve(spec.name);
        ASSERT_NE(snap, nullptr);
        const core::MachineParams& m = snap->machine;
        EXPECT_LT(rel_err(m.tau_flop, g.tau_flop), 0.01) << m.tau_flop;
        EXPECT_LT(rel_err(m.tau_mem, g.tau_mem), 0.01) << m.tau_mem;
        EXPECT_LT(rel_err(energy_per_flop(m), energy_per_flop(g)), 0.02)
            << "eps_flop " << m.eps_flop << " pi1 " << m.pi1;
        EXPECT_LT(rel_err(energy_per_byte(m), energy_per_byte(g)), 0.02)
            << "eps_mem " << m.eps_mem << " pi1 " << m.pi1;
      }
    }
  }
}

TEST(OnlineFit, BackgroundResolverSweepsDirtyPlatforms) {
  OnlineFitOptions opt;
  opt.nm_evaluations = 500;
  opt.lm_iterations = 10;
  OnlineStore store(opt);
  const core::MachineParams g = kGenerator;
  const auto stream = make_stream(g, 32, 0.005, 5);
  store.observe("GTX Titan", std::span<const Sample>(stream));
  store.observe("Xeon Phi", std::span<const Sample>(stream));
  ASSERT_EQ(store.dirty_platforms().size(), 2u);

  fit::online::BackgroundResolver resolver(store, 1);
  resolver.start();
  resolver.poke();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((store.generation() < 2 || resolver.sweeps() < 1) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  resolver.stop();

  EXPECT_GE(resolver.sweeps(), 1u);
  EXPECT_EQ(resolver.failed_resolves(), 0u);
  EXPECT_GE(store.generation(), 2u);
  ASSERT_NE(store.published("GTX Titan"), nullptr);
  ASSERT_NE(store.published("Xeon Phi"), nullptr);
  EXPECT_TRUE(store.dirty_platforms().empty());
  EXPECT_EQ(store.stats().platforms_fitted, 2u);
  EXPECT_GE(store.stats().last_resolve_s, 0.0);
}

// The TSan target: hammer one platform with concurrent ingest, reads,
// and re-solves while the background resolver sweeps. Assertions are
// deliberately coarse — the point is that the sanitizer sees the locking
// discipline hold under real contention.
TEST(OnlineFit, ConcurrentObserveReadResolveIsRaceFree) {
  OnlineFitOptions opt;
  opt.nm_evaluations = 300;
  opt.lm_iterations = 8;
  OnlineStore store(opt);
  const core::MachineParams g = kGenerator;
  fit::online::BackgroundResolver resolver(store, 1);
  resolver.start();

  constexpr int kWriters = 3;
  constexpr int kBatches = 50;
  constexpr int kBatchSize = 8;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      for (int b = 0; b < kBatches; ++b) {
        const auto batch = make_stream(
            g, kBatchSize, 0.01,
            static_cast<std::uint64_t>(w) * 1000 + static_cast<std::uint64_t>(b));
        store.observe("GTX Titan", std::span<const Sample>(batch));
      }
    });
  threads.emplace_back([&] {  // reader
    while (!stop.load(std::memory_order_acquire)) {
      if (const auto snap = store.published("GTX Titan")) {
        EXPECT_GE(snap->epoch, 1u);
      }
      (void)store.stats();
      (void)store.dirty_platforms();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  threads.emplace_back([&] {  // synchronous forced refits
    for (int i = 0; i < 10; ++i) {
      try {
        (void)store.resolve("GTX Titan");
      } catch (const std::exception&) {
        // Degenerate early windows can make the solve throw — the
        // documented resolve() contract; the serve layer maps it to
        // fit_failed and the background resolver counts and skips it.
      }
      resolver.poke();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  resolver.stop();

  EXPECT_EQ(store.observations("GTX Titan"),
            static_cast<std::uint64_t>(kWriters) * kBatches * kBatchSize);
  EXPECT_GE(store.generation(), 1u);
  const auto snap = store.published("GTX Titan");
  ASSERT_NE(snap, nullptr);
  EXPECT_GE(snap->epoch, 1u);
}

}  // namespace
