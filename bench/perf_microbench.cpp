// Library microbenchmarks (google-benchmark): regression guard on the hot
// paths — model evaluation, simulator runs, sampling, fitting, the online
// re-solve, and the native host kernels.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/roofline.hpp"
#include "fit/model_fit.hpp"
#include "fit/online/snapshot.hpp"
#include "microbench/native_kernels.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "sim/factory.hpp"

namespace {

using namespace archline;

void BM_ModelTimeEval(benchmark::State& state) {
  const core::MachineParams m = platforms::platform("GTX Titan").machine();
  const core::Workload w = core::Workload::from_intensity(1e12, 2.0);
  for (auto _ : state) benchmark::DoNotOptimize(core::time(m, w));
}
BENCHMARK(BM_ModelTimeEval);

void BM_ModelPowerClosedForm(benchmark::State& state) {
  const core::MachineParams m = platforms::platform("GTX Titan").machine();
  double intensity = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::avg_power_closed_form(m, intensity));
    intensity = intensity < 512.0 ? intensity * 1.01 : 0.1;
  }
}
BENCHMARK(BM_ModelPowerClosedForm);

void BM_SimMachineRun(benchmark::State& state) {
  const sim::SimMachine m =
      sim::make_machine(platforms::platform("GTX Titan"));
  stats::Rng rng(1);
  sim::KernelDesc k;
  k.label = "bench";
  k.flops = 1e12;
  k.bytes = 1e11;
  for (auto _ : state) benchmark::DoNotOptimize(m.run(k, rng));
}
BENCHMARK(BM_SimMachineRun);

void BM_SamplerOneSecondCapture(benchmark::State& state) {
  powermon::PowerTrace t;
  t.add_constant(1.0, 100.0);
  const powermon::Capture cap = powermon::split_across_rails(
      t, powermon::discrete_gpu_rails(), 0.0, 1.0);
  stats::Rng rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        powermon::sample(cap, powermon::SamplerConfig{}, rng));
}
BENCHMARK(BM_SamplerOneSecondCapture);

void BM_SuiteRunDramSweep(benchmark::State& state) {
  const sim::SimMachine m =
      sim::make_machine(platforms::platform("Xeon Phi"));
  microbench::SuiteOptions opt;
  opt.repeats = 1;
  opt.target_seconds = 0.1;
  opt.include_double = false;
  opt.include_caches = false;
  opt.include_random = false;
  stats::Rng rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(microbench::run_suite(m, opt, rng));
}
BENCHMARK(BM_SuiteRunDramSweep);

void BM_FitCappedModel(benchmark::State& state) {
  const sim::SimMachine m =
      sim::make_machine(platforms::platform("GTX 680"));
  microbench::SuiteOptions opt;
  opt.repeats = 2;
  opt.target_seconds = 0.1;
  opt.include_double = false;
  opt.include_caches = false;
  opt.include_random = false;
  stats::Rng rng(4);
  const microbench::SuiteData data = microbench::run_suite(m, opt, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(fit::fit_observations(data.dram_sp));
}
BENCHMARK(BM_FitCappedModel);

/// OnlineStore::resolve over a full 4096-tuple window on the GTX 680:
/// exact model time, 1% lognormal energy noise, tuple k on a 32-point
/// intensity grid over 2^-4..2^9. Arg = distinct shapes: 128 (4 problem
/// sizes, as a live window repeats its kernels) or 4096 (every tuple its
/// own shape, the no-repeat worst case).
void BM_OnlineResolve(benchmark::State& state) {
  const auto shapes = static_cast<std::size_t>(state.range(0));
  const core::MachineParams m = platforms::platform("GTX 680").machine();
  stats::Rng rng(6);
  std::vector<fit::online::Sample> window;
  window.reserve(4096);
  for (std::size_t k = 0; k < 4096; ++k) {
    const std::size_t shape = k % shapes;
    const double intensity =
        std::exp2(-4.0 + 13.0 * static_cast<double>(shape % 32) / 31.0);
    const core::Workload w = core::Workload::from_intensity(
        1e9 * static_cast<double>(1 + shape / 32), intensity);
    fit::online::Sample s;
    s.flops = w.flops;
    s.bytes = w.bytes;
    s.seconds = core::time(m, w);
    s.joules = core::energy(m, w) * rng.lognormal(0.0, 0.01);
    window.push_back(s);
  }
  fit::online::OnlineStore store;
  store.observe("GTX 680", window);
  for (auto _ : state) benchmark::DoNotOptimize(store.resolve("GTX 680"));
}
BENCHMARK(BM_OnlineResolve)
    ->Arg(128)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_NativeIntensityLadder(benchmark::State& state) {
  const auto elements = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(microbench::run_intensity_ladder(
        elements, 8, core::Precision::Single));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(elements));
}
BENCHMARK(BM_NativeIntensityLadder)->Arg(1 << 12)->Arg(1 << 16);

void BM_NativeStreamTriad(benchmark::State& state) {
  const auto elements = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        microbench::run_stream_triad(elements, core::Precision::Double));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(elements) * 24);
}
BENCHMARK(BM_NativeStreamTriad)->Arg(1 << 14)->Arg(1 << 18);

void BM_NativePointerChase(benchmark::State& state) {
  stats::Rng rng(5);
  const auto slots = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        microbench::run_pointer_chase(slots, slots, rng));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_NativePointerChase)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace

BENCHMARK_MAIN();
