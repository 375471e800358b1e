#pragma once
// Request generation for the three workloads. Every input is derived
// from the run's --seed; the server only ever sees the generated lines.
//
//   hot_cached   a fixed pool of 72 model-scoped reads (predict,
//                crossover, params, policy_advise over the 12 platforms),
//                answered once during warm-up, then replayed as
//                per-connection shuffled rounds: nearly every request is
//                a cache hit on the event-loop shard.
//   cold_model   rounds of 32 distinct requests: 16 predict, 3
//                predict_batch (64, 64, 256 elements), 4 policy_advise,
//                4 crossover, 4 sensitivity, 1 scenario_sweep. One
//                predict and one 64-element batch per round carry an
//                extreme-magnitude workload (flops 1e300, intensity
//                1e-300): these fail today and are counted as failed.
//   learn_refit  per platform, rounds of 8192 eight-tuple observe batches
//                alternating with 8192 reads of a small per-platform
//                pool, then one refit over the server's 4096-tuple window.
//                Set-up uploads one seed_online fit per platform.

#include <cstdint>
#include <string>
#include <vector>

#include "model.hpp"

namespace perfbench {

enum class Op : std::uint8_t {
  Predict,
  PredictBatch64,
  PredictBatch256,
  Crossover,
  Params,
  PolicyAdvise,
  Sensitivity,
  ScenarioSweep,
  Observe,
  Refit,
  Fit,
  kCount
};

inline constexpr int kOpCount = static_cast<int>(Op::kCount);

/// Name as it appears in per-endpoint counts and protocol.<name>_us.
const char* op_label(Op op);
/// The wire "type" of the request.
const char* op_type(Op op);

/// One generated request plus what the checker needs to judge its reply.
struct Request {
  Op op = Op::Predict;
  std::string line;  // one JSON object, no trailing newline
  int platform = -1;
  int platform_b = -1;  // crossover "b"
  bool extreme = false;  // carries the flops 1e300 / intensity 1e-300 shape
  Metric metric = Metric::Performance;
  double lo = 0.0, hi = 0.0;  // crossover bracket
  double intensity = 0.0;     // sensitivity
  std::vector<double> flops, bytes;  // predict, predict_batch, policy, tuples
  std::vector<double> seconds, joules;  // observe / fit tuples
  std::vector<double> sweep_intensity, sweep_divisor;
  std::string objective;
  double period_s = 0.0;
  double idle_watts = 0.0;  // fit anchors
  double max_watts = 0.0;
};

struct Platform {
  std::string name;
  Machine machine;    // Table I constants, single precision, DRAM
  Machine generator;  // learn_refit's measurement generator
  std::string nominal_point;  // label of the 1.00x operating point
  bool has_points = false;
};

/// The 12 platforms with the constants the library ships.
const std::vector<Platform>& platforms();

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0)
      : state_(seed * 0x9E3779B97F4A7C15ULL ^ (a + 1) * 0xBF58476D1CE4E5B9ULL ^
               (b + 1) * 0x94D049BB133111EBULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  double normal();

 private:
  std::uint64_t state_;
};

enum class WorkloadKind { HotCached, ColdModel, LearnRefit };

bool parse_workload(const std::string& name, WorkloadKind& out);

// ---- Generators ---------------------------------------------------------

/// hot_cached's key pool (72 requests), fixed by the seed.
std::vector<Request> hot_pool(std::uint64_t seed);

/// cold_model round `round` of connection `conn`: 32 distinct requests in
/// a seeded order, two of them extreme.
std::vector<Request> cold_round(std::uint64_t seed, int conn,
                                std::uint64_t round);

/// learn_refit: the set-up calibration upload of platform p (256 tuples).
Request calibration_fit(std::uint64_t seed, int p);
/// The observe batch `index` (8 tuples) of platform p in round `round`.
Request observe_batch(std::uint64_t seed, int p, std::uint64_t round,
                      int index);
/// The read pool of platform p (4 predict, 1 params, 2 policy_advise).
std::vector<Request> learn_reads(std::uint64_t seed, int p);
Request refit_request(int p);

inline constexpr int kObservesPerRound = 8192;
inline constexpr int kReadsPerRound = 8192;
inline constexpr int kTuplesPerObserve = 8;
inline constexpr int kCalibrationTuples = 256;
inline constexpr int kColdRoundSize = 32;  // two of them extreme

}  // namespace perfbench
