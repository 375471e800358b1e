#pragma once
// Reply checks, computed apart from the program under test:
//   * predict / predict_batch / scenario_sweep / crossover / sensitivity
//     against model.hpp's eqs. (1)-(7) at the platform's current machine;
//   * policy_advise: the recommendation is the argmin of the listed
//     feasible plans, E >= pi1 * busy time, and the nominal point's busy
//     time is eq. (3);
//   * fit / refit / params: recovery of the generator's identifiable
//     constants, and a refit's published machine is what every later read
//     of its platform is checked at;
//   * observe: the accepted count.
// An extreme-magnitude request answered with a non-finite ok:true reply
// is a failed operation (ROADMAP fault 1(d)), not a wrong one; a finite
// reply or a typed error reply passes.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "jsonlite.hpp"
#include "model.hpp"
#include "workload.hpp"

namespace perfbench {

enum class Verdict { Ok, Failed, Wrong };

// Tolerances, stated once (README "Output checks").
inline constexpr double kModelRel = 1e-9;      // closed-form values
inline constexpr double kCrossoverTie = 1e-6;  // value_a vs value_b
inline constexpr double kElasticityAbs = 1e-6;  // vs our central difference
inline constexpr double kTauRel = 0.01;        // fit / refit time constants
inline constexpr double kFitPi1Rel = 0.10;     // fit pi1 (idle-anchored)
inline constexpr double kFitEnergyRel = 0.05;  // fit eps + pi1 * tau

class Checker {
 public:
  Checker();

  /// Judges `reply` to `req`. Wrong verdicts are counted and the first
  /// few are described on stderr.
  Verdict check(const Request& req, std::string_view reply);

  /// The machine each platform's reads are checked at: Table I until a
  /// refit reply publishes a learned one.
  std::vector<Machine> machine;
  std::vector<std::uint64_t> epoch;
  std::vector<std::uint64_t> tuples;  // tuples the server has accepted

  std::uint64_t wrong = 0;

 private:
  Verdict wrong_reply(const Request& req, std::string_view reply,
                      const std::string& what);
  bool prediction_row(std::int32_t row, const Machine& m, double flops,
                      double bytes, std::string& why) const;
  Verdict check_predict(const Request& req, std::string& why);
  Verdict check_batch(const Request& req, std::string& why);
  Verdict check_crossover(const Request& req, std::string& why);
  Verdict check_policy(const Request& req, std::string& why);
  Verdict check_sensitivity(const Request& req, std::string& why);
  Verdict check_sweep(const Request& req, std::string& why);
  Verdict check_params(const Request& req, std::string& why);
  Verdict check_refit(const Request& req, std::string& why);
  Verdict check_fit(const Request& req, std::string& why);

  JsonDoc doc_;
};

/// The checker's self-test against values computed by hand; prints each
/// failed case to stderr and returns the number of failures.
int self_test();

}  // namespace perfbench
