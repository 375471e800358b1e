#pragma once
// The fitting objective's per-tuple definition: three relative residuals
// per observation, (T/t - 1, E/e - 1, P/p - 1), in observation order. The
// fitter evaluates the same objective over per-shape moments
// (fit::ShapeMoments); the equivalence tests compare the two.

#include <span>
#include <vector>

#include "core/roofline.hpp"
#include "microbench/suite.hpp"

namespace archline::testing {

inline std::vector<double> per_tuple_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs) {
  std::vector<double> r;
  r.reserve(3 * obs.size());
  for (const microbench::Observation& o : obs) {
    const core::Workload w = o.kernel.workload();
    const double t_model = core::time(m, w);
    const double e_model = core::energy(m, w);
    r.push_back(t_model / o.seconds - 1.0);
    r.push_back(e_model / o.joules - 1.0);
    r.push_back((e_model / t_model) / o.watts - 1.0);
  }
  return r;
}

inline double per_tuple_rss(const core::MachineParams& m,
                            std::span<const microbench::Observation> obs) {
  double acc = 0.0;
  for (const double v : per_tuple_residuals(m, obs)) acc += v * v;
  return acc;
}

}  // namespace archline::testing
