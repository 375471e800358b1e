#pragma once
// Result printing shared by the end-to-end and the traced run: a few
// human-readable lines (per-endpoint counts, the server's own counters),
// then, as the last line of stdout, one JSON object with correct,
// attempted, failed and the metrics, each with its unit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "driver.hpp"
#include "jsonlite.hpp"

namespace perfbench {

struct MetricValue {
  std::string name;
  double value;
  std::string unit;
};

/// The server's stats counters this benchmark reports.
struct ServerCounters {
  double hits = 0, misses = 0, stale = 0, hit_rate = 0;
  double light_peak = 0, heavy_peak = 0;
  double rejected = 0, deadlined = 0, errors = 0;
  double resolves = 0, observations = 0;
  bool ok = false;
};

inline ServerCounters parse_counters(const std::string& stats) {
  ServerCounters c;
  JsonDoc d;
  if (!d.parse(stats) || !d.is_true(0, "ok")) return c;
  const std::int32_t cache = d.find(0, "cache"), lanes = d.find(0, "lanes"),
                     online = d.find(0, "online");
  c.hits = d.num(cache, "hits");
  c.misses = d.num(cache, "misses");
  c.stale = d.num(cache, "stale");
  c.hit_rate = d.num(cache, "hit_rate");
  c.light_peak = d.num(d.find(lanes, "light"), "peak");
  c.heavy_peak = d.num(d.find(lanes, "heavy"), "peak");
  c.rejected = d.num(0, "rejected_overload");
  c.deadlined = d.num(0, "deadline_exceeded");
  c.errors = d.num(0, "errors");
  c.resolves = d.num(online, "resolves");
  c.observations = d.num(online, "observations");
  c.ok = true;
  return c;
}

inline void print_counts(const RunStats& st, const ServerCounters& c) {
  std::printf("# endpoint            attempted     failed\n");
  for (int i = 0; i < kOpCount; ++i)
    if (st.attempted[i])
      std::printf("# %-18s %10llu %10llu\n", op_label(static_cast<Op>(i)),
                  static_cast<unsigned long long>(st.attempted[i]),
                  static_cast<unsigned long long>(st.failed[i]));
  std::printf(
      "# server stats: cache hits %.0f misses %.0f stale %.0f (hit rate %.4f); "
      "lane peaks light %.0f heavy %.0f; rejected %.0f; deadlined %.0f; "
      "errors %.0f; resolves %.0f; observations %.0f\n",
      c.hits, c.misses, c.stale, c.hit_rate, c.light_peak, c.heavy_peak,
      c.rejected, c.deadlined, c.errors, c.resolves, c.observations);
}

inline void print_result(bool correct, std::uint64_t attempted,
                         std::uint64_t failed,
                         const std::vector<MetricValue>& metrics) {
  // A metric that could not be measured (say, no reply in the window)
  // is printed as 0 and makes the run incorrect, so the line stays JSON.
  for (const MetricValue& m : metrics) correct = correct && std::isfinite(m.value);
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// The q-quantile (nearest rank below) of v; reorders v.
inline double quantile(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline std::uint64_t total(const std::uint64_t (&counts)[kOpCount]) {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return n;
}

}  // namespace perfbench
