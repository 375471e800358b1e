#pragma once
// The request vocabulary shared by every traffic generator of the serve
// stack: serve_loadgen (real TCP), serve_throughput (in-process and
// loopback) and sim::Campaign (virtual time). Each pool function returns
// pre-dumped protocol lines over the paper's 12 Table I platforms, so
// a campaign regression reproduces against the wire with the same
// bytes. A pool depends only on its arguments: seeded
// pools draw from their own PCG32 stream, so two runs build identical
// pools. Each generator keeps its own picker (which pool, which index),
// because its RNG draw order is part of its replay output.
//
// Replies are classified here too: whether a body is {"ok":true,...}
// and, when not, its wire "error" code.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace archline::sim {

/// `keys` predicts: platforms round-robin x log-spaced intensities from
/// 1/16 to 512 flop/B, 1e9 flops each.
[[nodiscard]] std::vector<std::string> make_predict_pool(int keys);

/// `keys` predict_batch requests; key i carries sizes[i % sizes.size()]
/// elements whose intensities span the same range across key and
/// element index together, so distinct keys stay distinct.
[[nodiscard]] std::vector<std::string> make_batch_pool(
    int keys, const std::vector<int>& sizes);

/// `keys` observe requests: per-platform 8-tuple batches from the
/// platform's own model (eqs. 1-7) with 1% lognormal noise on time and
/// energy, drawn from stream 11 of `seed`.
[[nodiscard]] std::vector<std::string> make_observe_pool(int keys,
                                                         std::uint64_t seed);

/// `keys` fit requests: 12-point noiseless sweeps from the platform's
/// model with a 1e-6 jitter (stream 7 of `seed`) that keeps keys
/// distinct when platforms share constants. Each is a full capped
/// solver run on a cache miss.
[[nodiscard]] std::vector<std::string> make_fit_pool(int keys,
                                                     std::uint64_t seed);

/// One params request per platform.
[[nodiscard]] std::vector<std::string> make_params_pool();

/// One refit request per platform.
[[nodiscard]] std::vector<std::string> make_refit_pool();

/// policy_advise: 3 workloads (intensity 4, 16, 64; 4e9 flops) per
/// platform, objectives cycling min_energy/min_time/min_edp, period
/// twice the nominal time so every request has a feasible plan.
[[nodiscard]] std::vector<std::string> make_policy_pool();

/// Malformed and rejected lines, ending with one line a byte past
/// `max_request_bytes` (answered "too_large" without parsing).
[[nodiscard]] std::vector<std::string> make_bad_json_pool(
    std::size_t max_request_bytes);

/// The codec-like trace: per platform, one IBBPBBPBBPBB GOP of
/// predicts whose flops and intensity follow the frame type, opened by
/// a policy_advise for the whole GOP against twice its nominal time.
/// No RNG: every replay walks the identical 156 lines.
[[nodiscard]] std::vector<std::string> make_trace_pool();

/// `{"type":...}` -> `{"id":N,"type":...}`: a distinct cache key per
/// call, so a flood of these defeats the response cache.
[[nodiscard]] std::string with_unique_id(std::string_view line, long id);

/// Is `body` an {"ok":true,...} reply?
[[nodiscard]] bool reply_ok(std::string_view body) noexcept;

/// The "error" code of a failure reply ("bad_request", "too_large",
/// ...); "unknown" when the body carries none.
[[nodiscard]] std::string_view reply_error_code(std::string_view body) noexcept;

}  // namespace archline::sim
