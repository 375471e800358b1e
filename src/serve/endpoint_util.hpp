#pragma once
// Shared building blocks for endpoint handlers: field extraction,
// machine/workload resolution, reply scaffolding, and the structured
// error type the dispatcher renders. Everything here is hot-path aware:
// lookups and comparisons use std::string_view into the in-situ-parsed
// request, and heap strings are built only when raising an error.

#include <initializer_list>
#include <string>
#include <string_view>

#include "core/machine_params.hpp"
#include "core/roofline.hpp"
#include "fit/online/snapshot.hpp"
#include "platforms/spec.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"

namespace archline::serve {

/// Thrown by handlers to surface a structured (code, message) pair; the
/// dispatcher renders it as {"ok":false,"error":code,"message":...}.
struct RequestError {
  std::string code;
  std::string message;
};

/// Shorthand for the common code.
[[noreturn]] void bad(std::string message);

[[nodiscard]] double require_number(const Json& req, std::string_view key);

/// The string payload is a view into the request document (in-situ
/// parse) — valid until the reply is serialized, allocation-free.
[[nodiscard]] std::string_view require_string(const Json& req,
                                              std::string_view key);

[[nodiscard]] core::Precision parse_precision(const Json& req);
[[nodiscard]] core::MemLevel parse_level(const Json& req);

/// Looks up a platform by name; a miss raises "unknown_platform" whose
/// message lists every available platform so clients can self-correct.
[[nodiscard]] const platforms::PlatformSpec& lookup_platform(
    std::string_view name);

/// The machine constants for a named platform at a precision: the
/// static Table I spec, overlaid with the online store's published
/// estimates when the context carries a store that has a snapshot for
/// this platform. The overlay applies to the base SP @ DRAM machine
/// only — DP and cache-level constants are not learned online and stay
/// static. Raises unknown_platform / unsupported like lookup_platform.
[[nodiscard]] core::MachineParams platform_machine(const EndpointContext& ctx,
                                                   std::string_view name,
                                                   core::Precision prec);

/// Resolves the machine a request addresses: either "platform" (a
/// Table I name, with optional precision / memory level) or an inline
/// "machine" parameter object, then optional cap modifiers
/// (uncapped / cap_divisor / cap_watts). Named SP @ DRAM platforms are
/// resolved through platform_machine, so published online estimates
/// take effect here. `name_out` receives a label for the response — a
/// view into the request (or a literal), so it stays valid until the
/// reply is serialized.
[[nodiscard]] core::MachineParams resolve_machine(const EndpointContext& ctx,
                                                  std::string_view& name_out);

/// Parses one (flops, bytes, seconds, joules) wire tuple — shared by
/// "fit" and "observe" so both validate identically: all four fields
/// required numbers, bytes/seconds/joules > 0, flops >= 0. `index`
/// labels the error message.
[[nodiscard]] fit::online::Sample parse_observation_tuple(const Json& row,
                                                          std::size_t index);

/// Workload from "flops" plus either "bytes" or "intensity"; a
/// bad_request when the pair leaves the doubles (flops 1e300 with
/// intensity 1e-300 has no finite byte count).
[[nodiscard]] core::Workload resolve_workload(const Json& req);

/// bad_request unless every number of a prediction is finite: an
/// extreme inline machine can overflow eqs. (1)-(7) even for a finite
/// workload, and an ok:true reply never carries a non-finite number.
void require_finite_prediction(std::initializer_list<double> values);

[[nodiscard]] core::Metric parse_metric(const Json& req);

/// Starts a response object: ok, type (the endpoint's wire name),
/// echoed id (if the request had one).
[[nodiscard]] Json begin_reply(const Endpoint& endpoint, const Json& req);

/// The shared prediction block: intensity, time, energy, power,
/// performance, efficiency, regime.
void add_prediction(Json& out, const core::MachineParams& m,
                    const core::Workload& w);

}  // namespace archline::serve
