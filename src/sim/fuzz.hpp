#pragma once
// Structure-aware protocol fuzzer for the serve request path.
//
// The campaign mutates lines from the golden corpus (real requests for
// every endpoint, so mutants start structurally close to valid) and
// replays them through Server::handle_into in-process — no sockets, no
// forked target — asserting the protocol contract from protocol.hpp:
// handle_line never throws and never crashes, and every reply is one
// line of valid JSON that is either {"ok":true,...} or {"ok":false,
// "error":<known code>,...}. Run under ASan+UBSan (the CI fuzz-smoke
// stage) the "no crash/UB" half of the contract is machine-checked too.
//
// Reproducibility: iteration k of a campaign draws every random choice
// from stats::Rng(seed, k) — its own PCG32 stream. A finding therefore
// reproduces byte-identically from (seed, k) alone, independent of how
// many iterations ran before it: `serve_fuzz --seed S --begin k
// --iters 1` rebuilds the exact input.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats/rng.hpp"

namespace archline::serve {
class Server;
}

namespace archline::sim {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t iterations = 50000;
  /// First iteration index (the campaign covers [begin, begin +
  /// iterations)); lets a rerun jump straight to a finding's index.
  std::size_t begin = 0;
  /// Mutations stacked per generated input, uniform in [1, max].
  int max_mutations = 4;
  /// Stop after this many findings (0 = collect all).
  std::size_t max_findings = 16;
};

/// One contract violation: the input line that produced it and why the
/// reply was unacceptable.
struct FuzzFinding {
  std::size_t iteration = 0;  ///< absolute index; reproduces the input
  std::string input;
  std::string reply;
  std::string why;
};

struct FuzzReport {
  std::size_t iterations = 0;
  std::size_t ok_replies = 0;     ///< parsed with "ok":true
  std::size_t error_replies = 0;  ///< parsed with "ok":false, known code
  std::vector<FuzzFinding> findings;

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
};

/// The mutation engine, exposed for the JSON round-trip test and for
/// rebuilding a finding's input from (seed, iteration): picks a corpus
/// line and stacks 1..max_mutations random operators (truncate, splice
/// with another corpus line, byte flip/insert/delete — including NUL
/// and newline bytes — bracket/quote structure flips, digit-run
/// replacement with oversized numbers, string-field inflation, deep
///-nesting injection). Deterministic in (corpus, rng state).
[[nodiscard]] std::string mutate_line(const std::vector<std::string>& corpus,
                                      stats::Rng& rng, int max_mutations);

/// Is `reply` an acceptable protocol response? Valid one-line JSON
/// object with a boolean "ok"; when true, no prediction field (time,
/// energy, power, performance, efficiency, intensity) is a non-finite
/// number rendered as null; when false, "error" must be one of the
/// protocol's stable codes. On rejection fills `why` (may be null).
[[nodiscard]] bool reply_acceptable(std::string_view reply,
                                    std::string* why);

/// Runs the campaign against `server` (started or not — replies are
/// evaluated synchronously on this thread via handle_into, same cache
/// and metrics path as the worker pool). The corpus must be non-empty.
[[nodiscard]] FuzzReport run_fuzz(serve::Server& server,
                                  const std::vector<std::string>& corpus,
                                  const FuzzOptions& options);

/// Loads a corpus file (one request per line, blank lines skipped).
/// Returns an empty vector when the file cannot be read.
[[nodiscard]] std::vector<std::string> load_corpus(const std::string& path);

}  // namespace archline::sim
