#pragma once
// A sustained flood of cache-defeating fits on a server's heavy lane —
// the background load of the heavy-starvation scenarios in serve_loadgen
// and serve_throughput, which measure predict latency beside it.

#include <atomic>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "serve/server.hpp"

namespace archline::sim {

/// A thread that keeps up to kMaxInFlight fits in flight on `server`.
/// Request n (from 1) is fits[n % fits.size()] tagged with the unique id
/// n (with_unique_id), so every one is a real solver run. When the heavy
/// lane is full the submit bounces, and the thread yields and tries
/// again. stop(), or the destructor, ends the flood and waits until every
/// admitted fit is answered, so the server shuts down quickly after it.
/// `server` and `fits` must outlive the flood; `on_reply` sees each
/// reply body, on the server's worker threads.
class FitFlood {
 public:
  static constexpr int kMaxInFlight = 32;

  FitFlood(serve::Server& server, std::span<const std::string> fits,
           std::function<void(std::string_view)> on_reply = {});
  ~FitFlood();

  FitFlood(const FitFlood&) = delete;
  FitFlood& operator=(const FitFlood&) = delete;

  /// Stops submitting, drains the admitted fits and joins the thread.
  void stop();

 private:
  void run(serve::Server& server, std::span<const std::string> fits,
           const std::function<void(std::string_view)>& on_reply);

  std::atomic<bool> stop_{false};
  std::atomic<int> inflight_{0};
  std::thread thread_;
};

}  // namespace archline::sim
