#include "sim/fit_flood.hpp"

#include <utility>

#include "sim/requests.hpp"

namespace archline::sim {

FitFlood::FitFlood(serve::Server& server, std::span<const std::string> fits,
                   std::function<void(std::string_view)> on_reply)
    : thread_([this, &server, fits, on_reply = std::move(on_reply)] {
        run(server, fits, on_reply);
      }) {}

FitFlood::~FitFlood() { stop(); }

void FitFlood::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void FitFlood::run(serve::Server& server, std::span<const std::string> fits,
                   const std::function<void(std::string_view)>& on_reply) {
  long n = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (inflight_.load(std::memory_order_acquire) >= kMaxInFlight) {
      std::this_thread::yield();
      continue;
    }
    ++n;
    std::string line = with_unique_id(
        fits[static_cast<std::size_t>(n) % fits.size()], n);
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    const bool admitted =
        server.submit(std::move(line), [this, &on_reply](std::string&& body) {
          if (on_reply) on_reply(body);
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
        });
    if (!admitted) {  // heavy lane full: the designed backstop
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      std::this_thread::yield();
    }
  }
  // Drain the admitted tail.
  while (inflight_.load(std::memory_order_acquire) > 0)
    std::this_thread::yield();
}

}  // namespace archline::sim
