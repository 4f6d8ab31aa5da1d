#include "fault/watchdog.hpp"

#include <cassert>

namespace hb::fault {

Watchdog::Watchdog(core::HeartbeatReader reader, std::function<void()> restart,
                   std::shared_ptr<const util::Clock> clock,
                   WatchdogOptions opts)
    : reader_(std::move(reader)),
      restart_(std::move(restart)),
      clock_(std::move(clock)),
      opts_(opts) {
  assert(restart_ && clock_);
}

Health Watchdog::poll() {
  last_health_ = classify(evidence(reader_), opts_.detector);
  if (last_health_ != Health::kDead) return last_health_;
  if (gave_up()) return last_health_;
  const util::TimeNs now = clock_->now();
  if (ever_restarted_ && now - last_restart_at_ < opts_.restart_grace_ns) {
    return last_health_;  // just restarted; give it time to warm up
  }
  ever_restarted_ = true;
  last_restart_at_ = now;
  ++restarts_;
  restart_();
  return last_health_;
}

}  // namespace hb::fault
