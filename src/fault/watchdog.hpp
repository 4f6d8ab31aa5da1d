// Watchdog: detect-and-restart built on heartbeats.
//
// Paper, Section 2.3: "heartbeats might be used to detect application hangs
// or crashes, and restart the application." Section 2.4: "Heartbeats allow
// an OS to determine when applications fail and quickly restart them."
//
// The watchdog polls a HeartbeatReader through fault::classify and invokes
// a restart action when the application is judged dead, with a grace period
// so a freshly restarted (still warming up) application is not killed again
// immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "core/reader.hpp"
#include "fault/classify.hpp"
#include "util/clock.hpp"

namespace hb::fault {

struct WatchdogOptions {
  FleetDetectorOptions detector{};
  /// After a restart, ignore verdicts for this long (the app must re-warm).
  util::TimeNs restart_grace_ns = util::kNsPerSec;
  /// Give up after this many restarts (0 = never give up).
  int max_restarts = 0;
};

class Watchdog {
 public:
  /// `restart` is invoked on each death verdict; `clock` must share the
  /// producer's epoch.
  Watchdog(core::HeartbeatReader reader, std::function<void()> restart,
           std::shared_ptr<const util::Clock> clock,
           WatchdogOptions opts = WatchdogOptions());

  /// Assess and possibly restart. Returns the health observed this poll.
  Health poll();

  int restarts() const { return restarts_; }
  bool gave_up() const {
    return opts_.max_restarts > 0 && restarts_ >= opts_.max_restarts;
  }
  Health last_health() const { return last_health_; }

 private:
  core::HeartbeatReader reader_;
  std::function<void()> restart_;
  std::shared_ptr<const util::Clock> clock_;
  WatchdogOptions opts_;
  bool ever_restarted_ = false;
  util::TimeNs last_restart_at_ = 0;
  int restarts_ = 0;
  Health last_health_ = Health::kWarmingUp;
};

}  // namespace hb::fault
