// Watchdog: heartbeat-driven detect-and-restart (paper §2.3/§2.4).
#include <gtest/gtest.h>

#include <memory>

#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "fault/watchdog.hpp"
#include "util/clock.hpp"

namespace hb::fault {
namespace {

using util::kNsPerSec;

struct WatchdogFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<core::MemoryStore> store =
      std::make_shared<core::MemoryStore>(256, true, 16);
  core::Channel producer{store, clock};
  int restarts = 0;

  Watchdog make_watchdog(WatchdogOptions opts = WatchdogOptions()) {
    return Watchdog(core::HeartbeatReader(store, clock),
                    [this] { ++restarts; }, clock, opts);
  }

  void beats(int n, util::TimeNs interval) {
    for (int i = 0; i < n; ++i) {
      clock->advance(interval);
      producer.beat();
    }
  }
};

TEST_F(WatchdogFixture, HealthyAppNeverRestarted) {
  auto dog = make_watchdog();
  for (int i = 0; i < 20; ++i) {
    beats(5, kNsPerSec / 10);
    EXPECT_EQ(dog.poll(), Health::kHealthy);
  }
  EXPECT_EQ(restarts, 0);
}

TEST_F(WatchdogFixture, HangTriggersRestart) {
  auto dog = make_watchdog();
  beats(20, kNsPerSec / 10);
  EXPECT_EQ(dog.poll(), Health::kHealthy);
  clock->advance(5 * kNsPerSec);  // silence >> 8x mean interval
  EXPECT_EQ(dog.poll(), Health::kDead);
  EXPECT_EQ(restarts, 1);
}

TEST_F(WatchdogFixture, GracePeriodPreventsRestartStorm) {
  WatchdogOptions opts;
  opts.restart_grace_ns = 10 * kNsPerSec;
  auto dog = make_watchdog(opts);
  beats(20, kNsPerSec / 10);
  clock->advance(5 * kNsPerSec);
  dog.poll();  // restart #1
  // Still dead on the next polls, but within grace: no extra restarts.
  clock->advance(kNsPerSec);
  dog.poll();
  clock->advance(kNsPerSec);
  dog.poll();
  EXPECT_EQ(restarts, 1);
  // After grace expires, a still-dead app is restarted again.
  clock->advance(10 * kNsPerSec);
  dog.poll();
  EXPECT_EQ(restarts, 2);
}

TEST_F(WatchdogFixture, RecoveryAfterRestartStopsRestarts) {
  auto dog = make_watchdog();
  beats(20, kNsPerSec / 10);
  clock->advance(5 * kNsPerSec);
  dog.poll();
  EXPECT_EQ(restarts, 1);
  // The "restarted app" resumes beating: healthy again, no more restarts.
  beats(20, kNsPerSec / 10);
  EXPECT_EQ(dog.poll(), Health::kHealthy);
  EXPECT_EQ(restarts, 1);
}

TEST_F(WatchdogFixture, MaxRestartsGivesUp) {
  WatchdogOptions opts;
  opts.max_restarts = 2;
  opts.restart_grace_ns = kNsPerSec;
  auto dog = make_watchdog(opts);
  beats(20, kNsPerSec / 10);
  for (int i = 0; i < 5; ++i) {
    clock->advance(10 * kNsPerSec);
    dog.poll();
  }
  EXPECT_EQ(restarts, 2);
  EXPECT_TRUE(dog.gave_up());
}

TEST_F(WatchdogFixture, WarmingUpAppNotKilled) {
  auto dog = make_watchdog();
  EXPECT_EQ(dog.poll(), Health::kWarmingUp);
  clock->advance(100 * kNsPerSec);
  EXPECT_EQ(dog.poll(), Health::kWarmingUp);  // no absolute bound configured
  EXPECT_EQ(restarts, 0);
}

TEST_F(WatchdogFixture, AbsoluteStalenessKillsNeverStartingApp) {
  WatchdogOptions opts;
  opts.detector.absolute_staleness_ns = 3 * kNsPerSec;
  auto dog = make_watchdog(opts);
  clock->advance(5 * kNsPerSec);  // registered, never beat
  EXPECT_EQ(dog.poll(), Health::kDead);
  EXPECT_EQ(restarts, 1);
}

TEST_F(WatchdogFixture, JustAttachedAppIsNotRestartedOnFirstPoll) {
  // Regression: a never-beating producer's silence used to be measured
  // from the clock's epoch (machine uptime on the monotonic clock), so a
  // watchdog attached an hour in restarted the app on its very first poll.
  // Silence now counts from the moment the reader was attached.
  clock->advance(3600 * kNsPerSec);
  WatchdogOptions opts;
  opts.detector.absolute_staleness_ns = 3 * kNsPerSec;
  auto dog = make_watchdog(opts);
  EXPECT_EQ(dog.poll(), Health::kWarmingUp);
  EXPECT_EQ(restarts, 0);
  clock->advance(5 * kNsPerSec);  // past the bound, counted from attach
  EXPECT_EQ(dog.poll(), Health::kDead);
  EXPECT_EQ(restarts, 1);
}

}  // namespace
}  // namespace hb::fault
