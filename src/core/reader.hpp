// HeartbeatReader: the observer-facing side of the framework.
//
// Paper, Figure 1(b): an external observer (OS, scheduler, cloud manager,
// hardware) queries an application's performance through the same windowed
// heart-rate semantics the application itself uses. A reader never mutates
// the beat history; it may be attached to an in-process store, a shared-
// memory segment of another process, or a file log.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rate.hpp"
#include "core/record.hpp"
#include "core/store.hpp"
#include "util/clock.hpp"

namespace hb::core {

class HeartbeatReader {
 public:
  /// `store` must be non-null. `clock` defaults to the monotonic clock and is
  /// only used for staleness computations; it must share an epoch with the
  /// producer's clock for staleness_ns() to be meaningful.
  explicit HeartbeatReader(std::shared_ptr<const BeatStore> store,
                           std::shared_ptr<const util::Clock> clock = nullptr);

  /// Average heart rate over the last `window` beats; 0 selects the
  /// producer's default window (paper: HB_current_rate).
  double current_rate(std::uint32_t window = 0) const;

  /// Rate from the most recent beat interval only.
  double instant_rate() const;

  /// Total beats registered so far.
  std::uint64_t count() const { return store_->count(); }

  /// Last n beats, oldest first (paper: HB_get_history).
  std::vector<HeartbeatRecord> history(std::size_t n) const {
    return store_->history(n);
  }

  /// The producer's registered target range (paper: HB_get_target_min/max).
  TargetRate target() const { return store_->target(); }
  double target_min() const { return store_->target().min_bps; }
  double target_max() const { return store_->target().max_bps; }

  std::uint32_t default_window() const { return store_->default_window(); }

  /// Nanoseconds since the last beat (monotone increasing between beats);
  /// for a producer that never beat, since this reader was constructed —
  /// silent since the observer appeared, as the hub measures a never-beating
  /// app from its registration. The liveness signal: a hung or dead
  /// application stops beating (paper, Sections 2.3, 2.4, 2.6).
  util::TimeNs staleness_ns() const;

  /// Standard deviation of recent beat intervals; erratic beats can signal
  /// imminent failure (paper, Section 2.6).
  double jitter_ns(std::uint32_t window = 0) const;

  /// True if the current rate is within the producer's target range.
  bool meeting_target(std::uint32_t window = 0) const {
    return store_->target().contains(current_rate(window));
  }

  /// Signed error relative to the target range: 0 inside the range,
  /// negative when below min (units: beats/s), positive when above max.
  double target_error(std::uint32_t window = 0) const;

  const BeatStore& store() const { return *store_; }

 private:
  std::shared_ptr<const BeatStore> store_;
  std::shared_ptr<const util::Clock> clock_;
  util::TimeNs attached_at_ns_ = 0;  ///< clock_->now() at construction
};

}  // namespace hb::core
