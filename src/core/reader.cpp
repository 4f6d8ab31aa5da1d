#include "core/reader.hpp"

#include <cassert>

namespace hb::core {

HeartbeatReader::HeartbeatReader(std::shared_ptr<const BeatStore> store,
                                 std::shared_ptr<const util::Clock> clock)
    : store_(std::move(store)), clock_(std::move(clock)) {
  assert(store_);
  if (!clock_) clock_ = util::MonotonicClock::instance();
  attached_at_ns_ = clock_->now();
}

double HeartbeatReader::current_rate(std::uint32_t window) const {
  std::uint32_t w = window == 0 ? store_->default_window() : window;
  if (w == 0) w = 1;
  const std::size_t want = w < 2 ? 2 : w;
  return window_rate(store_->history(want));
}

double HeartbeatReader::instant_rate() const {
  return core::instant_rate(store_->history(2));
}

util::TimeNs HeartbeatReader::staleness_ns() const {
  const auto last = store_->history(1);
  if (last.empty()) return clock_->now() - attached_at_ns_;
  return clock_->now() - last.back().timestamp_ns;
}

double HeartbeatReader::jitter_ns(std::uint32_t window) const {
  std::uint32_t w = window == 0 ? store_->default_window() : window;
  if (w < 3) w = 3;
  return interval_jitter_ns(store_->history(w));
}

double HeartbeatReader::target_error(std::uint32_t window) const {
  const double r = current_rate(window);
  const TargetRate t = store_->target();
  if (r < t.min_bps) return r - t.min_bps;
  if (r > t.max_bps) return r - t.max_bps;
  return 0.0;
}

}  // namespace hb::core
