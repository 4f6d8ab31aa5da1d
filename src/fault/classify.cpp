#include "fault/classify.hpp"

#include <cmath>

#include "core/rate.hpp"
#include "util/stats.hpp"

namespace hb::fault {

const char* to_string(Health h) {
  switch (h) {
    case Health::kWarmingUp: return "warming-up";
    case Health::kHealthy: return "healthy";
    case Health::kSlow: return "slow";
    case Health::kErratic: return "erratic";
    case Health::kDead: return "dead";
  }
  return "unknown";
}

Health classify(const Evidence& e, const FleetDetectorOptions& opts) {
  // An evicted app was already judged dead by the hub's staleness bound.
  if (e.evicted) return Health::kDead;

  // Discount transport lag (pump poll interval + producer batch hold)
  // before judging silence; see FleetDetectorOptions::staleness_slack_ns.
  const util::TimeNs staleness = e.staleness_ns > opts.staleness_slack_ns
                                     ? e.staleness_ns - opts.staleness_slack_ns
                                     : 0;

  // Absolute bound first: the only check that can fire for apps that never
  // beat or whose windowed beats all share one tick (mean interval 0).
  if (opts.absolute_staleness_ns > 0 &&
      staleness > opts.absolute_staleness_ns) {
    return Health::kDead;
  }

  if (e.total_beats < opts.min_beats) return Health::kWarmingUp;

  // Staleness vs cadence. (By design, a producer that slows to a cadence
  // far beyond its historical one reads dead until its next beat revives
  // it — silence past staleness_factor times the last known cadence IS the
  // §2.6 failure signal.)
  const double mean_ns = e.interval_mean_ns;
  if (mean_ns > 0.0 &&
      static_cast<double>(staleness) > opts.staleness_factor * mean_ns) {
    return Health::kDead;
  }

  // Warmed up by lifetime beats, but the window holds too little evidence
  // for a rate or jitter verdict (fewer than 2 beats ever, or everything
  // aged past the hub's window_ns and the app only just resumed): not
  // provably dead, not provably anything.
  if (e.window_beats < 2) return Health::kWarmingUp;

  // A zero-span window reads as an infinite rate — unmeasurably fast is
  // not "slow", so the isfinite guard only ever helps the app here.
  if (e.target.min_bps > 0.0 && std::isfinite(e.rate_bps) &&
      e.rate_bps < e.target.min_bps) {
    return Health::kSlow;
  }

  if (mean_ns > 0.0 && e.interval_stddev_ns > opts.jitter_factor * mean_ns) {
    return Health::kErratic;
  }
  return Health::kHealthy;
}

Evidence evidence(const core::HeartbeatReader& reader) {
  Evidence e;
  e.staleness_ns = reader.staleness_ns();
  e.total_beats = reader.count();
  e.target = reader.target();
  const auto history = reader.history(kReaderHistoryBeats);
  e.window_beats = history.size();
  e.rate_bps = core::window_rate(history);
  if (history.size() >= 2) {
    // Newest interval first, the order the hub's shard walks its interval
    // ring in, so both sources round the sums identically.
    double sum = 0.0;
    double sumsq = 0.0;
    for (std::size_t i = history.size() - 1; i > 0; --i) {
      const auto d = static_cast<double>(history[i].timestamp_ns -
                                         history[i - 1].timestamp_ns);
      sum += d;
      sumsq += d * d;
    }
    const auto n = static_cast<double>(history.size() - 1);
    e.interval_mean_ns = sum / n;
    e.interval_stddev_ns = util::population_stddev(n, sum, sumsq);
  }
  return e;
}

Evidence evidence(const hub::AppSummary& s) {
  Evidence e;
  e.staleness_ns = s.staleness_ns;
  e.total_beats = s.total_beats;
  e.window_beats = s.window_beats;
  e.rate_bps = s.rate_bps;
  // Fall back to the last non-empty window's mean when time-based aging
  // has drained the current one — a producer that went silent long enough
  // for its whole window to expire must not lose its death verdict along
  // with its intervals.
  e.interval_mean_ns = s.interval_mean_ns > 0.0 ? s.interval_mean_ns
                                                : s.last_interval_mean_ns;
  e.interval_stddev_ns = s.interval_stddev_ns;
  e.target = s.target;
  e.evicted = s.evicted;
  return e;
}

}  // namespace hb::fault
