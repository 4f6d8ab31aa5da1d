// The §2.6 verdict, in one place.
//
// Paper, Section 2.6: "A lack of heartbeats from a particular node would
// indicate that it has failed, and slow or erratic heartbeats could indicate
// that a machine is about to fail." classify() turns the beat evidence of
// one producer into a health verdict using only staleness, rate and jitter
// — no knowledge of the application. It is the ONLY implementation of those
// rules: every observer builds an Evidence and asks it.
//
// Two adapters build Evidence:
//   * evidence(const HeartbeatReader&) — one producer's store, read over
//     its last kReaderHistoryBeats beats (Watchdog, GlobalScheduler's
//     reader-backed apps, HeartbeatConsolidator, hbmon show/watch);
//   * evidence(const AppSummary&) — one app of a hub FleetSnapshot
//     (FleetDetector sweeps, GlobalScheduler's hub-backed apps).
// Fed the same beats, both give the same verdict.
//
// Definitions shared by both sources:
//   * jitter is the POPULATION standard deviation of the inter-beat
//     intervals in the window (divide by n, not n-1);
//   * a producer that never beat is silent since it appeared: the hub
//     measures from registration, a reader from its construction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/reader.hpp"
#include "core/record.hpp"
#include "hub/summary.hpp"
#include "util/time.hpp"

namespace hb::fault {

enum class Health {
  kWarmingUp,  ///< too few beats to judge
  kHealthy,    ///< beating on time and meeting its target
  kSlow,       ///< beating, but below its registered minimum rate
  kErratic,    ///< beating at rate, but with anomalous interval jitter
  kDead,       ///< beats stopped (staleness way beyond the expected interval)
};

const char* to_string(Health h);

/// The verdict thresholds, for every observer (fleet sweeps, watchdogs,
/// schedulers, hbmon).
struct FleetDetectorOptions {
  /// Dead when staleness exceeds this multiple of the windowed mean
  /// inter-beat interval.
  double staleness_factor = 8.0;
  /// Erratic when the interval coefficient of variation (stddev / mean)
  /// exceeds this. Steady producers sit near 0; an alternating
  /// fast/stalled pattern approaches 1.
  double jitter_factor = 0.8;
  /// Lifetime beats required before any verdict other than warming-up/dead.
  std::uint64_t min_beats = 4;
  /// Absolute staleness bound (ns) that marks death in any state — the only
  /// bound that can fire for apps that never beat, or whose beats all share
  /// one tick (zero mean interval). 0 disables.
  util::TimeNs absolute_staleness_ns = 0;
  /// Transport allowance (ns) subtracted from observed staleness before any
  /// staleness verdict. For hubs fed across a process boundary (the shm
  /// ingest pump) a beat is only as fresh as the last drain: observed
  /// staleness includes up to one pump poll interval plus the producer's
  /// batch hold, on top of the cross-process clock-sampling skew of the
  /// shared CLOCK_MONOTONIC epoch. Set to roughly poll_interval +
  /// ShmHubSinkOptions::max_hold_ns so transport lag is never read as
  /// death. 0 (the default) is correct for in-process ingestion and for
  /// readers, which observe the store directly.
  util::TimeNs staleness_slack_ns = 0;
  /// Cap on FleetHealth::worst (the most-stale non-healthy apps).
  std::size_t max_worst = 5;
};

/// What one observation knows about one producer.
struct Evidence {
  /// ns since the newest beat; for a producer that never beat, since it
  /// appeared (hub registration / reader construction).
  util::TimeNs staleness_ns = 0;
  std::uint64_t total_beats = 0;   ///< lifetime beats
  std::uint64_t window_beats = 0;  ///< beats the rate/jitter window holds
  double rate_bps = 0.0;           ///< windowed rate, (n-1)/span rule
  /// Cadence yardstick for the staleness bound: the window's mean interval,
  /// or the last known one when time-based aging drained the window.
  double interval_mean_ns = 0.0;
  double interval_stddev_ns = 0.0;  ///< population stddev over the window
  core::TargetRate target;          ///< registered goal band
  bool evicted = false;             ///< the hub already confirmed the death
};

/// The verdict. Pure: same evidence and options, same answer.
Health classify(const Evidence& e, const FleetDetectorOptions& opts);

/// Beats of history a reader-side observation reads.
inline constexpr std::size_t kReaderHistoryBeats = 16;

/// Evidence from one producer's store, over its last kReaderHistoryBeats
/// beats.
Evidence evidence(const core::HeartbeatReader& reader);

/// Evidence from one app's hub summary.
Evidence evidence(const hub::AppSummary& summary);

}  // namespace hb::fault
