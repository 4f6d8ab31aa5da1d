// The seeded load plan: which apps exist, how fast and in what phase each
// beats, which tags it carries, and when it goes silent.
//
// The plan is a pure function of (workload, seed, measured seconds). Both
// processes of a run derive it independently — the generator to emit
// beats, the monitor to judge the verdicts — so nothing but beats crosses
// the process boundary. canonical() renders the plan as text and hash()
// fingerprints that text, so two runs can prove they drove the same load.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace pipebench {

using hb::util::TimeNs;

/// How an app derives the tag of its n-th emitted beat.
enum class TagMode : std::uint8_t {
  kPhase4,  ///< (offset + n) % 4: a four-phase job cycle
  kGop,     ///< x264 GOP frame type I/P/B, pattern IBBPBBPBBPBB
  kSeq,     ///< n itself: a per-beat progress marker
};

/// Frame-type tag values used by kGop.
inline constexpr std::uint64_t kFrameI = 0, kFrameP = 1, kFrameB = 2;

struct AppPlan {
  std::string name;
  TimeNs period_ns = 0;  ///< scheduled beat spacing
  TimeNs phase_ns = 0;   ///< first scheduled beat, relative to the run epoch
  std::uint32_t flush_every = 1;  ///< ShmHubSinkOptions::flush_every
  TagMode tags = TagMode::kPhase4;
  std::uint64_t tag_offset = 0;
  /// Silence window [silence_at_ns, silence_at_ns + silence_for_ns),
  /// relative to the run epoch; scheduled beats inside it are skipped.
  /// silence_for_ns == 0 means the app never goes silent.
  TimeNs silence_at_ns = 0;
  TimeNs silence_for_ns = 0;
  /// A 10 Hz death-detection probe riding along a workload whose own apps
  /// never go silent; probes stay out of that workload's view-age figures.
  bool probe = false;

  bool silenced() const { return silence_for_ns > 0; }
  bool silent_at(TimeNs t) const {
    return silenced() && t >= silence_at_ns &&
           t < silence_at_ns + silence_for_ns;
  }
  std::uint64_t tag(std::uint64_t n) const;
};

struct Plan {
  std::string workload;
  std::uint64_t seed = 0;
  TimeNs warmup_ns = 0;   ///< beats before the measured window opens
  TimeNs measure_ns = 0;  ///< the measured window
  TimeNs tick_ns = 0;     ///< generator schedule granularity
  /// Apps in construction order: the first ShmIngestQueue lanes go to the
  /// first apps constructed.
  std::vector<AppPlan> apps;

  TimeNs end_ns() const { return warmup_ns + measure_ns; }
  std::size_t silenced_count() const;
  /// One line per app plus a header; every field that shapes the load.
  std::string canonical() const;
  /// FNV-1a 64 of canonical().
  std::uint64_t hash() const;
};

/// Silenced apps stay quiet this long: well beyond the ~0.9 s death bound
/// of a 10 Hz app, so every silence must yield a death verdict.
inline constexpr TimeNs kSilenceHoldNs = 2 * hb::util::kNsPerSec;

/// The shortest measured window a plan can schedule its silences in.
inline constexpr int kMinSeconds = 5;

/// Workload names make_plan accepts.
const std::vector<std::string>& workload_names();

/// Build the plan; throws std::invalid_argument for an unknown workload
/// or seconds < kMinSeconds.
Plan make_plan(std::string_view workload, std::uint64_t seed, int seconds);

}  // namespace pipebench
