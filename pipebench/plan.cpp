#include "plan.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace pipebench {
namespace {

using hb::util::kNsPerMs;
using hb::util::kNsPerSec;
using hb::util::kNsPerUs;

constexpr TimeNs kWarmupNs = 1 * kNsPerSec;
constexpr TimeNs kTickNs = 1 * kNsPerMs;
constexpr TimeNs kTenHzNs = 100 * kNsPerMs;

// fleet: 100 racks x 40 VMs at 10 Hz; whole racks plus lone VMs go silent.
constexpr int kRacks = 100;
constexpr int kVmsPerRack = 40;
constexpr int kSilencedRacks = 3;
constexpr int kSilencedLoneVms = 90;

// hot and crowd carry 10 Hz probe apps that go silent once each, so every
// workload measures death->verdict on the same 10 Hz death bound. 200
// probes keep >= 10 samples beyond the p95.
constexpr int kProbes = 200;

std::uint64_t stream_seed(std::string_view workload, std::uint64_t seed) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : workload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return seed ^ h;
}

// Silences start inside the measured window and end (hold included) at
// least a second before it closes, so each one's verdict lands in-window.
TimeNs draw_silence_start(hb::util::Rng& rng, const Plan& plan) {
  const TimeNs lo = plan.warmup_ns + 200 * kNsPerMs;
  const TimeNs hi = plan.end_ns() - kSilenceHoldNs - 1 * kNsPerSec;
  return lo + static_cast<TimeNs>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo)));
}

AppPlan ten_hz_app(std::string name, hb::util::Rng& rng) {
  AppPlan app;
  app.name = std::move(name);
  app.period_ns = kTenHzNs;
  app.phase_ns = static_cast<TimeNs>(rng.next_below(kTenHzNs));
  app.tags = TagMode::kPhase4;
  app.tag_offset = rng.next_below(4);
  return app;
}

void add_probes(Plan& plan, hb::util::Rng& rng) {
  char name[32];
  for (int i = 0; i < kProbes; ++i) {
    std::snprintf(name, sizeof(name), "probe/p-%03d", i);
    AppPlan app = ten_hz_app(name, rng);
    app.silence_at_ns = draw_silence_start(rng, plan);
    app.silence_for_ns = kSilenceHoldNs;
    app.probe = true;
    plan.apps.push_back(std::move(app));
  }
}

void build_fleet(Plan& plan, hb::util::Rng& rng) {
  char name[32];
  for (int r = 0; r < kRacks; ++r) {
    for (int v = 0; v < kVmsPerRack; ++v) {
      std::snprintf(name, sizeof(name), "rack%02d/vm-%02d", r, v);
      plan.apps.push_back(ten_hz_app(name, rng));
    }
  }
  // Whole racks go dark together (their deaths fold into correlated
  // failures); lone VMs elsewhere die alone. Nobody goes dark twice, so
  // flap quarantine never fires.
  std::vector<int> racks(kRacks);
  std::iota(racks.begin(), racks.end(), 0);
  for (int i = 0; i < kSilencedRacks; ++i) {
    std::swap(racks[i], racks[i + rng.next_below(kRacks - i)]);
    const TimeNs at = draw_silence_start(rng, plan);
    for (int v = 0; v < kVmsPerRack; ++v) {
      AppPlan& app = plan.apps[racks[i] * kVmsPerRack + v];
      app.silence_at_ns = at;
      app.silence_for_ns = kSilenceHoldNs;
    }
  }
  std::vector<int> lone;
  for (int r = kSilencedRacks; r < kRacks; ++r) {
    for (int v = 0; v < kVmsPerRack; ++v) {
      lone.push_back(racks[r] * kVmsPerRack + v);
    }
  }
  for (int i = 0; i < kSilencedLoneVms; ++i) {
    const std::size_t pick = i + rng.next_below(lone.size() - i);
    std::swap(lone[i], lone[pick]);
    AppPlan& app = plan.apps[lone[i]];
    app.silence_at_ns = draw_silence_start(rng, plan);
    app.silence_for_ns = kSilenceHoldNs;
  }
}

// 8 encoders at 50k beats/s, each on its own lane, batching 9 beats
// (three packed frames) per flush.
void build_hot(Plan& plan, hb::util::Rng& rng) {
  constexpr TimeNs kPeriodNs = 20 * kNsPerUs;
  char name[32];
  for (int i = 0; i < 8; ++i) {
    std::snprintf(name, sizeof(name), "x264/enc-%d", i);
    AppPlan app;
    app.name = name;
    app.period_ns = kPeriodNs;
    app.phase_ns = static_cast<TimeNs>(rng.next_below(kPeriodNs));
    app.flush_every = 9;
    app.tags = TagMode::kGop;
    app.tag_offset = rng.next_below(12);
    plan.apps.push_back(std::move(app));
  }
  add_probes(plan, rng);
}

// 512 apps at 500 beats/s, one frame per beat; tags are progress markers.
void build_crowd(Plan& plan, hb::util::Rng& rng) {
  constexpr TimeNs kPeriodNs = 2 * kNsPerMs;
  char name[32];
  for (int i = 0; i < 512; ++i) {
    std::snprintf(name, sizeof(name), "crowd/app-%03d", i);
    AppPlan app;
    app.name = name;
    app.period_ns = kPeriodNs;
    app.phase_ns = static_cast<TimeNs>(rng.next_below(kPeriodNs));
    app.tags = TagMode::kSeq;
    plan.apps.push_back(std::move(app));
  }
  add_probes(plan, rng);
}

}  // namespace

std::uint64_t AppPlan::tag(std::uint64_t n) const {
  static constexpr std::uint64_t kGopPattern[12] = {
      kFrameI, kFrameB, kFrameB, kFrameP, kFrameB, kFrameB,
      kFrameP, kFrameB, kFrameB, kFrameP, kFrameB, kFrameB};
  switch (tags) {
    case TagMode::kPhase4: return (tag_offset + n) % 4;
    case TagMode::kGop: return kGopPattern[(tag_offset + n) % 12];
    case TagMode::kSeq: return n;
  }
  return 0;
}

std::size_t Plan::silenced_count() const {
  return static_cast<std::size_t>(
      std::count_if(apps.begin(), apps.end(),
                    [](const AppPlan& a) { return a.silenced(); }));
}

std::string Plan::canonical() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "plan %s seed=%" PRIu64 " warmup=%" PRId64 " measure=%" PRId64
                " tick=%" PRId64 " apps=%zu\n",
                workload.c_str(), seed, warmup_ns, measure_ns, tick_ns,
                apps.size());
  out += line;
  for (const AppPlan& a : apps) {
    std::snprintf(line, sizeof(line),
                  "%s %" PRId64 " %" PRId64 " %u %d %" PRIu64 " %" PRId64
                  " %" PRId64 "\n",
                  a.name.c_str(), a.period_ns, a.phase_ns, a.flush_every,
                  static_cast<int>(a.tags), a.tag_offset, a.silence_at_ns,
                  a.silence_for_ns);
    out += line;
  }
  return out;
}

std::uint64_t Plan::hash() const {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : canonical()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fleet", "hot", "crowd"};
  return names;
}

Plan make_plan(std::string_view workload, std::uint64_t seed, int seconds) {
  if (seconds < kMinSeconds) {
    throw std::invalid_argument("measured window shorter than " +
                                std::to_string(kMinSeconds) + " s");
  }
  Plan plan;
  plan.workload = std::string(workload);
  plan.seed = seed;
  plan.warmup_ns = kWarmupNs;
  plan.measure_ns = static_cast<TimeNs>(seconds) * kNsPerSec;
  plan.tick_ns = kTickNs;
  hb::util::Rng rng(stream_seed(workload, seed));
  if (workload == "fleet") {
    build_fleet(plan, rng);
  } else if (workload == "hot") {
    build_hot(plan, rng);
  } else if (workload == "crowd") {
    build_crowd(plan, rng);
  } else {
    throw std::invalid_argument("unknown workload: " + plan.workload);
  }
  return plan;
}

}  // namespace pipebench
