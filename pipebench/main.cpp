// pipebench: the heartbeat pipeline end to end, across a process boundary.
//
//   pipebench --workload fleet|hot|crowd --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--git-sha SHA]
//
// The measuring process forks a load generator (generator.hpp) that beats
// the seeded plan (plan.hpp) into a fresh ShmIngestQueue, then runs the
// `hbmon fleet --watch` observe-decide loop over it with the same settings:
// ShmIngestPump::poll(); at each 50 ms sweep deadline HeartbeatHub::
// snapshot(), FleetDetector::sweep(), FlightRecorder::record_report() and
// PolicyEngine::observe(); then pump.wait() until the next deadline. Every
// layer is timed from here, around its public calls, or read through its
// public stats. The last stdout line is the JSON result: end-to-end
// metrics untraced, per-layer metrics with --trace 1.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "generator.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/postmortem.hpp"
#include "plan.hpp"
#include "policy/action_sink.hpp"
#include "policy/policy_engine.hpp"
#include "stats.hpp"
#include "transport/registry.hpp"
#include "transport/shm_ingest.hpp"

namespace pipebench {
namespace {

namespace fs = std::filesystem;
using hb::util::kNsPerMs;
using hb::util::kNsPerSec;

// The `hbmon fleet --watch` defaults (src/tools/hbmon.cpp) with a 50 ms
// sweep: poll backoff cap 50 ms, 5 s absolute death bound, eviction at
// 20x that bound, slack = poll interval + producer hold.
constexpr TimeNs kSweepNs = 50 * kNsPerMs;
constexpr TimeNs kPollNs = 50 * kNsPerMs;
constexpr TimeNs kDeadNs = 5000 * kNsPerMs;
constexpr int kSetupRounds = 9;
constexpr TimeNs kSetupTimeoutNs = 60 * kNsPerSec;
constexpr TimeNs kSetupQuietNs = 50 * kNsPerMs;
// A death verdict belongs to a silence if it lands before the app's
// revival beats have had time to reach the hub.
constexpr TimeNs kVerdictGraceNs = 1 * kNsPerSec;
// Validity guards, not tuning knobs: a generator this late measured the
// scheduler, and child spans must cover a sweep this fully.
constexpr double kGenLateBoundMs = 25.0;
constexpr double kSweepCoverageBound = 0.95;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  fs::path work_dir = ".pipebench";
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stoi(val);
    else if (key == "--trace") a.trace = val != "0";
    else if (key == "--work-dir") a.work_dir = val;
    else if (key == "--git-sha") a.git_sha = val;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ------------------------------------------------------------- pipeline

/// Stamps every policy event with CLOCK_MONOTONIC as it is dispatched and
/// books deaths against the plan: the `hbmon --watch` stdout log sink's
/// slot in the sink chain.
class BenchSink final : public hb::policy::ActionSink {
 public:
  struct Death {
    std::size_t app = 0;  ///< plan index
    TimeNs at = 0;        ///< when the event reached this sink
    TimeNs last_beat = 0; ///< the app's newest beat in the swept snapshot
  };

  BenchSink(const Plan& plan) {
    for (std::size_t i = 0; i < plan.apps.size(); ++i) {
      index_.emplace(plan.apps[i].name, i);
    }
  }

  void set_snapshot(const hb::hub::FleetSnapshot* snap) { snap_ = snap; }

  void on_event(const hb::policy::PolicyEngine&,
                const hb::policy::FleetEvent& e) override {
    const TimeNs now = mono_ns();
    using hb::policy::EventKind;
    if (e.kind == EventKind::kTransition &&
        e.to_health == hb::fault::Health::kDead) {
      book(e.app, e.id, now);
    } else if (e.kind == EventKind::kCorrelatedFailure) {
      for (std::size_t i = 0; i < e.apps.size(); ++i) {
        book(e.apps[i], e.app_ids[i], now);
      }
    }
  }

  std::vector<Death> deaths;
  std::uint64_t unknown_deaths = 0;  ///< deaths of apps outside the plan

 private:
  void book(const std::string& name, hb::hub::AppId id, TimeNs now) {
    const auto it = index_.find(name);
    if (it == index_.end()) {
      ++unknown_deaths;
      return;
    }
    const hb::hub::AppSummary* s = snap_ ? snap_->find(id) : nullptr;
    deaths.push_back({it->second, now, s ? s->last_beat_ns : 0});
  }

  std::unordered_map<std::string, std::size_t> index_;
  const hb::hub::FleetSnapshot* snap_ = nullptr;
};

/// One set-up's worth of pipeline plus its generator child. Destroying it
/// kills and reaps a child that is still running, so no error path leaves
/// a generator behind.
struct Pipeline {
  Pipeline() = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  ~Pipeline() {
    if (go_fd >= 0) close(go_fd);
    if (ready_fd >= 0) close(ready_fd);
    if (child > 0) {
      kill(child, SIGKILL);
      while (waitpid(child, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
  }

  fs::path dir;
  std::shared_ptr<hb::transport::ShmIngestQueue> queue;
  std::shared_ptr<hb::hub::HeartbeatHub> hub;
  std::unique_ptr<hb::hub::ShmIngestPump> pump;
  hb::fault::FleetDetector detector;
  std::unique_ptr<hb::policy::PolicyEngine> engine;
  std::shared_ptr<hb::obs::FlightRecorder> recorder;
  std::shared_ptr<hb::obs::PostmortemSink> postmortem;
  std::shared_ptr<BenchSink> sink;
  pid_t child = -1;
  int go_fd = -1;
  int ready_fd = -1;  ///< non-blocking; a byte arrives once every app beat
};

/// The `make_live_pipeline` + `cmd_fleet_watch` wiring of hbmon, on a
/// freshly created ring, with the bench sink in the log sink's place.
std::unique_ptr<Pipeline> build_pipeline(const Plan& plan,
                                         const fs::path& dir) {
  auto owned = std::make_unique<Pipeline>();
  Pipeline& p = *owned;
  p.dir = dir;
  fs::create_directories(dir);
  p.queue = hb::transport::ShmIngestQueue::create(
      dir / "ingest.ring", hb::transport::Registry::kDefaultIngestCapacity);
  hb::hub::HubOptions opts;
  opts.shard_count = 8;
  opts.evict_after_ns = 20 * kDeadNs;
  opts.self_beat = true;
  p.hub = std::make_shared<hb::hub::HeartbeatHub>(opts);
  p.pump = std::make_unique<hb::hub::ShmIngestPump>(
      p.queue, p.hub,
      hb::hub::ShmIngestPumpOptions{.idle_sleep_min_ns = kNsPerMs,
                                    .idle_sleep_max_ns = kPollNs});
  p.detector = hb::fault::FleetDetector(
      {.absolute_staleness_ns = kDeadNs,
       .staleness_slack_ns =
           kPollNs + hb::transport::ShmHubSinkOptions{}.max_hold_ns});
  p.engine = std::make_unique<hb::policy::PolicyEngine>();
  p.sink = std::make_shared<BenchSink>(plan);
  p.engine->add_sink(p.sink);
  p.recorder = std::make_shared<hb::obs::FlightRecorder>();
  p.hub->set_flight_recorder(p.recorder);
  p.engine->add_sink(p.recorder->event_sink());
  hb::obs::PostmortemOptions pm;
  pm.dir = (dir / "postmortems").string();
  pm.source = "pipebench";
  pm.capture_spans = true;
  pm.capture_metrics = true;
  pm.stamp_wall_time = true;
  p.postmortem = std::make_shared<hb::obs::PostmortemSink>(p.recorder, pm);
  p.engine->add_sink(p.postmortem);
  return owned;
}

void fork_generator(Pipeline& p, const Plan& plan, bool trace) {
  int go[2], ready[2];
  if (pipe(go) != 0 || pipe(ready) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(go[1]);
    close(ready[0]);
    int rc = 3;
    try {
      rc = run_generator(plan, p.dir / "ingest.ring", ready[1], go[0],
                         p.dir / "gen.txt", trace);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "generator: %s\n", e.what());
    }
    std::fflush(nullptr);
    _exit(rc);
  }
  close(go[0]);
  close(ready[1]);
  p.child = pid;
  p.go_fd = go[1];
  p.ready_fd = ready[0];
  fcntl(p.ready_fd, F_SETFL, O_NONBLOCK);
}

/// Blocks until the child exits; throws unless it exited cleanly.
void reap(Pipeline& p) {
  if (p.child < 0) return;
  int status = 0;
  while (waitpid(p.child, &status, 0) < 0 && errno == EINTR) {
  }
  p.child = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("generator failed (status " +
                             std::to_string(status) + ")");
  }
}

bool child_exited(Pipeline& p, int* status) {
  return waitpid(p.child, status, WNOHANG) == p.child;
}

void send_go(Pipeline& p, TimeNs epoch) {
  if (write(p.go_fd, &epoch, sizeof(epoch)) != sizeof(epoch)) {
    throw std::runtime_error("generator go pipe closed");
  }
  close(p.go_fd);
  p.go_fd = -1;
}

/// True once the generator has constructed every app and sent its first
/// beat.
bool generator_ready(Pipeline& p) {
  char byte = 0;
  return read(p.ready_fd, &byte, 1) == 1;
}

/// One set-up round: ring, hub and generator from scratch, until the hub
/// has registered every planned app (each beats once when constructed).
/// Returns the pipeline and the seconds that took.
///
/// A first beat can be lost in transit (defect D1 in NOTES.md: a frame is
/// declared torn while its producer is alive). Set-up then ends once the
/// generator is ready, frames were lost, and the ring has been quiet for
/// kSetupQuietNs; those apps register at their next beat instead.
std::pair<std::unique_ptr<Pipeline>, double> set_up(const Plan& plan,
                                                    const fs::path& dir,
                                                    bool trace) {
  const TimeNs start = mono_ns();
  auto owned = build_pipeline(plan, dir);
  Pipeline& p = *owned;
  fork_generator(p, plan, trace);
  const std::size_t want = plan.apps.size() + 1;  // + the hub's self app
  bool ready = false;
  TimeNs last_progress = start;
  while (p.hub->app_count() < want) {
    if (p.pump->poll() > 0) last_progress = mono_ns();
    if (p.hub->app_count() >= want) break;
    ready = ready || generator_ready(p);
    const auto st = p.pump->stats();
    if (ready && st.torn + st.dropped > 0 &&
        mono_ns() - last_progress > kSetupQuietNs) {
      std::printf("set-up: %zu first beats lost (%" PRIu64 " torn, %" PRIu64
                  " dropped frames); those apps register at their next beat\n",
                  want - p.hub->app_count(), st.torn, st.dropped);
      break;
    }
    int status = 0;
    if (child_exited(p, &status)) {
      p.child = -1;
      throw std::runtime_error("generator exited during set-up");
    }
    if (mono_ns() - start > kSetupTimeoutNs) {
      throw std::runtime_error("set-up timed out");
    }
    p.pump->wait(kNsPerMs);
  }
  return {std::move(owned), static_cast<double>(mono_ns() - start) / 1e9};
}

// ---------------------------------------------------------------- trace

enum SpanName : std::uint8_t {
  kLoopSweep, kHubSnapshot, kFaultSweep, kObsRecord, kPolicyObserve,
  kPumpPoll, kPumpWait, kCoreBeat, kSpanNames
};
constexpr const char* kSpanLabel[kSpanNames] = {
    "loop.sweep", "hub.snapshot", "fault.sweep", "obs.record_report",
    "policy.observe", "pump.poll", "pump.wait", "core.beat"};

struct Span {
  SpanName name;
  std::uint64_t id;    ///< sweep number, loop-pass number, or app index
  std::int64_t parent; ///< index of the parent span, -1 for a root
  TimeNs start, end;
};

// ------------------------------------------------------------- measure

struct Samples {
  std::vector<double> verdict_ns, view_age_ns;
  std::vector<double> snapshot_ns, sweep_ns, record_ns, observe_ns, late_ns;
  std::vector<double> poll_ns;
  TimeNs poll_total = 0, wait_total = 0;
  std::uint64_t polled_records = 0;
  std::uint64_t sweeps = 0, sweeps_skipped = 0;
  std::uint64_t applied = 0, pending_max = 0;
  double monitor_cpu_pct = 0;
  hb::hub::ShmIngestPumpStats pump0, pump1;
  hb::hub::SnapshotStats snap0, snap1;
  std::vector<Span> spans;
};

TimeNs cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<TimeNs>(tv.tv_sec) * kNsPerSec + tv.tv_usec * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::uint64_t shard_ingested(hb::hub::HeartbeatHub& hub,
                             std::uint64_t* pending) {
  std::uint64_t ingested = 0;
  *pending = 0;
  for (std::size_t i = 0; i < hub.shard_count(); ++i) {
    const auto st = hub.shard(i).stats();
    ingested += st.ingested;
    *pending += st.pending;
  }
  return ingested;
}

/// The observe-decide loop from `epoch` to the end of the plan; samples
/// only inside the measured window.
void run_loop(Pipeline& p, const Plan& plan, TimeNs epoch, bool trace,
              Samples& s) {
  const TimeNs win_start = epoch + plan.warmup_ns;
  const TimeNs win_end = epoch + plan.end_ns();
  std::vector<char> is_probe(plan.apps.size());
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < plan.apps.size(); ++i) {
    is_probe[i] = plan.apps[i].probe;
    index.emplace(plan.apps[i].name, i);
  }
  // Newest beat seen per app at the previous sweep, by [shard][slot].
  std::vector<std::vector<TimeNs>> prev_beat(p.hub->shard_count());
  std::vector<std::vector<std::int64_t>> plan_index(p.hub->shard_count());
  std::uint64_t prev_ingested = shard_ingested(*p.hub, &s.pending_max);
  s.pending_max = 0;

  bool in_window = false;
  TimeNs cpu0 = 0, wall0 = 0;
  TimeNs next_sweep = epoch + kSweepNs;
  std::uint64_t pass = 0;
  while (true) {
    const TimeNs t0 = mono_ns();
    if (t0 >= win_end) break;
    if (!in_window && t0 >= win_start) {
      in_window = true;
      cpu0 = cpu_ns();
      wall0 = t0;
      s.pump0 = p.pump->stats();
      s.snap0 = p.hub->snapshot_stats();
    }
    const std::size_t got = p.pump->poll();
    const TimeNs t1 = mono_ns();
    if (in_window) {
      s.poll_ns.push_back(static_cast<double>(t1 - t0));
      s.poll_total += t1 - t0;
      s.polled_records += got;
      if (trace) s.spans.push_back({kPumpPoll, pass, -1, t0, t1});
    }

    if (t1 >= next_sweep) {
      const TimeNs deadline = next_sweep;
      std::int64_t sweep_span = -1;
      std::uint64_t pending = 0;
      const std::uint64_t ingested = shard_ingested(*p.hub, &pending);
      const TimeNs a = mono_ns();
      auto snap = p.hub->snapshot();
      const TimeNs b = mono_ns();
      const hb::fault::FleetReport report = p.detector.sweep(snap);
      const TimeNs c = mono_ns();
      p.recorder->record_report(report);
      const TimeNs d = mono_ns();
      p.sink->set_snapshot(snap.get());
      p.engine->observe(report);
      const TimeNs e = mono_ns();

      if (in_window) {
        ++s.sweeps;
        s.verdict_ns.push_back(static_cast<double>(e - deadline));
        s.late_ns.push_back(static_cast<double>(a - deadline));
        s.snapshot_ns.push_back(static_cast<double>(b - a));
        s.sweep_ns.push_back(static_cast<double>(c - b));
        s.record_ns.push_back(static_cast<double>(d - c));
        s.observe_ns.push_back(static_cast<double>(e - d));
        s.applied += ingested - prev_ingested;
        s.pending_max = std::max(s.pending_max, pending);
        if (trace) {
          // loop.sweep is closed after the view-age walk below.
          sweep_span = static_cast<std::int64_t>(s.spans.size());
          const std::int64_t root = sweep_span;
          s.spans.push_back({kLoopSweep, s.sweeps, -1, t1, 0});
          s.spans.push_back({kHubSnapshot, s.sweeps, root, a, b});
          s.spans.push_back({kFaultSweep, s.sweeps, root, b, c});
          s.spans.push_back({kObsRecord, s.sweeps, root, c, d});
          s.spans.push_back({kPolicyObserve, s.sweeps, root, d, e});
        }
      }
      prev_ingested = ingested;
      // View age: how stale each freshly beating app's newest beat is
      // when the verdict is out.
      snap->for_each_app([&](const hb::hub::AppSummary& app) {
        const std::uint32_t sh = hb::hub::app_id_shard(app.id);
        const std::uint32_t sl = hb::hub::app_id_slot(app.id);
        if (prev_beat[sh].size() <= sl) {
          prev_beat[sh].resize(sl + 1, 0);
          plan_index[sh].resize(sl + 1, -2);
        }
        if (plan_index[sh][sl] == -2) {
          const auto it = index.find(app.name);
          plan_index[sh][sl] =
              it == index.end() ? -1 : static_cast<std::int64_t>(it->second);
        }
        const std::int64_t pi = plan_index[sh][sl];
        if (app.last_beat_ns > prev_beat[sh][sl]) {
          if (in_window && pi >= 0 && !is_probe[pi] &&
              prev_beat[sh][sl] > 0) {
            s.view_age_ns.push_back(static_cast<double>(e - app.last_beat_ns));
          }
          prev_beat[sh][sl] = app.last_beat_ns;
        }
      });

      next_sweep += kSweepNs;
      const TimeNs now = mono_ns();
      if (sweep_span >= 0) s.spans[sweep_span].end = now;
      if (next_sweep < now) {
        // hbmon skips missed sweeps rather than burst-sweeping to catch up.
        if (in_window) {
          s.sweeps_skipped +=
              static_cast<std::uint64_t>((now - next_sweep) / kSweepNs) + 1;
        }
        next_sweep = now + kSweepNs;
      }
    }

    const TimeNs t2 = mono_ns();
    p.pump->wait(std::min(next_sweep, win_end) - t2);
    const TimeNs t3 = mono_ns();
    if (in_window) {
      s.wait_total += t3 - t2;
      if (trace) s.spans.push_back({kPumpWait, pass, -1, t2, t3});
    }
    ++pass;
  }
  const TimeNs wall1 = mono_ns();
  s.monitor_cpu_pct = 100.0 * static_cast<double>(cpu_ns() - cpu0) /
                      static_cast<double>(wall1 - wall0);
  s.pump1 = p.pump->stats();
  s.snap1 = p.hub->snapshot_stats();
}

/// After the window: keep draining until the generator has flushed and
/// exited, then drain until every stream is settled (a stalled slot needs
/// max_stall_polls passes to be declared torn).
void final_drain(Pipeline& p) {
  const TimeNs give_up = mono_ns() + 30 * kNsPerSec;
  int status = 0;
  while (!child_exited(p, &status)) {
    p.pump->poll();
    p.pump->wait(5 * kNsPerMs);
    if (mono_ns() > give_up) throw std::runtime_error("generator did not exit");
  }
  p.child = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("generator failed (status " +
                             std::to_string(status) + ")");
  }
  for (int i = 0; i < 8; ++i) p.pump->poll();
}

// --------------------------------------------------------------- report

struct Metric {
  std::string name, unit;
  double value;
};

struct Result {
  std::vector<Metric> e2e, layer;
  std::vector<std::string> failures;  ///< failed correctness checks
  std::uint64_t attempted = 0, failed = 0;
};

/// Median and tail of a sample set; prints each with its sample count so a
/// reader can judge the tail's support.
void add_timing(std::vector<Metric>& out, const std::string& base,
                const std::string& unit, double scale, std::vector<double> v,
                std::initializer_list<std::pair<const char*, double>> qs) {
  for (const auto& [suffix, q] : qs) {
    const double value = quantile(v, q) / scale;
    out.push_back({base + "_" + suffix, unit, value});
    std::printf("  %-28s %12.4f %-5s n=%zu beyond=%zu\n",
                (base + "_" + suffix).c_str(), value, unit.c_str(), v.size(),
                beyond(v.size(), q));
    if (q > 0.5 && beyond(v.size(), q) < 10) {
      std::printf("  warning: %s_%s rests on fewer than 10 tail samples\n",
                  base.c_str(), suffix);
    }
  }
}

void add(std::vector<Metric>& out, const std::string& name,
         const std::string& unit, double value) {
  out.push_back({name, unit, value});
  std::printf("  %-28s %12.4f %s\n", name.c_str(), value, unit.c_str());
}

void write_spans(const fs::path& path, const std::string& fingerprint,
                 const std::vector<Span>& spans) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "# " << fingerprint << "\n# name\tid\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << kSpanLabel[s.name] << '\t' << s.id << '\t' << s.parent << '\t'
        << s.start << '\t' << s.end << '\n';
  }
}

/// Per-layer self time: each span's duration minus what its children
/// cover. Returns the share of loop.sweep time its children account for.
double print_self_times(const std::vector<Span>& spans, TimeNs window_ns) {
  double total[kSpanNames] = {}, self[kSpanNames] = {};
  std::uint64_t count[kSpanNames] = {};
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end - s.start);
    total[s.name] += d;
    self[s.name] += d;
    ++count[s.name];
    if (s.parent >= 0) self[spans[s.parent].name] -= d;
  }
  std::printf("\nself time by layer (traced run; core.beat sampled)\n");
  std::printf("  %-18s %9s %12s %12s %9s\n", "span", "count", "total_ms",
              "self_ms", "self_%");
  for (int n = 0; n < kSpanNames; ++n) {
    if (count[n] == 0) continue;
    std::printf("  %-18s %9" PRIu64 " %12.3f %12.3f %8.3f%%\n", kSpanLabel[n],
                count[n], total[n] / 1e6, self[n] / 1e6,
                100.0 * self[n] / static_cast<double>(window_ns));
  }
  return total[kLoopSweep] > 0
             ? (total[kLoopSweep] - self[kLoopSweep]) / total[kLoopSweep]
             : 1.0;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[160];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value);
    out += buf;
    out += ms[i].unit + "\"}";
  }
  return out + "}";
}

/// Untraced runs leave their end-to-end figures here so a traced run of
/// the same workload can report its own overhead against them.
fs::path baseline_path(const Args& args) {
  return args.work_dir / "untraced" / (args.workload + ".txt");
}

void report_trace_overhead(const Args& args, const std::vector<Metric>& e2e) {
  std::ifstream in(baseline_path(args));
  std::map<std::string, double> base;
  std::string name;
  double value = 0;
  while (in >> name >> value) base[name] = value;
  std::printf("\ntracing overhead vs the last untraced %s run:\n",
              args.workload.c_str());
  if (base.empty()) {
    std::printf("  (no untraced run recorded yet)\n");
    return;
  }
  for (const Metric& m : e2e) {
    const auto it = base.find(m.name);
    if (it == base.end() || it->second == 0 || m.name == "setup_s") continue;
    std::printf("  %-20s untraced %10.4f traced %10.4f  %+7.2f%%\n",
                m.name.c_str(), it->second, m.value,
                100.0 * (m.value / it->second - 1.0));
  }
}

/// The beat accounting checks; returns one message per failed check.
/// Frames: delivered <= produced <= delivered + 3 x lost frames. Apps: each
/// app's hub total equals its generated count when nothing was lost, and
/// is otherwise short by no more than the lost frames could carry. The
/// hub's total equals the pump's delivered count.
std::vector<std::string> check_beats(const Plan& plan, const GenReport& gen,
                                     const hb::hub::ShmIngestPumpStats& pst,
                                     const hb::hub::FleetSnapshot& snap) {
  std::vector<std::string> failures;
  const std::uint64_t lost_frames = pst.dropped + pst.torn;
  const std::uint64_t max_lost =
      hb::transport::kIngestFrameRecords * lost_frames;
  const std::uint64_t delivered = pst.consumed;
  if (delivered > gen.beats || gen.beats > delivered + max_lost) {
    failures.push_back("frame conservation: delivered " +
                       std::to_string(delivered) + ", produced " +
                       std::to_string(gen.beats) + ", lost frames " +
                       std::to_string(lost_frames));
  }
  std::unordered_map<std::string, const hb::hub::AppSummary*> by_name;
  snap.for_each_app(
      [&](const hb::hub::AppSummary& a) { by_name.emplace(a.name, &a); },
      /*include_evicted=*/true);
  std::uint64_t hub_total = 0, bad_apps = 0;
  for (std::size_t i = 0; i < plan.apps.size(); ++i) {
    const auto it = by_name.find(plan.apps[i].name);
    const std::uint64_t got = it == by_name.end() ? 0 : it->second->total_beats;
    const std::uint64_t want = gen.produced[i];
    hub_total += got;
    const bool ok = lost_frames == 0 ? got == want
                                     : got <= want && want - got <= max_lost;
    if ((it == by_name.end() || !ok) && bad_apps++ < 5) {
      failures.push_back("app " + plan.apps[i].name + ": hub " +
                         std::to_string(got) + " of " + std::to_string(want) +
                         " beats");
    }
  }
  if (hub_total != delivered) {
    failures.push_back("hub holds " + std::to_string(hub_total) +
                       " beats, pump delivered " + std::to_string(delivered));
  }
  return failures;
}

struct DeathTally {
  std::uint64_t missed = 0;        ///< silenced apps that never died
  std::uint64_t false_deaths = 0;  ///< deaths outside any planned silence
  std::vector<double> detect_ns;   ///< per detected silence: verdict - last beat
};

/// Each silenced app must die while silent (or within kVerdictGraceNs of
/// its revival); nobody else may die at all. Detection latency counts each
/// silence's first death event only: a false death says nothing about how
/// fast a real one is seen.
DeathTally tally_deaths(const Plan& plan, const BenchSink& sink,
                        TimeNs epoch) {
  DeathTally t;
  t.false_deaths = sink.unknown_deaths;
  std::vector<char> detected(plan.apps.size());
  for (const auto& d : sink.deaths) {
    const AppPlan& a = plan.apps[d.app];
    const TimeNs from = epoch + a.silence_at_ns;
    const TimeNs until = from + a.silence_for_ns + kVerdictGraceNs;
    if (a.silenced() && d.at >= from && d.at < until) {
      if (!detected[d.app] && d.last_beat > 0) {
        t.detect_ns.push_back(static_cast<double>(d.at - d.last_beat));
      }
      detected[d.app] = 1;
    } else {
      ++t.false_deaths;
    }
  }
  for (std::size_t i = 0; i < plan.apps.size(); ++i) {
    if (plan.apps[i].silenced() && !detected[i]) ++t.missed;
  }
  return t;
}

int run(const Args& args) {
  // A generator that dies early must surface as an error, not kill the
  // monitor through a write to its closed go pipe.
  std::signal(SIGPIPE, SIG_IGN);
  const Plan plan = make_plan(args.workload, args.seed, args.seconds);
  char fp[512];
  std::snprintf(fp, sizeof(fp),
                "{\"fingerprint\": {\"nproc\": %ld, \"cpu_model\": \"%s\", "
                "\"git_sha\": \"%s\", \"seed\": %" PRIu64
                ", \"workload\": \"%s\", \"traced\": %s, \"seconds\": %d, "
                "\"plan_hash\": \"%016" PRIx64 "\"}}",
                sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
                json_escape(args.git_sha).c_str(), args.seed,
                args.workload.c_str(), args.trace ? "true" : "false",
                args.seconds, plan.hash());
  const std::string fingerprint = fp;
  std::printf("%s\n", fingerprint.c_str());
  std::printf("plan %s seed=%" PRIu64 " hash=%016" PRIx64
              " apps=%zu silenced=%zu\n",
              plan.workload.c_str(), plan.seed, plan.hash(), plan.apps.size(),
              plan.silenced_count());

  // Set-up, several times from scratch; the last round's pipeline runs.
  const fs::path run_root = args.work_dir / "runs" /
                            (args.workload + "-" + std::to_string(getpid()));
  fs::remove_all(run_root);
  struct RemoveOnExit {
    fs::path dir;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{run_root};
  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> pipeline;
  for (int r = 0; r < kSetupRounds; ++r) {
    auto [round, secs] =
        set_up(plan, run_root / ("round" + std::to_string(r)), args.trace);
    setup_s.push_back(secs);
    if (r + 1 < kSetupRounds) {
      send_go(*round, 0);
      reap(*round);
    } else {
      pipeline = std::move(round);
    }
  }
  Pipeline& p = *pipeline;

  const TimeNs epoch = mono_ns() + 20 * kNsPerMs;
  send_go(p, epoch);
  Samples s;
  run_loop(p, plan, epoch, args.trace, s);
  final_drain(p);

  const GenReport gen = read_gen_report(p.dir / "gen.txt", plan.apps.size());
  const auto pst = p.pump->stats();
  auto final_snap = p.hub->snapshot();

  Result res;
  res.failures = check_beats(plan, gen, pst, *final_snap);
  const std::uint64_t lost_frames = pst.dropped + pst.torn;
  const std::uint64_t delivered = pst.consumed;
  const DeathTally deaths = tally_deaths(plan, *p.sink, epoch);
  const std::uint64_t missed = deaths.missed;
  const std::uint64_t false_deaths = deaths.false_deaths;
  const auto& pol = p.engine->stats();
  const std::uint64_t verdict_errors = missed + false_deaths + pol.quarantines;
  const std::uint64_t lost_beats = gen.beats - std::min(gen.beats, delivered);
  // A failed operation is a beat the pipeline lost without counting the
  // frame that carried it, or a silenced app it never declared dead. Beats
  // in frames the pump counted as torn (defect D1) or dropped, and false
  // deaths in host stalls, depend on how the shared host schedules the run,
  // not only on the code; they are reported as beat_loss_frac,
  // pump.torn_frames, pump.dropped_frames and verdict_error_frac instead.
  const std::uint64_t max_lost_beats =
      hb::transport::kIngestFrameRecords * lost_frames;
  const std::uint64_t unaccounted =
      lost_beats - std::min(lost_beats, max_lost_beats);
  res.attempted = gen.beats + plan.silenced_count();
  res.failed = unaccounted + missed;
  if (gen.late_ms_p99 > kGenLateBoundMs) {
    res.failures.push_back("generator p99 lateness " +
                           std::to_string(gen.late_ms_p99) + " ms over the " +
                           std::to_string(kGenLateBoundMs) + " ms bound");
  }

  // ---- end-to-end.
  std::printf("\nend-to-end (%s, seed %" PRIu64 ", %d s measured)\n",
              plan.workload.c_str(), plan.seed, args.seconds);
  std::vector<double> setups = setup_s;
  add(res.e2e, "setup_s", "s", quantile(setups, 0.5));
  std::printf("  %-28s %s n=%zu\n", "", "(median of set-up rounds)",
              setup_s.size());
  res.e2e.push_back({"beat_ns_p50", "ns", gen.beat_ns_p50});
  std::printf("  %-28s %12.4f %-5s n=%" PRIu64 "\n", "beat_ns_p50",
              gen.beat_ns_p50, "ns", gen.beat_samples);
  add_timing(res.e2e, "verdict_ms", "ms", 1e6, s.verdict_ns, {{"p50", 0.5}});
  add_timing(res.e2e, "view_age_ms", "ms", 1e6, s.view_age_ns, {{"p50", 0.5}});
  add_timing(res.e2e, "detect_ms", "ms", 1e6, deaths.detect_ns,
             {{"p50", 0.5}, {"p95", 0.95}});
  add(res.e2e, "monitor_cpu_pct", "%", s.monitor_cpu_pct);

  // ---- per layer.
  std::printf("\nper layer\n");
  const double window_ns = static_cast<double>(plan.measure_ns);
  const double apps = static_cast<double>(plan.apps.size() + 1);
  auto& L = res.layer;
  res.layer.push_back({"core.beat_ns_p99", "ns", gen.beat_ns_p99});
  std::printf("  %-28s %12.4f ns n=%" PRIu64 "\n", "core.beat_ns_p99",
              gen.beat_ns_p99, gen.beat_samples);
  add(L, "core.beats", "count", static_cast<double>(gen.beats));
  // The latency tails. Multi-second slow spells of a shared host move them
  // by up to 40% run to run, so they are reported here without a bound.
  add_timing(L, "verdict_ms", "ms", 1e6, s.verdict_ns,
             {{"p90", 0.90}, {"p95", 0.95}});
  add_timing(L, "view_age_ms", "ms", 1e6, s.view_age_ns,
             {{"p95", 0.95}, {"p99", 0.99}});

  std::uint64_t frames = p.queue->produced();
  for (std::uint32_t i = 0; i < p.queue->lane_count(); ++i) {
    frames += p.queue->lane_produced(i);
  }
  const std::uint64_t good_frames = frames - std::min(frames, lost_frames);
  add(L, "transport.frames", "count", static_cast<double>(frames));
  add(L, "transport.records_per_frame", "records",
      good_frames ? static_cast<double>(delivered) / good_frames : 0.0);
  add(L, "transport.lane_share", "fraction",
      delivered ? static_cast<double>(pst.lane_records) / delivered : 0.0);
  add(L, "transport.rings_per_kbeat", "1/kbeat",
      1000.0 * static_cast<double>(p.queue->doorbell_rings()) /
          static_cast<double>(gen.beats));

  add_timing(L, "pump.poll_us", "us", 1e3, s.poll_ns,
             {{"p50", 0.5}, {"p99", 0.99}});
  add(L, "pump.busy_pct", "%", 100.0 * s.poll_total / window_ns);
  add(L, "pump.wait_pct", "%", 100.0 * s.wait_total / window_ns);
  add(L, "pump.ns_per_record", "ns",
      s.polled_records ? static_cast<double>(s.poll_total) / s.polled_records
                       : 0.0);
  add(L, "pump.parks", "count", static_cast<double>(s.pump1.parks - s.pump0.parks));
  add(L, "pump.wakes", "count",
      static_cast<double>(s.pump1.doorbell_wakes - s.pump0.doorbell_wakes));
  add(L, "pump.spurious_wakes", "count",
      static_cast<double>(s.pump1.spurious_wakes - s.pump0.spurious_wakes));
  add(L, "pump.wait_timeouts", "count",
      static_cast<double>(s.pump1.wait_timeouts - s.pump0.wait_timeouts));
  add(L, "pump.dropped_frames", "count", static_cast<double>(pst.dropped));
  add(L, "pump.torn_frames", "count", static_cast<double>(pst.torn));

  add_timing(L, "hub.snapshot_ms", "ms", 1e6, s.snapshot_ns,
             {{"p50", 0.5}, {"p95", 0.95}});
  {
    std::vector<double> v = s.snapshot_ns;
    add(L, "hub.snapshot_us_per_app", "us", quantile(v, 0.5) / 1e3 / apps);
  }
  add(L, "hub.applied_per_publish", "beats",
      s.sweeps ? static_cast<double>(s.applied) / s.sweeps : 0.0);
  add(L, "hub.pending_max", "beats", static_cast<double>(s.pending_max));
  add(L, "hub.snapshot_rebuilds", "count",
      static_cast<double>(s.snap1.fleet_rebuilds - s.snap0.fleet_rebuilds));
  add(L, "hub.snapshot_hits", "count",
      static_cast<double>(s.snap1.fleet_hits - s.snap0.fleet_hits));

  add_timing(L, "fault.sweep_us", "us", 1e3, s.sweep_ns,
             {{"p50", 0.5}, {"p95", 0.95}});
  {
    std::vector<double> v = s.sweep_ns;
    add(L, "fault.sweep_ns_per_app", "ns", quantile(v, 0.5) / apps);
  }
  add_timing(L, "obs.record_report_us", "us", 1e3, s.record_ns,
             {{"p50", 0.5}, {"p95", 0.95}});
  add(L, "obs.postmortems", "count",
      static_cast<double>(p.postmortem->stats().captured));
  add_timing(L, "policy.observe_us", "us", 1e3, s.observe_ns,
             {{"p50", 0.5}, {"p95", 0.95}});
  add(L, "policy.events", "count", static_cast<double>(pol.events));
  add(L, "policy.correlated_failures", "count",
      static_cast<double>(pol.correlated_failures));
  add(L, "policy.quarantines", "count", static_cast<double>(pol.quarantines));
  add_timing(L, "loop.sweep_late_ms", "ms", 1e6, s.late_ns, {{"p95", 0.95}});
  add(L, "loop.sweeps_skipped", "count", static_cast<double>(s.sweeps_skipped));
  add(L, "gen.late_ms_p99", "ms", gen.late_ms_p99);
  add(L, "gen.late_ticks", "count", static_cast<double>(gen.late_ticks));
  add(L, "beat_loss_frac", "fraction",
      static_cast<double>(lost_beats) / static_cast<double>(gen.beats));
  add(L, "verdict_error_frac", "fraction",
      static_cast<double>(verdict_errors) /
          static_cast<double>(plan.silenced_count() +
                              plan.apps.size() * s.sweeps));
  std::printf("  deaths: %zu silenced, %" PRIu64 " missed, %" PRIu64
              " false, %" PRIu64 " quarantines\n",
              plan.silenced_count(), missed, false_deaths, pol.quarantines);
  std::printf("  beats: %" PRIu64 " produced, %" PRIu64 " delivered, %" PRIu64
              " lost in %" PRIu64 " torn + %" PRIu64
              " dropped frames, %" PRIu64 " unaccounted\n",
              gen.beats, delivered, lost_beats, pst.torn, pst.dropped,
              unaccounted);

  if (args.trace) {
    for (const auto& g : gen.spans) {
      s.spans.push_back({kCoreBeat, g.app, -1, g.start, g.end});
    }
    const double coverage = print_self_times(s.spans, plan.measure_ns);
    add(L, "trace.sweep_coverage_pct", "%", 100.0 * coverage);
    if (coverage < kSweepCoverageBound) {
      res.failures.push_back("loop.sweep child spans cover only " +
                             std::to_string(100.0 * coverage) + "%");
    }
    write_spans(args.work_dir / "trace" / (args.workload + ".spans.tsv"),
                fingerprint, s.spans);
    report_trace_overhead(args, res.e2e);
  } else {
    fs::create_directories(baseline_path(args).parent_path());
    std::ofstream out(baseline_path(args));
    for (const Metric& m : res.e2e) out << m.name << " " << m.value << "\n";
  }

  for (const auto& f : res.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", fingerprint.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              res.failures.empty() ? "true" : "false", res.attempted, res.failed,
              metrics_json(args.trace ? res.layer : res.e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  try {
    return pipebench::run(pipebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
