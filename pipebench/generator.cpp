#include "generator.hpp"

#include <time.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/heartbeat.hpp"
#include "stats.hpp"
#include "transport/shm_ingest.hpp"

namespace pipebench {
namespace {

using hb::transport::ShmHubSink;
using hb::transport::ShmHubSinkOptions;
using hb::transport::ShmIngestQueue;

constexpr std::size_t kHistoryCapacity = 64;  // producer-side ring; unused here
constexpr std::uint64_t kSpanEvery = 64;      // traced: one burst span in 64

struct AppRun {
  const AppPlan* plan = nullptr;
  std::unique_ptr<hb::core::Heartbeat> hb;
  TimeNs next_due = 0;  ///< next scheduled beat, relative to the epoch
  std::uint64_t emitted = 0;
};

struct ThreadLog {
  std::vector<float> beat_ns;         ///< per timed burst: ns per beat
  std::vector<std::int64_t> late_ns;   ///< per tick in the window
  std::vector<GenReport::Span> spans;
  std::uint64_t late_ticks = 0;
};

void sleep_until(TimeNs t) {
  timespec ts{static_cast<time_t>(t / hb::util::kNsPerSec),
              static_cast<long>(t % hb::util::kNsPerSec)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// One generator thread: every tick, emit each owned app's due beats as one
// timed burst. Open loop: a late tick still emits everything that fell
// due, and its lateness is logged.
void beat_loop(const Plan& plan, TimeNs epoch, std::vector<AppRun*> mine,
               bool trace, ThreadLog& log) {
  std::uint64_t bursts = 0;
  for (TimeNs due = 0; due < plan.end_ns(); due += plan.tick_ns) {
    sleep_until(epoch + due);
    const bool in_window = due >= plan.warmup_ns;
    if (in_window) {
      const TimeNs late = mono_ns() - (epoch + due);
      log.late_ns.push_back(late);
      if (late > plan.tick_ns) ++log.late_ticks;
    }
    for (AppRun* app : mine) {
      std::uint32_t n = 0;
      for (; app->next_due <= due; app->next_due += app->plan->period_ns) {
        if (!app->plan->silent_at(app->next_due)) ++n;
      }
      if (n == 0) continue;
      const TimeNs t0 = mono_ns();
      for (std::uint32_t i = 0; i < n; ++i) {
        app->hb->beat(app->plan->tag(app->emitted++));
      }
      const TimeNs t1 = mono_ns();
      // Probes ride along for death detection; the overhead figure is the
      // workload's own apps.
      if (!in_window || app->plan->probe) continue;
      log.beat_ns.push_back(static_cast<float>(t1 - t0) / static_cast<float>(n));
      if (trace && bursts++ % kSpanEvery == 0) {
        log.spans.push_back(
            {t0, t1, static_cast<std::uint32_t>(app->plan - plan.apps.data())});
      }
    }
  }
}

void write_report(const std::filesystem::path& path, const GenReport& r) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    out.precision(17);
    out << "beats " << r.beats << "\n";
    out << "beat_ns " << r.beat_ns_p50 << " " << r.beat_ns_p99 << " "
        << r.beat_samples << "\n";
    out << "late " << r.late_ms_p99 << " " << r.ticks << " " << r.late_ticks
        << "\n";
    for (std::uint64_t p : r.produced) out << "app " << p << "\n";
    for (const auto& s : r.spans) {
      out << "span " << s.start << " " << s.end << " " << s.app << "\n";
    }
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

TimeNs mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<TimeNs>(ts.tv_sec) * hb::util::kNsPerSec + ts.tv_nsec;
}

int run_generator(const Plan& plan, const std::filesystem::path& queue_path,
                  int ready_fd, int go_fd,
                  const std::filesystem::path& report_path,
                  bool trace) {
  auto queue = ShmIngestQueue::attach(queue_path);
  std::vector<AppRun> apps(plan.apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppPlan& ap = plan.apps[i];
    ShmHubSinkOptions sink_opts;
    sink_opts.flush_every = ap.flush_every;
    // Keep a handle on the sink the factory builds, to push the setup
    // beat through at once even when the app batches.
    auto sink = std::make_shared<std::shared_ptr<ShmHubSink>>();
    hb::core::HeartbeatOptions opts;
    opts.name = ap.name;
    opts.history_capacity = kHistoryCapacity;
    opts.store_factory = [sink, wrap = ShmHubSink::wrap_factory(queue, {}, sink_opts)](
                             const hb::core::StoreSpec& spec) {
      auto store = wrap(spec);
      if (spec.shared) *sink = std::dynamic_pointer_cast<ShmHubSink>(store);
      return store;
    };
    apps[i].plan = &ap;
    apps[i].hb = std::make_unique<hb::core::Heartbeat>(opts);
    apps[i].hb->beat(ap.tag(apps[i].emitted++));
    if (!*sink) throw std::logic_error("global channel is not a ShmHubSink");
    (*sink)->flush();
    apps[i].next_due = ap.phase_ns;
  }

  const char ready = 1;
  if (write(ready_fd, &ready, 1) != 1) return 4;
  close(ready_fd);
  TimeNs epoch = 0;
  if (read(go_fd, &epoch, sizeof(epoch)) != sizeof(epoch) || epoch == 0) {
    return 0;  // a set-up round: the monitor only timed registration
  }

  std::vector<std::vector<AppRun*>> owned(kGeneratorThreads);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    owned[i % kGeneratorThreads].push_back(&apps[i]);
  }
  std::vector<ThreadLog> logs(kGeneratorThreads);
  for (int t = 0; t < kGeneratorThreads; ++t) {
    std::size_t bursts = 0;
    for (const AppRun* a : owned[t]) {
      bursts += static_cast<std::size_t>(
          plan.measure_ns / std::max(a->plan->period_ns, plan.tick_ns) + 1);
    }
    logs[t].beat_ns.reserve(bursts);
    logs[t].late_ns.reserve(
        static_cast<std::size_t>(plan.measure_ns / plan.tick_ns + 1));
  }
  {
    std::vector<std::jthread> workers;
    for (int t = 1; t < kGeneratorThreads; ++t) {
      workers.emplace_back(beat_loop, std::cref(plan), epoch, owned[t], trace,
                           std::ref(logs[t]));
    }
    beat_loop(plan, epoch, owned[0], trace, logs[0]);
  }

  GenReport report;
  for (const AppRun& a : apps) {
    report.produced.push_back(a.emitted);
    report.beats += a.emitted;
  }
  apps.clear();  // destroying each sink flushes its tail and frees its lane

  std::vector<float> beat_ns;
  std::vector<std::int64_t> late_ns;
  for (ThreadLog& log : logs) {
    beat_ns.insert(beat_ns.end(), log.beat_ns.begin(), log.beat_ns.end());
    late_ns.insert(late_ns.end(), log.late_ns.begin(), log.late_ns.end());
    report.spans.insert(report.spans.end(), log.spans.begin(), log.spans.end());
    report.late_ticks += log.late_ticks;
  }
  report.beat_samples = beat_ns.size();
  report.beat_ns_p50 = quantile(beat_ns, 0.50);
  report.beat_ns_p99 = quantile(beat_ns, 0.99);
  report.ticks = late_ns.size();
  report.late_ms_p99 = quantile(late_ns, 0.99) / 1e6;
  write_report(report_path, report);
  return 0;
}

GenReport read_gen_report(const std::filesystem::path& path,
                          std::size_t apps) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("generator report missing: " + path.string());
  GenReport r;
  std::string key;
  while (in >> key) {
    if (key == "beats") {
      in >> r.beats;
    } else if (key == "beat_ns") {
      in >> r.beat_ns_p50 >> r.beat_ns_p99 >> r.beat_samples;
    } else if (key == "late") {
      in >> r.late_ms_p99 >> r.ticks >> r.late_ticks;
    } else if (key == "app") {
      r.produced.emplace_back();
      in >> r.produced.back();
    } else if (key == "span") {
      GenReport::Span s;
      in >> s.start >> s.end >> s.app;
      r.spans.push_back(s);
    } else {
      throw std::runtime_error("generator report: unknown key " + key);
    }
    if (!in) throw std::runtime_error("generator report: malformed " + key);
  }
  if (r.produced.size() != apps) {
    throw std::runtime_error("generator report: app count mismatch");
  }
  return r;
}

}  // namespace pipebench
