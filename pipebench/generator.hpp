// The load generator: the producer side of the pipeline, run in a forked
// child process so every beat crosses a real process boundary.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "plan.hpp"

namespace pipebench {

/// At most this many threads beat, the process's main thread included.
inline constexpr int kGeneratorThreads = 3;

/// CLOCK_MONOTONIC in ns: the epoch Heartbeat stamps beats on.
TimeNs mono_ns();

/// What the generator reports back when it exits (the `gen` file).
struct GenReport {
  std::uint64_t beats = 0;              ///< beat() calls, setup beats included
  std::vector<std::uint64_t> produced;  ///< per app, plan order
  double beat_ns_p50 = 0, beat_ns_p99 = 0;
  std::uint64_t beat_samples = 0;       ///< timed bursts in the window
  double late_ms_p99 = 0;
  std::uint64_t ticks = 0, late_ticks = 0;
  struct Span {
    TimeNs start = 0, end = 0;
    std::uint32_t app = 0;
  };
  std::vector<Span> spans;  ///< sampled core.beat bursts (traced runs)
};

/// Child entry point. Attaches to the ingest queue at `queue_path`,
/// constructs every planned app as a core::Heartbeat whose global channel
/// is a transport::ShmHubSink, beats each once, writes a byte to
/// `ready_fd`, then blocks on `go_fd` for the run epoch (8 bytes of
/// CLOCK_MONOTONIC ns; 0 or EOF means quit).
/// Beats the plan open-loop from that epoch and writes its GenReport to
/// `report_path`. Returns the process exit code.
int run_generator(const Plan& plan, const std::filesystem::path& queue_path,
                  int ready_fd, int go_fd,
                  const std::filesystem::path& report_path,
                  bool trace);

/// Parse a report written by run_generator; throws std::runtime_error on a
/// missing or malformed file.
GenReport read_gen_report(const std::filesystem::path& path,
                          std::size_t apps);

}  // namespace pipebench
