// The plan is a pure function of (workload, seed, seconds): the same seed
// must give the same plan and hash, a different seed a different one.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "plan.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using pipebench::make_plan;
  for (const std::string& w : pipebench::workload_names()) {
    const auto a = make_plan(w, 7, 10);
    const auto b = make_plan(w, 7, 10);
    const auto c = make_plan(w, 8, 10);
    check(a.canonical() == b.canonical(), "same seed, same plan");
    check(a.hash() == b.hash(), "same seed, same hash");
    check(a.canonical() != c.canonical(), "different seed, different plan");
    check(a.hash() != c.hash(), "different seed, different hash");
    check(a.hash() != make_plan(w, 7, 11).hash(),
          "different window, different hash");
    check(a.silenced_count() >= 200, ">= 200 silenced apps per run");
    for (const auto& app : a.apps) {
      if (!app.silenced()) continue;
      check(app.silence_at_ns >= a.warmup_ns, "silence starts in the window");
      check(app.silence_at_ns + app.silence_for_ns < a.end_ns(),
            "silence ends in the window");
    }
    std::printf("%-6s seed 7 hash %016llx, seed 8 hash %016llx\n", w.c_str(),
                static_cast<unsigned long long>(a.hash()),
                static_cast<unsigned long long>(c.hash()));
  }
  const auto fleet = make_plan("fleet", 1, 10);
  check(fleet.apps.size() == 4000, "fleet has 4000 apps");
  const auto hot = make_plan("hot", 1, 10);
  for (int i = 0; i < 8; ++i) {
    check(hot.apps[i].flush_every == 9, "hot encoders flush every 9 beats");
  }
  bool threw = false;
  try {
    make_plan("nosuch", 1, 10);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "unknown workload throws");
  if (failures == 0) std::printf("plan_test: ok\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
