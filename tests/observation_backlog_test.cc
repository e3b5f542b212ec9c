// TakeWindowObservations backlog bound: an engine whose observations are
// never drained keeps at most 256 undrained windows, dropping the OLDEST —
// the adaptive controller wants recent behaviour; an idle driver must not
// let the deque grow without bound (engine.cc kMaxUndrainedObservations).

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "query/parser.h"
#include "sharing/shared_engine.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"

namespace greta {
namespace {

using testing::MakeGreta;
using testing::PaperCatalog;
using sharing::SharedEngineOptions;
using sharing::SharedWorkloadEngine;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

// One A event per tick under WITHIN 1 SLIDE 1: every tick closes exactly
// one window, so `ticks` undrained closes probe the backlog cap.
void DriveWindows(GretaEngine* engine, Catalog* catalog, Ts ticks) {
  for (Ts t = 0; t < ticks; ++t) {
    Event e = EventBuilder(catalog, "A", t)
                  .Set("attr", static_cast<double>(t))
                  .Build();
    ASSERT_TRUE(engine->Process(e).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
}

TEST(ObservationBacklog, UndrainedBacklogCapsAt256DroppingOldest) {
  auto catalog = PaperCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 1 seconds SLIDE 1 seconds",
      catalog.get());
  auto engine = MakeGreta(catalog.get(), spec);

  const Ts kTicks = 400;  // closes 400 windows, 144 past the cap
  DriveWindows(engine.get(), catalog.get(), kTicks);
  (void)engine->TakeResults();

  std::vector<WindowObservation> obs = engine->TakeWindowObservations();
  ASSERT_EQ(obs.size(), 256u);
  // The oldest were dropped: the survivors are the NEWEST 256 windows, in
  // ascending close order with per-window routing deltas intact.
  EXPECT_EQ(obs.front().wid, static_cast<WindowId>(kTicks - 256));
  EXPECT_EQ(obs.back().wid, static_cast<WindowId>(kTicks - 1));
  for (size_t i = 0; i < obs.size(); ++i) {
    EXPECT_EQ(obs[i].wid, obs.front().wid + static_cast<WindowId>(i));
    EXPECT_EQ(obs[i].events_routed, 1u) << "window " << obs[i].wid;
  }

  // Draining empties the backlog.
  EXPECT_TRUE(engine->TakeWindowObservations().empty());
}

TEST(ObservationBacklog, DrainedRegularlyLosesNothing) {
  auto catalog = PaperCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 1 seconds SLIDE 1 seconds",
      catalog.get());
  auto engine = MakeGreta(catalog.get(), spec);

  const Ts kTicks = 400;
  size_t total = 0;
  WindowId next_expected = 0;
  for (Ts t = 0; t < kTicks; ++t) {
    Event e = EventBuilder(catalog.get(), "A", t)
                  .Set("attr", static_cast<double>(t))
                  .Build();
    ASSERT_TRUE(engine->Process(e).ok());
    if (t % 100 == 99) {
      for (const WindowObservation& o : engine->TakeWindowObservations()) {
        EXPECT_EQ(o.wid, next_expected++);
        ++total;
      }
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  for (const WindowObservation& o : engine->TakeWindowObservations()) {
    EXPECT_EQ(o.wid, next_expected++);
    ++total;
  }
  // A driver that drains faster than the cap fills sees every window.
  EXPECT_EQ(total, static_cast<size_t>(kTicks));
}

#if GRETA_TELEMETRY
uint64_t EvictedObservations() {
  for (const auto& c :
       telemetry::MetricRegistry::Default().ScrapeCounters()) {
    if (c.name == "greta_window_observations_evicted_total") return c.value;
  }
  return 0;
}

// Every observation a backlog cap drops is counted, at both caps: the
// engine's own and the adaptive shared engine's workload backlog.
TEST(ObservationBacklog, EvictionsAreCounted) {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  auto catalog = PaperCatalog();
  const std::string text =
      "RETURN COUNT(*) PATTERN A S+ WITHIN 1 seconds SLIDE 1 seconds";
  const Ts kTicks = 400;

  {
    auto engine = MakeGreta(catalog.get(), Parse(text, catalog.get()));
    const uint64_t before = EvictedObservations();
    DriveWindows(engine.get(), catalog.get(), kTicks);
    EXPECT_EQ(EvictedObservations() - before,
              static_cast<uint64_t>(kTicks - 256));
  }

  {
    std::vector<QuerySpec> workload;
    workload.push_back(Parse(text, catalog.get()));
    workload.push_back(Parse(text, catalog.get()));
    SharedEngineOptions options;
    options.adaptive.enabled = true;
    auto shared = SharedWorkloadEngine::Create(catalog.get(), workload,
                                               options);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    const uint64_t before = EvictedObservations();
    for (Ts t = 0; t < kTicks; ++t) {
      Event e = EventBuilder(catalog.get(), "A", t)
                    .Set("attr", static_cast<double>(t))
                    .Build();
      ASSERT_TRUE(shared.value()->Process(e).ok());
    }
    ASSERT_TRUE(shared.value()->Flush().ok());
    EXPECT_GT(EvictedObservations() - before, 0u);
    EXPECT_EQ(shared.value()->TakeWindowObservations().size(), 256u);
  }
  reg.set_enabled(was_enabled);
}
#endif

}  // namespace
}  // namespace greta
