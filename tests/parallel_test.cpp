// Summary-cache sharing: the thread-safe SharedSummaryCache that the serve
// daemon keeps across requests, per-verifier summary reuse, and the
// property that makes sharing safe — a spec checked against summaries
// another spec (or an earlier run) computed gets exactly the report a
// fresh verifier gives: verdicts, counterexample bytes, replay strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "elements/registry.hpp"
#include "spec/check.hpp"
#include "spec/parser.hpp"
#include "symbex/summary.hpp"
#include "verify/decomposed.hpp"

namespace vsd {
namespace {

// --- SharedSummaryCache ----------------------------------------------------

TEST(SharedSummaryCache, ConcurrentRequestsComputeOnce) {
  const ir::Program prog = elements::make_element("DecIPTTL", "");
  symbex::SharedSummaryCache cache;
  std::atomic<size_t> segs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        symbex::Executor exec;
        segs += cache.get(prog, 46, exec).segments.size();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 31u);
  // Every requester saw the same summary.
  symbex::Executor exec;
  EXPECT_EQ(segs.load(), 32 * cache.get(prog, 46, exec).segments.size());
}

TEST(SharedSummaryCache, DistinctLengthsAreDistinctEntries) {
  const ir::Program prog = elements::make_element("DecIPTTL", "");
  symbex::SharedSummaryCache cache;
  symbex::Executor exec;
  cache.get(prog, 32, exec);
  cache.get(prog, 46, exec);
  cache.get(prog, 32, exec);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(SummaryCache, RepeatedElementConfigsAreSummarizedOnce) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "DecIPTTL -> DecIPTTL -> DecIPTTL -> DecIPTTL");
  verify::DecomposedConfig cfg;
  cfg.packet_len = 46;
  verify::DecomposedVerifier v(cfg);
  const verify::CrashFreedomReport r = v.verify_crash_freedom(pl);
  EXPECT_EQ(r.verdict, verify::Verdict::Proven);
  // Four instances of one config at one length: exactly one Step 1 run.
  EXPECT_EQ(v.cache().misses(), 1u);
  EXPECT_GE(v.cache().hits(), 3u);
}

TEST(SummaryCache, SecondVerificationReusesSummaries) {
  verify::DecomposedConfig cfg;
  cfg.packet_len = 32;
  verify::DecomposedVerifier v(cfg);
  pipeline::Pipeline a =
      elements::parse_pipeline("CheckIPHeader(nochecksum) -> DecIPTTL");
  pipeline::Pipeline b =
      elements::parse_pipeline("DecIPTTL -> CheckIPHeader(nochecksum)");
  const verify::CrashFreedomReport ra = v.verify_crash_freedom(a);
  ASSERT_EQ(ra.verdict, verify::Verdict::Proven);
  EXPECT_GE(ra.stats.elements_summarized, 1u);
  const verify::CrashFreedomReport rb = v.verify_crash_freedom(b);
  ASSERT_EQ(rb.verdict, verify::Verdict::Proven);
  EXPECT_EQ(rb.stats.elements_summarized, 0u);
  EXPECT_GE(rb.stats.summary_cache_hits, 2u);
}

// --- Determinism under shared summary caches -------------------------------

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Every field of an outcome that is not timing or a solver counter must
// match: verdict, detail, counterexample bytes and paths, replay strings.
void expect_same_report(const spec::CheckReport& a, const spec::CheckReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.passed, b.passed) << what;
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const spec::AssertionOutcome& x = a.outcomes[i];
    const spec::AssertionOutcome& y = b.outcomes[i];
    SCOPED_TRACE(what + " assertion " + std::to_string(i) + ": " + x.text);
    EXPECT_EQ(x.text, y.text);
    EXPECT_EQ(x.passed, y.passed);
    EXPECT_EQ(x.verdict, y.verdict);
    EXPECT_EQ(x.detail, y.detail);
    EXPECT_EQ(x.max_instructions, y.max_instructions);
    EXPECT_EQ(x.replays, y.replays);
    EXPECT_EQ(x.replays_confirm, y.replays_confirm);
    ASSERT_EQ(x.counterexamples.size(), y.counterexamples.size());
    for (size_t c = 0; c < x.counterexamples.size(); ++c) {
      const verify::Counterexample& p = x.counterexamples[c];
      const verify::Counterexample& q = y.counterexamples[c];
      EXPECT_EQ(p.packet.hex(SIZE_MAX), q.packet.hex(SIZE_MAX)) << "ce " << c;
      EXPECT_EQ(p.packet.all_meta(), q.packet.all_meta()) << "ce " << c;
      EXPECT_EQ(p.element_path, q.element_path) << "ce " << c;
      EXPECT_EQ(p.trap, q.trap) << "ce " << c;
      EXPECT_EQ(p.requires_sequence, q.requires_sequence) << "ce " << c;
      EXPECT_EQ(p.state_note, q.state_note) << "ce " << c;
    }
  }
}

// Checks `sf` with fresh caches, then twice through `shared` (the second
// run fully warm); all three reports must agree. Returns the Step-1
// summary hits the shared runs took, so callers can see the sharing was
// exercised.
size_t expect_shared_caches_invariant(const spec::SpecFile& sf,
                                      verify::SummaryCaches* shared,
                                      const std::string& what) {
  const spec::CheckReport fresh = spec::check_spec(sf);
  const size_t hits_before = shared->summarize.hits();
  spec::CheckOptions opts;
  opts.shared_caches = shared;
  for (const char* run : {" shared", " shared, warm"}) {
    expect_same_report(fresh, spec::check_spec(sf, opts), what + run);
  }
  return shared->summarize.hits() - hits_before;
}

TEST(CheckDeterminism, CommittedSpecsAreIdenticalWithSharedCaches) {
  namespace fs = std::filesystem;
  const fs::path root = VSD_SOURCE_DIR;
  std::vector<fs::path> specs;
  for (const char* dir : {"examples", "tests/packs"}) {
    for (const fs::directory_entry& e : fs::directory_iterator(root / dir)) {
      if (e.path().extension() == ".vspec") specs.push_back(e.path());
    }
  }
  std::sort(specs.begin(), specs.end());
  ASSERT_EQ(specs.size(), 25u);
  // One bundle for the whole corpus, as one daemon serving every spec.
  verify::SummaryCaches shared;
  size_t hits = 0;
  for (const fs::path& p : specs) {
    hits += expect_shared_caches_invariant(spec::parse_spec(read_file(p)),
                                           &shared, p.string());
  }
  EXPECT_GT(hits, 0u);
}

// The committed specs all pass, so counterexample bytes are pinned on
// failing specs: traps, drops, wrong-port exits, an exceeded instruction
// bound, stateful bad values and an occupancy packet sequence.
TEST(CheckDeterminism, FailingSpecsAreIdenticalWithSharedCaches) {
  const char* kSpecs[] = {
      R"spec(pipeline "UnsafeStrip(14) -> CheckIPHeader -> Discard";
set packet_len = 8;
assert crash_free;
assert never(drop);
)spec",
      R"spec(pipeline "Classifier -> EthDecap -> CheckIPHeader
          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0)
          -> DecIPTTL -> IPOptions -> EthEncap";
set packet_len = 64;
assert crash_free;
assert instructions <= 100;
assert never(drop) when wellformed_checksummed && ip.dst == 8.8.8.8;
assert reachable(output 0) when wellformed_checksummed;
assert never(drop) when wellformed_checksummed && ip.dst == 10.1.2.3;
)spec",
      R"spec(pipeline "CheckIPHeader(nochecksum) -> NetFlow";
set packet_len = 40;
set ip_offset = 0;
assert flow_occupancy(NetFlow) <= 2 when wellformed;
assert bounded_state <= 2 when wellformed && ip.src == 10.0.0.1 && ip.dst == 10.0.0.2;
assert crash_free;
)spec",
      R"spec(pipeline "NetFlow(strict)";
set packet_len = 40;
assert crash_free;
assert bounded_state <= 1;
)spec",
  };
  verify::SummaryCaches shared;
  for (const char* text : kSpecs) {
    const spec::SpecFile sf = spec::parse_spec(text);
    ASSERT_FALSE(spec::check_spec(sf).ok) << text;
    EXPECT_GT(expect_shared_caches_invariant(sf, &shared, sf.pipeline_config),
              0u);
  }
}

}  // namespace
}  // namespace vsd
