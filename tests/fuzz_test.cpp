// Differential fuzz harness tests: seed determinism, injected-bug
// detection, shrinking, and the property-pack corpus.
//
// The harness is the soundness watchdog — so these tests must prove the
// watchdog itself barks. The BrokenFilter fixture registers a test-only
// element with deliberate model/artifact drift (the verifier analyzes a
// correct model while the interpreter runs a buggy program): a false-Proven
// crash (off-by-one packet read behind a rare byte trigger) and a
// false-Proven occupancy bound (the artifact inserts keyed entries the
// model never declares). The harness must catch both within a bounded seed
// budget, shrink the repro to its load-bearing bytes, and stay byte-for-
// byte reproducible across runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "elements/registry.hpp"
#include "ir/builder.hpp"
#include "spec/parser.hpp"
#include "testing/fuzz.hpp"
#include "testing/generate.hpp"
#include "testing/packs.hpp"
#include "testing/shrink.hpp"

namespace vsd {
namespace {

using fuzz::FuzzConfig;
using fuzz::FuzzFailure;
using fuzz::FuzzReport;

// --- BrokenFilter fixture -----------------------------------------------------

// The program the interpreter executes: inserts one keyed entry per packet
// (key = low 2 bits of the source-address low byte at offset 15) and, when
// the first byte's low nibble is 0xa, reads one byte PAST the packet end —
// the classic off-by-one.
ir::Program make_broken_filter_executed() {
  ir::ProgramBuilder pb("BrokenFilter");
  const ir::TableId hits = pb.add_kv_table("hits", 16, 16);
  ir::FunctionBuilder& f = pb.main();
  const ir::Reg b15 = f.pkt_load8(15);
  const ir::Reg key = f.zext(f.band(b15, f.imm8(3)), 16);
  f.kv_write(hits, key, f.imm16(1));
  const ir::Reg b0 = f.pkt_load8(0);
  const ir::Reg trigger = f.eq(f.band(b0, f.imm8(0x0f)), f.imm8(0x0a));
  auto [bad, ok] = f.br(trigger, "bad", "ok");
  f.set_block(bad);
  f.pkt_load(f.pkt_len(), 0, 1);  // one past the end: OobPacketRead
  f.emit(0);
  f.set_block(ok);
  f.emit(0);
  return pb.finish();
}

// The model the verifier analyzes: what the author THOUGHT the code does —
// the guard reads the last in-bounds byte, and only a single fixed key is
// ever inserted. It keeps the executed program's byte-15 load (so runt
// packets trap identically on both sides and the runt group stays clean);
// the ONLY drift is the two injected bugs.
ir::Program make_broken_filter_model() {
  ir::ProgramBuilder pb("BrokenFilter");
  const ir::TableId hits = pb.add_kv_table("hits", 16, 16);
  ir::FunctionBuilder& f = pb.main();
  f.pkt_load8(15);  // same length demand as the executed key read
  f.kv_write(hits, f.imm16(0), f.imm16(1));
  const ir::Reg b0 = f.pkt_load8(0);
  const ir::Reg trigger = f.eq(f.band(b0, f.imm8(0x0f)), f.imm8(0x0a));
  auto [bad, ok] = f.br(trigger, "bad", "ok");
  f.set_block(bad);
  f.pkt_load(f.sub(f.pkt_len(), f.imm32(1)), 0, 1);  // last byte: in bounds
  f.emit(0);
  f.set_block(ok);
  f.emit(0);
  return pb.finish();
}

class BrokenFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    elements::register_test_element(
        "BrokenFilter",
        [](const std::string&) { return make_broken_filter_executed(); },
        "BrokenFilter — test-only model/artifact drift fixture",
        [](const std::string&) { return make_broken_filter_model(); });
  }
  void TearDown() override { elements::clear_test_elements(); }

  // Runs the harness over BrokenFilter-only chains for seeds [1, budget],
  // returning the first report containing a failure of `kind`.
  std::optional<FuzzReport> hunt(const std::string& kind, size_t budget,
                                 size_t packets, size_t sequences) {
    for (uint64_t seed = 1; seed <= budget; ++seed) {
      FuzzConfig cfg;
      cfg.seed = seed;
      cfg.pipelines = 4;
      cfg.packets = packets;
      cfg.sequences = sequences;
      cfg.cross_check = false;  // the drift trips it too; tested separately
      cfg.gen.element_pool = {"BrokenFilter"};
      cfg.gen.max_chain = 2;
      FuzzReport r = fuzz::run_fuzz(cfg);
      for (const FuzzFailure& f : r.failures) {
        if (f.kind == kind) return r;
      }
    }
    return std::nullopt;
  }
};

TEST_F(BrokenFilterTest, FalseProvenCrashIsCaughtAndShrunk) {
  const auto report = hunt("trap-on-proven", 8, 120, 0);
  ASSERT_TRUE(report.has_value())
      << "harness never caught the injected off-by-one within the seed "
         "budget";
  const FuzzFailure* fail = nullptr;
  for (const FuzzFailure& f : report->failures) {
    if (f.kind == "trap-on-proven") fail = &f;
  }
  ASSERT_NE(fail, nullptr);
  // The off-by-one needs no prior state: the repro must shrink to a single
  // packet whose only load-bearing byte is the trigger (its position
  // depends on how much framing the chain strips before BrokenFilter).
  ASSERT_EQ(fail->repro.size(), 1u);
  std::vector<uint8_t> nonzero;
  for (uint8_t b : fail->repro[0].bytes()) {
    if (b != 0) nonzero.push_back(b);
  }
  ASSERT_EQ(nonzero.size(), 1u);
  EXPECT_EQ(nonzero[0] & 0x0f, 0x0a);
  // The .vspec artifact names the failed property and the pipeline.
  EXPECT_NE(fail->vspec.find("assert crash_free;"), std::string::npos);
  EXPECT_NE(fail->vspec.find("BrokenFilter"), std::string::npos);
}

TEST_F(BrokenFilterTest, FalseOccupancyBoundIsCaughtAndShrunk) {
  const auto report = hunt("occupancy-exceeds-proven", 8, 20, 6);
  ASSERT_TRUE(report.has_value())
      << "harness never caught the injected occupancy drift within the "
         "seed budget";
  const FuzzFailure* fail = nullptr;
  for (const FuzzFailure& f : report->failures) {
    if (f.kind == "occupancy-exceeds-proven") fail = &f;
  }
  ASSERT_NE(fail, nullptr);
  // The model admits exactly one entry; demonstrating two distinct keys
  // needs exactly two packets after shrinking.
  EXPECT_EQ(fail->repro.size(), 2u);
  EXPECT_NE(fail->vspec.find("assert bounded_state <= 2;"),
            std::string::npos);
}

TEST_F(BrokenFilterTest, FailingReportIsSeedReproducible) {
  FuzzConfig cfg;
  cfg.seed = 3;
  cfg.pipelines = 3;
  cfg.packets = 80;
  cfg.sequences = 4;
  cfg.cross_check = false;
  cfg.gen.element_pool = {"BrokenFilter"};
  const std::string a = fuzz::run_fuzz(cfg).summary();
  const std::string b = fuzz::run_fuzz(cfg).summary();
  EXPECT_EQ(a, b) << "same seed must reproduce failures and shrunk repros "
                     "byte-identically";
}

TEST_F(BrokenFilterTest, ArtifactFilesAreWrittenOnFailure) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "vsd_fuzz_test_artifacts";
  fs::remove_all(dir);
  FuzzConfig cfg;
  cfg.seed = 1;
  cfg.pipelines = 4;
  cfg.packets = 120;
  cfg.sequences = 6;
  cfg.cross_check = false;
  cfg.gen.element_pool = {"BrokenFilter"};
  cfg.artifact_dir = dir.string();
  const FuzzReport r = fuzz::run_fuzz(cfg);
  if (r.failures.empty()) GTEST_SKIP() << "seed 1 found nothing to dump";
  const FuzzFailure& f = r.failures.front();
  ASSERT_FALSE(f.artifact_path.empty());
  ASSERT_TRUE(fs::exists(f.artifact_path));
  // The artifact is a loadable spec: parse_spec must accept it verbatim.
  std::ifstream in(f.artifact_path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NO_THROW(spec::parse_spec(ss.str()));
  // The packet hexdump rides next to it.
  std::string pkt_path = f.artifact_path;
  pkt_path.replace(pkt_path.rfind(".vspec"), 6, ".pkt");
  EXPECT_TRUE(fs::exists(pkt_path));
  fs::remove_all(dir);
}

// --- Generator determinism ----------------------------------------------------

TEST(FuzzGeneratorTest, SameSeedSamePipelinesAndPackets) {
  net::Rng a(42), b(42);
  fuzz::GenOptions opt;
  for (int i = 0; i < 20; ++i) {
    const fuzz::GeneratedPipeline pa = fuzz::generate_pipeline(a, opt);
    const fuzz::GeneratedPipeline pb = fuzz::generate_pipeline(b, opt);
    EXPECT_EQ(pa.config, pb.config);
    EXPECT_EQ(pa.packet_len, pb.packet_len);
    EXPECT_EQ(pa.runt_len, pb.runt_len);
    const net::Packet ka = fuzz::generate_packet(a, pa.packet_len, pa.ip_offset);
    const net::Packet kb = fuzz::generate_packet(b, pb.packet_len, pb.ip_offset);
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t j = 0; j < ka.size(); ++j) EXPECT_EQ(ka[j], kb[j]);
    for (size_t s = 0; s < net::kMetaSlots; ++s) {
      EXPECT_EQ(ka.meta(s), kb.meta(s));
    }
  }
}

TEST(FuzzHarnessTest, CleanRegistryFuzzPassesAndIsDeterministic) {
  // The actual watchdog claim, in miniature: on the real element library
  // the verifier and the interpreter must agree — zero failures — and the
  // whole report must be byte-identical across runs.
  FuzzConfig cfg;
  cfg.seed = 7;
  cfg.pipelines = 4;
  cfg.packets = 60;
  cfg.sequences = 3;
  cfg.cross_check = true;
  const FuzzReport r1 = fuzz::run_fuzz(cfg);
  for (const FuzzFailure& f : r1.failures) {
    ADD_FAILURE() << "soundness watchdog FAIL: " << f.kind << " on \""
                  << f.config << "\": " << f.detail;
  }
  EXPECT_TRUE(r1.ok());
  const FuzzReport r2 = fuzz::run_fuzz(cfg);
  EXPECT_EQ(r1.summary(), r2.summary());
}

// --- Shrinking ----------------------------------------------------------------

TEST(FuzzShrinkTest, SequenceAndBytesMinimizeToLoadBearingParts) {
  // Failure = some packet has byte[3]==7 AND some packet has byte[5]==9.
  const auto fails = [](const std::vector<net::Packet>& seq) {
    bool a = false, b = false;
    for (const net::Packet& p : seq) {
      a = a || (p.size() > 3 && p[3] == 7);
      b = b || (p.size() > 5 && p[5] == 9);
    }
    return a && b;
  };
  std::vector<net::Packet> seq;
  net::Rng rng(9);
  for (int i = 0; i < 6; ++i) {
    net::Packet p = net::Packet::of_size(16);
    for (size_t j = 0; j < p.size(); ++j) p[j] = rng.next_byte();
    seq.push_back(p);
  }
  seq[1][3] = 7;
  seq[4][5] = 9;
  ASSERT_TRUE(fails(seq));
  const std::vector<net::Packet> small = fuzz::shrink_sequence(seq, fails);
  ASSERT_TRUE(fails(small));
  ASSERT_LE(small.size(), 2u);
  size_t nonzero = 0;
  for (const net::Packet& p : small) {
    for (uint8_t byte : p.bytes()) nonzero += byte != 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero, 2u) << "every surviving byte must be load-bearing";
}

TEST(FuzzShrinkTest, ShrinkIsDeterministic) {
  const auto fails = [](const std::vector<net::Packet>& seq) {
    for (const net::Packet& p : seq) {
      if (p.size() > 2 && (p[2] & 0xc0) == 0x40) return true;
    }
    return false;
  };
  std::vector<net::Packet> seq;
  for (int i = 0; i < 3; ++i) {
    net::Packet p = net::Packet::of_size(8, 0x55);
    seq.push_back(p);
  }
  const auto a = fuzz::shrink_sequence(seq, fails);
  const auto b = fuzz::shrink_sequence(seq, fails);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a[i].size(); ++j) EXPECT_EQ(a[i][j], b[i][j]);
  }
}

// --- Property packs -----------------------------------------------------------

TEST(PackPlanTest, PlansCoverEveryBuiltinElementExactly) {
  elements::clear_test_elements();  // plans cover builtins only
  std::vector<std::string> planned;
  for (const fuzz::PackPlan& p : fuzz::pack_plans()) {
    planned.push_back(p.element);
    EXPECT_FALSE(p.config.empty());
    EXPECT_FALSE(p.asserts.empty()) << p.element;
    // Every pack keeps at least a crash-freedom flavored assertion.
    bool has_crash = false;
    for (const std::string& a : p.asserts) {
      has_crash = has_crash || a.find("crash_free") != std::string::npos;
    }
    EXPECT_TRUE(has_crash) << p.element << " pack has no crash_free assert";
  }
  EXPECT_EQ(planned, elements::registered_elements());
}

TEST(PackPlanTest, RenderedPacksParse) {
  for (const fuzz::PackPlan& p : fuzz::pack_plans()) {
    EXPECT_NO_THROW(spec::parse_spec(fuzz::render_pack(p))) << p.element;
  }
}

// --- Test-element registration ------------------------------------------------

TEST(TestRegistryTest, TestElementsAreListedAndCleared) {
  elements::register_test_element(
      "FuzzTestNull",
      [](const std::string&) { return make_broken_filter_model(); },
      "FuzzTestNull — registration smoke");
  const auto names = elements::registered_elements();
  EXPECT_NE(std::find(names.begin(), names.end(), "FuzzTestNull"),
            names.end());
  EXPECT_FALSE(elements::element_usage("FuzzTestNull").empty());
  elements::clear_test_elements();
  const auto after = elements::registered_elements();
  EXPECT_EQ(std::find(after.begin(), after.end(), "FuzzTestNull"),
            after.end());
}

TEST(TestRegistryTest, ShadowingABuiltinIsRejected) {
  EXPECT_THROW(elements::register_test_element(
                   "Null",
                   [](const std::string&) { return make_broken_filter_model(); },
                   "shadow"),
               std::invalid_argument);
}

}  // namespace
}  // namespace vsd
