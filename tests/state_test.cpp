// Stateful-property verification tests: the per-element state summaries
// (insert/evict classification), the bounded-state / flow-occupancy driver
// (exact proofs, violations certified by concrete sequence replay,
// determinism across runs), and the per-path unroll refinement that upgrades
// summarized-loop Unknowns into certified verdicts.
#include <gtest/gtest.h>

#include "bv/expr.hpp"
#include "elements/registry.hpp"
#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "net/packet.hpp"
#include "pipeline/pipeline.hpp"
#include "spec/check.hpp"
#include "spec/parser.hpp"
#include "symbex/executor.hpp"
#include "symbex/state_summary.hpp"
#include "symbex/summary.hpp"
#include "verify/decomposed.hpp"

namespace vsd {
namespace {

using ir::FunctionBuilder;
using ir::ProgramBuilder;
using ir::Reg;
using verify::Verdict;

verify::InputPredicate any_packet() {
  return [](const symbex::SymPacket&) { return bv::mk_bool(true); };
}

pipeline::Pipeline single_element(const ir::Program& prog) {
  pipeline::Pipeline pl;
  pl.add(prog.name, prog);
  return pl;
}

// --- summarize_state: insert/evict classification ------------------------------

// Writes kv["entries"][pkt[1]] = 1 when pkt[0] == 0 (an insert site) and
// = 0 otherwise (an evict site: the zero write restores absent-key reads).
ir::Program make_state_writer() {
  ProgramBuilder pb("StateWriter", 1);
  const ir::TableId t = pb.add_kv_table("entries", 8, 16);
  FunctionBuilder& f = pb.main();
  const Reg tag = f.pkt_load8(0);
  const Reg key = f.pkt_load8(1);
  const Reg is_ins = f.eq(tag, f.imm8(0));
  auto [ins_b, evict_b] = f.br(is_ins, "ins", "evict");
  f.set_block(ins_b);
  f.kv_write(t, key, f.imm16(1));
  f.emit(0);
  f.set_block(evict_b);
  f.kv_write(t, key, f.imm16(0));
  f.emit(0);
  return pb.finish();
}

TEST(StateSummary, ClassifiesInsertAndEvictSites) {
  const ir::Program prog = make_state_writer();
  symbex::Executor exec;
  const symbex::ElementSummary sum = symbex::summarize_element(prog, 8, exec);
  const symbex::StateSummary ss = symbex::summarize_state(prog, sum);
  ASSERT_EQ(ss.tables.size(), 1u);
  const symbex::TableStateSummary& t = ss.tables[0];
  EXPECT_EQ(t.table_name, "entries");
  EXPECT_EQ(t.key_width, 8u);
  EXPECT_EQ(t.key_space, 256u);
  ASSERT_EQ(t.inserts.size(), 1u);
  ASSERT_EQ(t.evicts.size(), 1u);
  EXPECT_FALSE(t.inserts[0].is_evict);
  EXPECT_TRUE(t.evicts[0].is_evict);
  EXPECT_EQ(ss.insert_site_count(), 1u);
}

TEST(StateSummary, StatelessElementHasNoTables) {
  const ir::Program prog = elements::make_element("Null", "");
  symbex::Executor exec;
  const symbex::ElementSummary sum =
      symbex::summarize_element(prog, 8, exec);
  const symbex::StateSummary ss = symbex::summarize_state(prog, sum);
  EXPECT_FALSE(ss.has_state());
  EXPECT_EQ(ss.insert_site_count(), 0u);
}

// --- verify_bounded_state -------------------------------------------------------

TEST(BoundedState, StatelessPipelineIsTriviallyBounded) {
  const pipeline::Pipeline pl = elements::parse_pipeline("Null -> Discard");
  verify::DecomposedVerifier v;
  verify::StateBoundSpec spec;
  spec.bound = 0;
  const verify::StateBoundReport r =
      v.verify_bounded_state(pl, any_packet(), spec);
  EXPECT_EQ(r.verdict, Verdict::Proven);
  EXPECT_EQ(r.occupancy, 0u);
}

TEST(BoundedState, CounterHoldsExactlyTwoSlots) {
  // Counter writes keys 0 (packets) and 1 (bytes): occupancy is exactly 2
  // no matter how many packets arrive.
  const pipeline::Pipeline pl = elements::parse_pipeline("Counter");
  verify::DecomposedVerifier v;
  verify::StateBoundSpec spec;
  spec.bound = 2;
  const verify::StateBoundReport proven =
      v.verify_bounded_state(pl, any_packet(), spec);
  EXPECT_EQ(proven.verdict, Verdict::Proven);
  EXPECT_EQ(proven.occupancy, 2u);
  ASSERT_EQ(proven.tables.size(), 1u);
  EXPECT_TRUE(proven.tables[0].exhausted);
  EXPECT_EQ(proven.tables[0].keys_found, 2u);

  spec.bound = 1;
  const verify::StateBoundReport violated =
      v.verify_bounded_state(pl, any_packet(), spec);
  EXPECT_EQ(violated.verdict, Verdict::Violated);
  EXPECT_EQ(violated.occupancy, 2u);
  EXPECT_FALSE(violated.packet_sequence.empty());
}

TEST(BoundedState, NetFlowViolationComesWithAReplayableSequence) {
  const pipeline::Pipeline pl = elements::parse_pipeline("NetFlow");
  verify::DecomposedConfig cfg;
  cfg.packet_len = 40;
  verify::DecomposedVerifier v(cfg);
  verify::StateBoundSpec spec;
  spec.bound = 2;
  const verify::StateBoundReport r =
      v.verify_bounded_state(pl, any_packet(), spec);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  ASSERT_EQ(r.packet_sequence.size(), 3u);
  // Independent certification: inject the sequence into a fresh pipeline
  // and count the flow table's live entries.
  pipeline::Pipeline fresh = elements::parse_pipeline("NetFlow");
  for (const net::Packet& input : r.packet_sequence) {
    net::Packet p = input;
    fresh.process(p);
  }
  EXPECT_GT(fresh.element(0).kv().live_entry_count(0), 2u);
}

TEST(BoundedState, ElementFilterScopesTheCount) {
  // Pipeline-wide occupancy is unbounded (NetFlow keys on src/dst), but
  // the Counter element alone is provably bounded.
  const pipeline::Pipeline pl =
      elements::parse_pipeline("Counter -> NetFlow");
  verify::DecomposedConfig cfg;
  cfg.packet_len = 40;
  verify::DecomposedVerifier v(cfg);
  verify::StateBoundSpec counter_only;
  counter_only.element = "Counter";
  counter_only.bound = 2;
  EXPECT_EQ(
      v.verify_bounded_state(pl, any_packet(), counter_only).verdict,
      Verdict::Proven);
  verify::StateBoundSpec whole;
  whole.bound = 4;
  EXPECT_EQ(v.verify_bounded_state(pl, any_packet(), whole).verdict,
            Verdict::Violated);
}

// Writes kv["vals"][pkt[1]] = pkt[2]: whether an insertion is live depends
// on the written value, not just the key.
ir::Program make_value_writer() {
  ProgramBuilder pb("ValueWriter", 1);
  const ir::TableId t = pb.add_kv_table("vals", 8, 8);
  FunctionBuilder& f = pb.main();
  f.kv_write(t, f.pkt_load8(1), f.pkt_load8(2));
  f.emit(0);
  return pb.finish();
}

TEST(BoundedState, OnlyLiveValuesCountAsInsertions) {
  const ir::Program prog = make_value_writer();
  verify::DecomposedConfig cfg;
  cfg.packet_len = 4;
  verify::StateBoundSpec spec;
  spec.bound = 1;
  {
    // Unconstrained input: models must pick non-zero written values, so
    // the violation sequence certifies on replay (2 live entries).
    const pipeline::Pipeline pl = single_element(prog);
    verify::DecomposedVerifier v(cfg);
    const verify::StateBoundReport r =
        v.verify_bounded_state(pl, any_packet(), spec);
    EXPECT_EQ(r.verdict, Verdict::Violated);
    pipeline::Pipeline fresh = single_element(prog);
    for (const net::Packet& input : r.packet_sequence) {
      net::Packet p = input;
      fresh.process(p);
    }
    EXPECT_GT(fresh.element(0).kv().live_entry_count(0), 1u);
  }
  {
    // A predicate pinning the written byte to 0 makes every "insert"
    // dead: occupancy is provably 0, not a replay-failing Unknown.
    const pipeline::Pipeline pl = single_element(prog);
    verify::DecomposedVerifier v(cfg);
    const verify::StateBoundReport r = v.verify_bounded_state(
        pl,
        [](const symbex::SymPacket& p) {
          return bv::mk_eq(p.byte(2), bv::mk_const(0, 8));
        },
        spec);
    EXPECT_EQ(r.verdict, Verdict::Proven);
    EXPECT_EQ(r.occupancy, 0u);
  }
}

TEST(BoundedState, LengthChangingUpstreamStillCountsDownstreamWrites) {
  // At the entry length (24B) NetFlow(14) sees too few bytes to reach its
  // KvWrite — but downstream of EthEncap the packet is 38B and the write
  // is live. Insert sites must be gated on the summary at the element's
  // in-pipeline length, not the entry length, or this comes back Proven.
  const pipeline::Pipeline pl =
      elements::parse_pipeline("EthEncap -> NetFlow(14)");
  verify::DecomposedConfig cfg;
  cfg.packet_len = 24;
  verify::DecomposedVerifier v(cfg);
  verify::StateBoundSpec spec;
  spec.bound = 2;
  const verify::StateBoundReport r =
      v.verify_bounded_state(pl, any_packet(), spec);
  EXPECT_EQ(r.verdict, Verdict::Violated);
  EXPECT_EQ(r.packet_sequence.size(), 3u);
}

TEST(BoundedState, KeyEnumerationBudgetDegradesToUnknown) {
  const pipeline::Pipeline pl = elements::parse_pipeline("NetFlow");
  verify::DecomposedConfig cfg;
  cfg.packet_len = 40;
  cfg.max_state_keys = 2;  // cannot settle a bound of 4 either way
  verify::DecomposedVerifier v(cfg);
  verify::StateBoundSpec spec;
  spec.bound = 4;
  const verify::StateBoundReport r =
      v.verify_bounded_state(pl, any_packet(), spec);
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_TRUE(r.packet_sequence.empty());
}

// Two fresh verifiers, the second over an expression pool the first one
// warmed: identical sequences mean the models depend only on the queries.
TEST(BoundedState, VerdictsAndSequencesAreIdenticalAcrossRuns) {
  verify::StateBoundSpec spec;
  spec.bound = 2;
  std::vector<verify::StateBoundReport> reports;
  for (int run = 0; run < 2; ++run) {
    const pipeline::Pipeline pl =
        elements::parse_pipeline("CheckIPHeader(nochecksum) -> NetFlow");
    verify::DecomposedConfig cfg;
    cfg.packet_len = 40;
    verify::DecomposedVerifier v(cfg);
    reports.push_back(v.verify_bounded_state(pl, any_packet(), spec));
  }
  ASSERT_EQ(reports[0].verdict, reports[1].verdict);
  EXPECT_EQ(reports[0].occupancy, reports[1].occupancy);
  ASSERT_EQ(reports[0].packet_sequence.size(),
            reports[1].packet_sequence.size());
  for (size_t i = 0; i < reports[0].packet_sequence.size(); ++i) {
    EXPECT_EQ(reports[0].packet_sequence[i].hex(64),
              reports[1].packet_sequence[i].hex(64))
        << "sequence packet " << i;
  }
  ASSERT_EQ(reports[0].tables.size(), reports[1].tables.size());
  for (size_t i = 0; i < reports[0].tables.size(); ++i) {
    EXPECT_EQ(reports[0].tables[i].keys_found,
              reports[1].tables[i].keys_found);
    EXPECT_EQ(reports[0].tables[i].exhausted,
              reports[1].tables[i].exhausted);
  }
}

// --- Per-path unroll refinement -------------------------------------------------

// A loop element whose "bad" flag is recomputed every iteration (so the
// summarizer havocs it) but provably never leaves 0: the wrong-port
// emit(1) is a pure summarization artifact. `bad` must not be
// syntactically loop-invariant or the havoc never happens.
ir::Program make_artifact_loop() {
  ProgramBuilder pb("ArtifactLoop", 2);
  FunctionBuilder& body = pb.new_loop_body("body", {32, 32, 32});
  {
    const auto& prm = pb.params(body.id());
    const Reg i = prm[0];
    const Reg n = prm[1];
    const Reg bad = prm[2];
    const Reg done = body.uge(i, n);
    auto [d, m] = body.br(done, "done", "more");
    body.set_block(d);
    body.ret({body.imm1(false), i, n, bad});
    body.set_block(m);
    // bad' = bad & 1 — semantically still 0, syntactically a fresh value.
    const Reg bad2 = body.band(bad, body.imm32(1));
    body.ret({body.imm1(true), body.add(i, body.imm32(1)), n, bad2});
  }
  FunctionBuilder& f = pb.main();
  const Reg n = f.zext(f.band(f.pkt_load8(0), f.imm8(0x7)), 32);
  const Reg i0 = f.imm32(0);
  const Reg bad0 = f.imm32(0);
  f.run_loop(body.id(), 8, {i0, n, bad0});
  const Reg was_bad = f.ne(bad0, f.imm32(0));
  auto [b, g] = f.br(was_bad, "bad", "good");
  f.set_block(b);
  f.emit(1);
  f.set_block(g);
  f.emit(0);
  return pb.finish();
}

// Like make_artifact_loop, but the flag really can become nonzero: any
// scanned byte equal to 7 routes the packet out of port 1.
ir::Program make_scanning_loop() {
  ProgramBuilder pb("ScanLoop", 2);
  FunctionBuilder& body = pb.new_loop_body("body", {32, 32, 32});
  {
    const auto& prm = pb.params(body.id());
    const Reg i = prm[0];
    const Reg n = prm[1];
    const Reg bad = prm[2];
    const Reg done = body.uge(i, n);
    auto [d, m] = body.br(done, "done", "more");
    body.set_block(d);
    body.ret({body.imm1(false), i, n, bad});
    body.set_block(m);
    const Reg byte = body.pkt_load(i, 1, 1, "scan");
    const Reg hit = body.eq(byte, body.imm8(7));
    const Reg bad2 = body.bor(bad, body.zext(hit, 32));
    body.ret({body.imm1(true), body.add(i, body.imm32(1)), n, bad2});
  }
  FunctionBuilder& f = pb.main();
  const Reg n = f.zext(f.band(f.pkt_load8(0), f.imm8(0x7)), 32);
  const Reg i0 = f.imm32(0);
  const Reg bad0 = f.imm32(0);
  f.run_loop(body.id(), 8, {i0, n, bad0});
  const Reg was_bad = f.ne(bad0, f.imm32(0));
  auto [b, g] = f.br(was_bad, "bad", "good");
  f.set_block(b);
  f.emit(1);
  f.set_block(g);
  f.emit(0);
  return pb.finish();
}

verify::TerminalSpec must_exit_port0() {
  verify::TerminalSpec t;
  t.required_exit_port = 0;
  return t;
}

TEST(UnrollRefinement, EliminatesHavocArtifactsAndKeepsTheProof) {
  const pipeline::Pipeline pl = single_element(make_artifact_loop());
  verify::DecomposedConfig cfg;
  cfg.packet_len = 8;
  verify::DecomposedVerifier v(cfg);
  const verify::ReachabilityReport r =
      v.verify_reach_never(pl, any_packet(), must_exit_port0());
  EXPECT_EQ(r.verdict, Verdict::Proven);
  EXPECT_GE(r.stats.refinements_attempted, 1u);
  EXPECT_GE(r.stats.refinements_eliminated, 1u);
  EXPECT_EQ(r.stats.refinements_certified, 0u);
}

TEST(UnrollRefinement, CertifiesRealViolationsWithAConcreteReplay) {
  const ir::Program prog = make_scanning_loop();
  const pipeline::Pipeline pl = single_element(prog);
  verify::DecomposedConfig cfg;
  cfg.packet_len = 8;
  verify::DecomposedVerifier v(cfg);
  const verify::ReachabilityReport r =
      v.verify_reach_never(pl, any_packet(), must_exit_port0());
  ASSERT_EQ(r.verdict, Verdict::Violated);
  EXPECT_GE(r.stats.refinements_certified, 1u);
  ASSERT_FALSE(r.counterexamples.empty());
  const verify::Counterexample& ce = r.counterexamples[0];
  EXPECT_NE(ce.state_note.find("unroll refinement"), std::string::npos);
  EXPECT_FALSE(ce.requires_sequence);
  // The refined model satisfies exact constraints: replaying it concretely
  // must reproduce the wrong-port exit.
  net::Packet p = ce.packet;
  interp::KvState kv(prog.kv_tables.size());
  const interp::ExecResult res = interp::run(prog, p, kv);
  EXPECT_EQ(res.action, interp::Action::Emit);
  EXPECT_EQ(res.port, 1u);
}

TEST(UnrollRefinement, ZeroBudgetReproducesThePriorUnknown) {
  // With the refinement disabled (zero path budget) the suspect degrades
  // to Unknown exactly as before this feature existed.
  const pipeline::Pipeline pl = single_element(make_scanning_loop());
  verify::DecomposedConfig cfg;
  cfg.packet_len = 8;
  cfg.max_refine_paths = 0;
  verify::DecomposedVerifier v(cfg);
  const verify::ReachabilityReport r =
      v.verify_reach_never(pl, any_packet(), must_exit_port0());
  EXPECT_EQ(r.verdict, Verdict::Unknown);
}

TEST(UnrollRefinement, VerdictsAreIdenticalAcrossRuns) {
  for (const auto& [make, expected] :
       {std::pair{&make_artifact_loop, Verdict::Proven},
        std::pair{&make_scanning_loop, Verdict::Violated}}) {
    std::vector<verify::ReachabilityReport> reports;
    for (int run = 0; run < 2; ++run) {
      const pipeline::Pipeline pl = single_element(make());
      verify::DecomposedConfig cfg;
      cfg.packet_len = 8;
      verify::DecomposedVerifier v(cfg);
      reports.push_back(
          v.verify_reach_never(pl, any_packet(), must_exit_port0()));
    }
    EXPECT_EQ(reports[0].verdict, expected);
    EXPECT_EQ(reports[1].verdict, expected);
    ASSERT_EQ(reports[0].counterexamples.size(),
              reports[1].counterexamples.size());
    for (size_t i = 0; i < reports[0].counterexamples.size(); ++i) {
      EXPECT_EQ(reports[0].counterexamples[i].packet.hex(16),
                reports[1].counterexamples[i].packet.hex(16));
    }
  }
}

// The acceptance scenario end to end: a reachable(output N) assertion that
// previously degraded to Unknown across IPOptions' summarized loop is now
// refuted with a certified, concretely-replayed counterexample.
TEST(UnrollRefinement, SpecLevelReachableUpgradeOnIPOptions) {
  const spec::SpecFile sf = spec::parse_spec(R"(
pipeline "CheckIPHeader(nochecksum) -> IPOptions";
set packet_len = 28;
set ip_offset = 0;
let with_opts = ip.ver == 4 && ip.ihl == 6 && ip.len == 28 && ip.ttl > 1;
assert reachable(output 0) when with_opts;
)");
  const spec::CheckReport rep = spec::check_spec(sf);
  ASSERT_EQ(rep.outcomes.size(), 1u);
  const spec::AssertionOutcome& o = rep.outcomes[0];
  EXPECT_FALSE(o.passed);
  EXPECT_EQ(o.verdict, Verdict::Violated);
  ASSERT_FALSE(o.counterexamples.empty());
  EXPECT_NE(o.counterexamples[0].state_note.find("unroll refinement"),
            std::string::npos);
  ASSERT_FALSE(o.replays.empty());
  EXPECT_TRUE(o.replays_confirm) << o.replays[0];
  EXPECT_NE(o.replays[0].find("delivered via output 1"), std::string::npos)
      << o.replays[0];
}

// --- Spec-level occupancy determinism -------------------------------------------

TEST(BoundedState, SpecCheckIsDeterministicAcrossRuns) {
  const spec::SpecFile sf = spec::parse_spec(R"(
pipeline "CheckIPHeader(nochecksum) -> NetFlow";
set packet_len = 40;
set ip_offset = 0;
assert flow_occupancy(NetFlow) <= 2 when wellformed;
assert bounded_state <= 2 when wellformed && ip.src == 10.0.0.1 && ip.dst == 10.0.0.2;
)");
  const spec::CheckReport a = spec::check_spec(sf);
  const spec::CheckReport b = spec::check_spec(sf);
  ASSERT_EQ(a.outcomes.size(), 2u);
  EXPECT_FALSE(a.outcomes[0].passed);   // 3 distinct flows beat bound 2
  EXPECT_TRUE(a.outcomes[1].passed);    // one pinned flow: 1 entry
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].passed, b.outcomes[i].passed) << i;
    EXPECT_EQ(a.outcomes[i].verdict, b.outcomes[i].verdict) << i;
    EXPECT_EQ(a.outcomes[i].counterexamples.size(),
              b.outcomes[i].counterexamples.size())
        << i;
    EXPECT_EQ(a.outcomes[i].replays_confirm, b.outcomes[i].replays_confirm)
        << i;
  }
}

}  // namespace
}  // namespace vsd
