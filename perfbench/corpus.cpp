// check-corpus: every spec parsed and checked cold — no verdict cache, no
// shared summaries, jobs=1 — as `vsd check` does for a CLI user.
//
// The end-to-end metrics time the committed specs (examples/*.vspec and
// tests/packs/*.vspec), in an order drawn from the seed, pass after pass.
// Specs generated from the seed — fuzz chains with the fuzz harness's four
// properties — are checked in the traced run. Their time to verdict is
// heavy-tailed (a few refinement-bound specs take seconds to tens of
// seconds), so a tail measured on a different corpus per seed is reported
// per layer (gen.*), not bounded.
#include <cstdio>
#include <fstream>
#include <set>

#include "bench.hpp"
#include "bench_verify.hpp"
#include "bv/expr.hpp"
#include "elements/registry.hpp"
#include "obs/trace.hpp"
#include "spec/check.hpp"
#include "spec/parser.hpp"
#include "symbex/summary.hpp"
#include "testing/generate.hpp"

namespace perfbench {

using vsd::verify::Verdict;

namespace {

// Generated specs per traced run at full size.
constexpr size_t kGenerated = 40;
// Seed whose generated-spec verdicts are pinned in kExpectedPath.
constexpr uint64_t kPinnedSeed = 1;
constexpr const char* kExpectedPath =
    "perfbench/expected/check-corpus-seed1.txt";
// Seeded packets driven through the interpreter per Proven crash_free.
constexpr size_t kDrivePackets = 64;

struct Entry {
  std::string name;
  std::string text;
  vsd::spec::SpecFile sf;
};

std::vector<Entry> committed_corpus(const Options& o) {
  auto committed = committed_specs();
  if (committed.empty()) throw std::runtime_error("no committed specs found");
  committed.resize(std::max<size_t>(2, committed.size() * o.size_pct / 100));
  std::vector<Entry> out;
  for (auto& [path, text] : committed) {
    out.push_back({path, text, vsd::spec::parse_spec(text)});
  }
  return out;
}

// The fuzz harness's oracle properties as a spec: its wellformed predicate
// (pinned to the 10.0.0.2 destination) and its occupancy bound of 2.
std::vector<Entry> generated_corpus(const Options& o, uint64_t seed) {
  vsd::net::Rng rng(seed);
  std::vector<Entry> out;
  const size_t n = std::max<size_t>(2, kGenerated * o.size_pct / 100);
  for (size_t i = 0; i < n; ++i) {
    const vsd::fuzz::GeneratedPipeline gp =
        vsd::fuzz::generate_pipeline(rng, {});
    const std::string text =
        "pipeline \"" + gp.config + "\";\n" +
        "set packet_len = " + std::to_string(gp.packet_len) + ";\n" +
        "set ip_offset = " + std::to_string(gp.ip_offset) + ";\n" +
        "let wf = wellformed && ip.dst == 10.0.0.2;\n"
        "assert crash_free;\n"
        "assert never(drop) when wf;\n"
        "assert reachable(output 0) when wf;\n"
        "assert bounded_state <= 2;\n";
    out.push_back({fmt("gen-%03zu", i), text, vsd::spec::parse_spec(text)});
  }
  return out;
}

std::string verdict_letters(const vsd::spec::CheckReport& rep) {
  std::string s;
  for (const auto& out : rep.outcomes) {
    s += out.verdict == Verdict::Proven     ? 'P'
         : out.verdict == Verdict::Violated ? 'V'
                                            : 'U';
  }
  return s;
}

// Pinned expected verdicts: "<letters> <pipeline config>" per generated
// spec, in corpus order.
std::vector<std::pair<std::string, std::string>> load_expected() {
  std::vector<std::pair<std::string, std::string>> out;
  std::ifstream in(kExpectedPath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out.emplace_back(line.substr(0, sp), line.substr(sp + 1));
  }
  return out;
}

// A Proven crash_free must survive seeded packets on the interpreter.
bool crash_free_holds(const Entry& e, uint64_t seed) {
  vsd::pipeline::Pipeline pl =
      vsd::elements::parse_pipeline(e.sf.pipeline_config);
  pl.set_engine(vsd::pipeline::Engine::Interp);
  vsd::net::Rng rng(seed);
  for (size_t k = 0; k < kDrivePackets; ++k) {
    vsd::net::Packet p =
        vsd::fuzz::generate_packet(rng, e.sf.packet_len, e.sf.ip_offset);
    if (pl.process(p).action == vsd::pipeline::FinalAction::Trapped) {
      return false;
    }
  }
  return true;
}

// The checks every report gets; "" when it passes. Unknown never fails.
std::string check_report(const Entry& e, const vsd::spec::CheckReport& rep,
                         bool must_pass, uint64_t seed) {
  if (must_pass && !rep.ok) return "committed spec does not PASS";
  for (size_t j = 0; j < rep.outcomes.size(); ++j) {
    const auto& out = rep.outcomes[j];
    if (out.verdict == Verdict::Violated && !out.replays_confirm) {
      return "counterexample does not replay: " + out.text;
    }
    const auto& a = e.sf.assertions[j];
    if (out.verdict == Verdict::Proven &&
        a.prop == vsd::spec::PropKind::CrashFree && !a.when &&
        !crash_free_holds(e, seed)) {
      return "Proven crash_free traps on the interpreter";
    }
  }
  return "";
}

// Step-1 cost on its own: each distinct (element, packet length) of the
// specs summarized with the verifier's Summarize/FoldOnly options.
double standalone_summarize_ms(const std::vector<Entry>& specs) {
  std::set<std::pair<uint64_t, size_t>> seen;
  double total = 0.0;
  for (const Entry& e : specs) {
    const vsd::pipeline::Pipeline pl =
        vsd::elements::parse_pipeline(e.sf.pipeline_config);
    for (size_t i = 0; i < pl.size(); ++i) {
      const vsd::ir::Program& prog = pl.element(i).model_program();
      if (!seen.insert({vsd::ir::program_hash(prog), e.sf.packet_len})
               .second) {
        continue;
      }
      vsd::solver::Solver sv;
      vsd::symbex::ExecOptions eo;
      eo.loop_mode = vsd::symbex::LoopMode::Summarize;
      eo.fork_check = vsd::symbex::ForkCheck::FoldOnly;
      eo.solver = &sv;
      vsd::symbex::Executor exec(eo);
      const double t0 = now_s();
      (void)vsd::symbex::summarize_element(prog, e.sf.packet_len, exec);
      total += (now_s() - t0) * 1e3;
    }
  }
  return total;
}

vsd::spec::CheckReport check_cold(const vsd::spec::SpecFile& sf) {
  vsd::spec::CheckOptions opts;
  opts.jobs = 1;
  return vsd::spec::check_spec(sf, opts);
}

double refine_total_ms() {
  double ms = 0.0;
  for (const auto& [key, agg] : vsd::obs::span_aggregate()) {
    if (key.first == "refine") ms += static_cast<double>(agg.total_us) / 1e3;
  }
  return ms;
}

// The seeded generated corpus, checked once with tracing on: its time to
// verdict, the refinement share of the specs beyond its p90, and the output
// checks (pinned verdicts at kPinnedSeed, counterexample replay, crash_free
// against the interpreter).
void run_generated(const Options& o, Phase* ph) {
  const std::vector<Entry> generated = generated_corpus(o, o.seed);
  std::vector<std::pair<std::string, std::string>> expected;
  if (o.seed == kPinnedSeed) expected = load_expected();
  if (o.inject == "wrong-expected") {
    for (auto& [letters, config] : expected) {
      const size_t at = letters.find_first_of("PV");
      if (at != std::string::npos) {
        letters[at] = letters[at] == 'P' ? 'V' : 'P';
        break;
      }
    }
  }
  vsd::obs::reset();
  vsd::obs::enable(true);
  std::vector<double> ms, refine_ms;
  VerifyTotals totals;
  size_t compared = 0, drifted = 0;
  for (size_t i = 0; i < generated.size(); ++i) {
    const Entry& e = generated[i];
    const double r0 = refine_total_ms();
    const double t0 = now_s();
    const vsd::spec::CheckReport rep = check_cold(vsd::spec::parse_spec(e.text));
    ms.push_back((now_s() - t0) * 1e3);
    refine_ms.push_back(refine_total_ms() - r0);
    totals.add(rep);
    std::string why = check_report(e, rep, false, o.seed * 1000003 + i);
    if (i < expected.size()) {
      const auto& [want, config] = expected[i];
      const std::string got = verdict_letters(rep);
      if (config != e.sf.pipeline_config || want.size() != got.size()) {
        ++drifted;
      } else {
        ++compared;
        for (size_t j = 0; j < got.size() && why.empty(); ++j) {
          if (want[j] != 'U' && got[j] != 'U' && want[j] != got[j]) {
            why = fmt("verdict %c, pinned %c: ", got[j], want[j]) +
                  rep.outcomes[j].text;
          }
        }
      }
    }
    ++ph->attempted;
    if (!why.empty()) {
      ++ph->failed;
      ph->notes.push_back("FAIL " + e.name + ": " + why);
    }
  }
  vsd::obs::enable(false);

  const double p90 = quantile(ms, 0.9);
  double tail_ms = 0.0, tail_refine_ms = 0.0, sum_ms = 0.0;
  size_t tail = 0;
  for (size_t i = 0; i < ms.size(); ++i) {
    sum_ms += ms[i];
    if (ms[i] > p90) {
      ++tail;
      tail_ms += ms[i];
      tail_refine_ms += refine_ms[i];
    }
  }
  auto& L = ph->layer;
  L["gen.specs"] = static_cast<double>(ms.size());
  L["gen.verdict_p50_ms"] = quantile(ms, 0.5);
  L["gen.verdict_p90_ms"] = p90;
  L["gen.verdict_max_ms"] = quantile(ms, 1.0);
  L["gen.specs_per_s"] = static_cast<double>(ms.size()) * 1e3 / sum_ms;
  L["gen.decided_share"] = totals.decided_share();
  L["gen.tail_specs"] = static_cast<double>(tail);
  L["gen.tail_refine_share"] = tail_ms > 0 ? tail_refine_ms / tail_ms : 0.0;
  L["gen.refinements"] = static_cast<double>(totals.s.refinements_attempted);
  ph->notes.push_back(fmt(
      "generated (seed %llu): %zu specs, verdict_p50_ms %.3f ms, "
      "verdict_p90_ms %.3f ms, max %.1f ms, specs_per_s %.3f 1/s, "
      "decided_share %.4f ratio; %zu specs beyond p90 spend %.1f%% of their "
      "time in refinement; pinned verdicts: %zu compared, %zu drifted",
      static_cast<unsigned long long>(o.seed), ms.size(),
      L["gen.verdict_p50_ms"], p90, L["gen.verdict_max_ms"],
      L["gen.specs_per_s"], L["gen.decided_share"], tail,
      100.0 * L["gen.tail_refine_share"], compared, drifted));
}

}  // namespace

bool write_expected(const Options& o) {
  std::ofstream out(kExpectedPath);
  out << "# check-corpus pinned verdicts for the generated specs of seed "
      << kPinnedSeed
      << ": P/V/U per assertion, then the pipeline.\n"
         "# Rewrite with: vsd_perfbench --write-expected\n";
  for (const Entry& e : generated_corpus(o, kPinnedSeed)) {
    out << verdict_letters(check_cold(e.sf)) << " " << e.sf.pipeline_config
        << "\n";
  }
  return static_cast<bool>(out);
}

Phase run_check_corpus(const Options& o, double seconds, bool traced) {
  Phase ph;
  const std::vector<Entry> corpus = committed_corpus(o);

  // Set-up: registry initialisation and lowering of every corpus pipeline,
  // the program-side work before the first check. Median of kSetupRepeats.
  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    (void)vsd::elements::registered_elements();
    for (const Entry& e : corpus) {
      (void)vsd::elements::parse_pipeline(e.sf.pipeline_config);
    }
    setup.push_back(now_s() - t0);
  }
  const double rss_setup = rss_mb();
  const size_t nodes_setup = vsd::bv::interned_node_count();

  if (traced) {
    vsd::obs::reset();
    vsd::obs::enable(true);
  }
  SpanLog spans;
  vsd::net::Rng order_rng(o.seed);
  std::vector<size_t> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> samples;
  // Each spec's times over the passes. The host's speed changes from one
  // fraction of a second to the next and interference only ever slows work
  // down, so a spec's time is its 10th percentile over the run's passes
  // (its quiet time), which repeats from run to run where a pooled figure
  // does not.
  std::vector<std::vector<double>> spec_s(corpus.size());
  std::vector<vsd::spec::CheckReport> first(corpus.size());
  std::vector<std::string> first_sig(corpus.size());
  std::vector<uint64_t> pass_mismatch(corpus.size(), 0);
  size_t passes = 0;
  double peak = 0.0;
  const double t_start = now_s();
  do {
    for (size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[order_rng.next_below(k)]);
    }
    for (const size_t i : order) {
      const double t0 = now_s();
      const vsd::spec::SpecFile sf = vsd::spec::parse_spec(corpus[i].text);
      const double t1 = now_s();
      vsd::spec::CheckReport rep = check_cold(sf);
      const double t2 = now_s();
      samples.push_back(t2 - t0);
      spec_s[i].push_back(t2 - t0);
      if (traced) {
        const uint64_t id = spans.add("spec", 0, i, t0, t2);
        spans.add("spec.parse", id, i, t0, t1);
        spans.add("verify.check", id, i, t1, t2);
      }
      if (passes == 0) {
        first_sig[i] = report_signature(rep);
        first[i] = std::move(rep);
      } else if (report_signature(rep) != first_sig[i]) {
        ++pass_mismatch[i];
      }
    }
    // Memory after one pass over the corpus: fixed work, whatever the
    // number of passes the run has time for.
    if (passes == 0) peak = peak_rss_mb();
    ++passes;
  } while (now_s() - t_start < seconds);
  const double rss_end = rss_mb();
  const size_t nodes_end = vsd::bv::interned_node_count();
  std::map<std::string, double> obs_pass;
  if (traced) {
    obs_layers(1.0 / static_cast<double>(passes), &obs_pass);
    vsd::obs::enable(false);
  }

  // --- output checks (outside the timed window) ------------------------------
  VerifyTotals totals;
  for (size_t i = 0; i < corpus.size(); ++i) {
    totals.add(first[i]);
    const std::string why =
        check_report(corpus[i], first[i], true, o.seed * 1000003 + i);
    ph.failed += why.empty() ? pass_mismatch[i] : passes;
    if (!why.empty()) ph.notes.push_back("FAIL " + corpus[i].name + ": " + why);
    if (pass_mismatch[i] != 0) {
      ph.notes.push_back("FAIL " + corpus[i].name +
                         ": verdicts or counterexamples differ between passes");
    }
  }
  ph.attempted = samples.size();

  // --- metrics -----------------------------------------------------------------
  std::vector<double> quiet_ms;
  double quiet_pass_s = 0.0;
  for (const std::vector<double>& t : spec_s) {
    quiet_ms.push_back(quantile(t, 0.1) * 1e3);
    quiet_pass_s += quiet_ms.back() / 1e3;
  }
  const double p50 = quantile(quiet_ms, 0.5);
  const double p90 = quantile(quiet_ms, 0.9);
  ph.e2e["setup_s"] = median(setup);
  ph.e2e["op_p50_ms"] = p50;
  ph.e2e["op_tail_ms"] = p90;
  ph.e2e["ops_per_s"] = static_cast<double>(corpus.size()) / quiet_pass_s;
  ph.e2e["peak_rss_mb"] = peak;
  ph.notes.insert(
      ph.notes.begin(),
      {fmt("committed corpus: %zu specs, %zu assertions, %zu passes",
           corpus.size(), totals.assertions, passes),
       fmt("verdict_p50_ms %.3f ms, verdict_p90_ms %.3f ms, specs_per_s "
           "%.3f 1/s (quiet times of %zu specs); over all %zu checks: p50 "
           "%.3f ms, p90 %.3f ms",
           p50, p90, ph.e2e["ops_per_s"], corpus.size(), samples.size(),
           quantile(samples, 0.5) * 1e3, quantile(samples, 0.9) * 1e3),
       fmt("decided_share %.4f ratio (%zu of %zu decided), peak_rss_mb %.1f "
           "MB, rss_growth_mb %.1f MB",
           totals.decided_share(), totals.decided, totals.assertions, peak,
           rss_end - rss_setup),
       fmt("failed_share %.4f ratio (%llu of %llu)",
           ph.attempted ? double(ph.failed) / ph.attempted : 0.0,
           static_cast<unsigned long long>(ph.failed),
           static_cast<unsigned long long>(ph.attempted))});

  if (traced) {
    auto& L = ph.layer;
    L = obs_pass;
    const auto sp = spans.totals_ms();
    const double per_pass = 1.0 / static_cast<double>(passes);
    L["spec.parse_ms"] = sp.at("spec.parse").first * per_pass;
    L["verify.check_ms"] = sp.at("verify.check").first * per_pass;
    L["self.spec_ms"] = sp.at("spec").second * per_pass;
    verify_layers(totals, &L);
    L["bv.interned_nodes"] = static_cast<double>(nodes_end);
    L["bv.interned_nodes_growth"] =
        static_cast<double>(nodes_end) - static_cast<double>(nodes_setup);
    L["mem.rss_growth_mb"] = rss_end - rss_setup;
    spans.write_json(scratch_dir() + "/../check-corpus-spans.json");

    run_generated(o, &ph);
    L["symbex.summarize_ms"] = standalone_summarize_ms(corpus);
  }
  return ph;
}

}  // namespace perfbench
