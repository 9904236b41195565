#include "verify/decomposed.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "bv/analysis.hpp"
#include "bv/printer.hpp"
#include "cache/fingerprint.hpp"
#include "interp/interp.hpp"
#include "obs/trace.hpp"
#include "symbex/state_summary.hpp"
#include "verify/decision_cache.hpp"

namespace vsd::verify {

using bv::ExprRef;
using symbex::ElementSummary;
using symbex::SegAction;
using symbex::Segment;
using symbex::SymPacket;

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Proven: return "proven";
    case Verdict::Violated: return "violated";
    case Verdict::Unknown: return "unknown";
  }
  return "?";
}

namespace {

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
};

// Replays a packet sequence with persistent scratch private state (the
// live pipeline is untouched); returns the total live entries across the
// counted elements' tables afterwards. Backs the public
// replay_sequence_occupancy and the bounded-state driver's certification.
uint64_t replay_sequence_occupancy_counted(const pipeline::Pipeline& pl,
                                           const std::vector<net::Packet>& seq,
                                           const std::vector<bool>& counted) {
  std::vector<interp::KvState> state;
  state.reserve(pl.size());
  for (size_t e = 0; e < pl.size(); ++e) {
    state.emplace_back(pl.element(e).program().kv_tables.size());
  }
  for (const net::Packet& input : seq) {
    net::Packet pkt = input;
    size_t cur = 0;
    for (;;) {
      // Element::execute picks the compiled engine when it is globally on;
      // the compiled path is bit-identical to the interpreter, so the
      // certified occupancy is engine-independent.
      const interp::ExecResult r = pl.element(cur).execute(pkt, state[cur]);
      if (r.action != interp::Action::Emit) break;
      const auto d = pl.downstream(cur, r.port);
      if (!d) break;
      cur = *d;
    }
  }
  uint64_t total = 0;
  for (size_t e = 0; e < pl.size(); ++e) {
    if (!counted[e]) continue;
    const size_t ntables = pl.element(e).program().kv_tables.size();
    for (size_t t = 0; t < ntables; ++t) {
      total += state[e].live_entry_count(static_cast<ir::TableId>(t));
    }
  }
  return total;
}

// Runs a packet through the pipeline with scratch private state, returning
// the total executed instruction count without touching the live elements.
uint64_t replay_instruction_count(const pipeline::Pipeline& pl,
                                  const net::Packet& input) {
  net::Packet pkt = input;
  size_t cur = 0;
  uint64_t total = 0;
  for (;;) {
    const pipeline::Element& el = pl.element(cur);
    interp::KvState scratch(el.program().kv_tables.size());
    const interp::ExecResult r = el.execute(pkt, scratch);
    total += r.instr_count;
    if (r.action != interp::Action::Emit) break;
    const auto d = pl.downstream(cur, r.port);
    if (!d) break;
    cur = *d;
  }
  return total;
}

}  // namespace

class DecomposedVerifier::Impl {
 public:
  explicit Impl(DecomposedConfig config) : cfg(config) {
    solver.set_max_conflicts(cfg.max_solver_conflicts);
    solver.set_incremental(cfg.incremental);
    solver.set_rewrite(cfg.rewrite);
    solver.set_independence(cfg.independence);
    solver.set_cex_cache(cfg.cex_cache);
    solver.set_core_grouping(cfg.core_grouping);
    solver.set_clause_gc(cfg.clause_gc);
  }

  DecomposedConfig cfg;
  solver::Solver solver;
  // Step-1 summary caches: private per instance, unless the config hands
  // in a shared bundle (the serve daemon's warm state).
  SummaryCaches own_caches_;
  symbex::SharedSummaryCache& cache_summarize() {
    return cfg.shared_caches ? cfg.shared_caches->summarize
                             : own_caches_.summarize;
  }
  symbex::SharedSummaryCache& cache_unroll() {
    return cfg.shared_caches ? cfg.shared_caches->unroll : own_caches_.unroll;
  }
  VerifyStats stats;  // accumulated per verification call (reset each call)

  // ---------------------------------------------------------------------
  // Step 1: element summaries (cached; loop-suspect fallback to unrolling)
  // ---------------------------------------------------------------------

  // How much loop-summary over-approximation a property can tolerate.
  enum class Precision {
    AcceptBounds,     // instruction bounds: summarized counts are fine
    ExactDropsTraps,  // reachability: Drop/Trap decisions must not depend
                      // on havocked loop outputs
    ExactAll,         // path enumeration: no summarized loops anywhere, so
                      // the composed constraints partition the input space
  };

  const ElementSummary& summary_for(const ir::Program& prog, size_t len,
                                    Precision precision) {
    if (cfg.loop_mode == symbex::LoopMode::Unroll) {
      return get_summary(cache_unroll(), symbex::LoopMode::Unroll, prog, len);
    }
    const ElementSummary& s =
        get_summary(cache_summarize(), symbex::LoopMode::Summarize, prog, len);
    // Any remaining trap suspect in a summarized element gets the exact
    // (unrolled) treatment before we conclude anything — regardless of
    // property, because trap constraints may be loop-over-approximated.
    const bool has_trap = std::any_of(
        s.segments.begin(), s.segments.end(),
        [](const Segment& g) { return g.action == SegAction::Trap; });
    const bool has_lossy_drop = std::any_of(
        s.segments.begin(), s.segments.end(), [](const Segment& g) {
          return g.action == SegAction::Drop && g.count_is_bound;
        });
    const bool has_any_bound = std::any_of(
        s.segments.begin(), s.segments.end(),
        [](const Segment& g) { return g.count_is_bound; });
    const bool need_unroll =
        has_trap ||
        (precision == Precision::ExactDropsTraps && has_lossy_drop) ||
        (precision == Precision::ExactAll && has_any_bound);
    if (cfg.unroll_fallback && need_unroll) {
      return get_summary(cache_unroll(), symbex::LoopMode::Unroll, prog, len);
    }
    return s;
  }

  const ElementSummary& get_summary(symbex::SharedSummaryCache& cache,
                                    symbex::LoopMode mode,
                                    const ir::Program& prog, size_t len) {
    symbex::ExecOptions eo;
    eo.loop_mode = mode;
    // Summarize mode relies on folding + intervals (cheap, and the loop
    // summarizer handles precision); exact unrolling needs solver pruning
    // at forks or infeasible loop-path combinations multiply unchecked.
    eo.fork_check = mode == symbex::LoopMode::Unroll
                        ? symbex::ForkCheck::Solver
                        : symbex::ForkCheck::FoldOnly;
    eo.solver = &solver;
    symbex::Executor exec(eo);
    bool was_miss = false;
    obs::ScopedSpan sp(obs::Cat::Summarize, "summarize");
    const ElementSummary& s = cache.get(prog, len, exec, &was_miss);
    if (sp) {
      if (!was_miss) {
        sp.cancel();  // a cache hit is not summarization work
        obs::count("verify.summary_cache_hits");
      } else {
        sp.arg("element", prog.name);
        sp.arg("entry_len", std::to_string(len));
        sp.arg("mode", mode == symbex::LoopMode::Unroll ? "unroll"
                                                        : "summarize");
        obs::count("verify.elements_summarized");
      }
    }
    if (was_miss) {
      ++stats.elements_summarized;
      stats.segments_total += s.segments.size();
      stats.instructions_interpreted += s.stats.instructions_interpreted;
      stats.forks += s.stats.forks;
    } else {
      ++stats.summary_cache_hits;
    }
    return s;
  }

  // ---------------------------------------------------------------------
  // Step 2: composition by substitution
  // ---------------------------------------------------------------------

  // A KV read accumulated along a composed path, remembering which element
  // instance performed it and at what packet length that element was
  // summarized (the history constraint must use the same summary).
  struct PathKvRead {
    size_t elem = 0;
    size_t len = 0;
    symbex::KvReadRecord rec;
  };

  struct ComposeState {
    std::vector<ExprRef> bytes;
    std::array<ExprRef, net::kMetaSlots> meta;
    ExprRef constraint = bv::mk_bool(true);
    uint64_t count = 0;
    bool count_is_bound = false;
    std::vector<PathKvRead> kv_reads;  // renamed per instantiation
    std::vector<size_t> elem_trace;    // pipeline element indices
  };

  struct Instantiated {
    ExprRef constraint;  // composed (entry-rooted) constraint
    std::vector<ExprRef> out_bytes;
    std::array<ExprRef, net::kMetaSlots> out_meta;
    std::vector<symbex::KvReadRecord> kv_reads;
    std::vector<symbex::KvWriteRecord> kv_writes;  // only when requested
  };

  // Variables of a segment that are not the element's declared inputs:
  // KV-read symbols, havoc symbols, table-model symbols. They must be
  // renamed per pipeline instantiation (two instances of the same element
  // type have distinct private state).
  const std::vector<ExprRef>& aux_vars(const ElementSummary& sum,
                                       const Segment& g) {
    auto it = aux_cache_.find(&g);
    if (it != aux_cache_.end()) return it->second;
    std::unordered_set<uint64_t> inputs;
    for (const ExprRef& v : sum.entry.input_byte_vars()) {
      inputs.insert(v->var_id());
    }
    for (const ExprRef& v : sum.entry.input_meta_vars()) {
      inputs.insert(v->var_id());
    }
    std::unordered_set<uint64_t> seen;
    std::vector<ExprRef> aux;
    const auto scan = [&](const ExprRef& e) {
      if (!e) return;
      for (const ExprRef& v : bv::free_variables(e)) {
        if (inputs.count(v->var_id()) == 0 && seen.insert(v->var_id()).second) {
          aux.push_back(v);
        }
      }
    };
    scan(g.constraint);
    for (const ExprRef& b : g.exit_packet.bytes()) scan(b);
    for (const ExprRef& m : g.exit_packet.meta()) scan(m);
    for (const auto& r : g.kv_reads) {
      scan(r.key);
      scan(r.value);
    }
    return aux_cache_.emplace(&g, std::move(aux)).first->second;
  }

  // Rebases segment `g` of `sum` onto the given element-input expressions.
  // Returns nullopt when the stitched constraint folds to false.
  std::optional<Instantiated> instantiate(const ElementSummary& sum,
                                          const Segment& g,
                                          const ComposeState& st,
                                          bool need_outputs,
                                          bool need_writes = false) {
    bv::Substitution sub;
    const auto& in_vars = sum.entry.input_byte_vars();
    for (size_t i = 0; i < in_vars.size() && i < st.bytes.size(); ++i) {
      sub.emplace(in_vars[i]->var_id(), st.bytes[i]);
    }
    const auto& meta_vars = sum.entry.input_meta_vars();
    for (size_t i = 0; i < meta_vars.size(); ++i) {
      sub.emplace(meta_vars[i]->var_id(), st.meta[i]);
    }
    for (const ExprRef& a : aux_vars(sum, g)) {
      sub.emplace(a->var_id(), bv::mk_var(a->name(), a->width()));
    }
    Instantiated out;
    const ExprRef c = bv::substitute(g.constraint, sub);
    out.constraint = bv::mk_land(st.constraint, c);
    if (out.constraint->is_false()) return std::nullopt;
    for (const auto& r : g.kv_reads) {
      out.kv_reads.push_back(symbex::KvReadRecord{
          r.table, bv::substitute(r.key, sub), bv::substitute(r.value, sub)});
    }
    if (need_writes) {
      for (const auto& w : g.kv_writes) {
        out.kv_writes.push_back(symbex::KvWriteRecord{
            w.table, bv::substitute(w.key, sub),
            bv::substitute(w.value, sub)});
      }
    }
    if (need_outputs) {
      out.out_bytes.reserve(g.exit_packet.size());
      for (const ExprRef& b : g.exit_packet.bytes()) {
        out.out_bytes.push_back(bv::substitute(b, sub));
      }
      for (size_t i = 0; i < net::kMetaSlots; ++i) {
        out.out_meta[i] = g.exit_packet.meta(i)
                              ? bv::substitute(g.exit_packet.meta(i), sub)
                              : bv::mk_const(0, 32);
      }
    }
    return out;
  }

  // Expands one feasible segment onto the running compose state: stitches
  // the constraint, accumulates counts/KV reads/trace, and (for an Emit
  // continuing into `down`) installs the segment's output packet. Returns
  // nullopt when the stitched constraint folds to false — for a trap
  // segment that IS the Step-2 elimination, the paper's p1 case, where
  // (in < 0) ∧ (0 < 0) collapses syntactically. Shared by the full walk
  // and the per-path refinement so compose semantics cannot diverge.
  std::optional<ComposeState> expand_segment(const ElementSummary& sum,
                                             const Segment& g,
                                             const ComposeState& st,
                                             size_t elem,
                                             std::optional<size_t> down) {
    const bool continues = g.action == SegAction::Emit && down.has_value();
    auto inst = instantiate(sum, g, st, continues);
    if (!inst) {
      if (g.action == SegAction::Trap) ++stats.suspects_eliminated;
      return std::nullopt;
    }
    ComposeState next;
    next.constraint = inst->constraint;
    next.count = st.count + g.instr_count;
    next.count_is_bound = st.count_is_bound || g.count_is_bound;
    next.kv_reads = st.kv_reads;
    for (const auto& r : inst->kv_reads) {
      next.kv_reads.push_back(PathKvRead{elem, st.bytes.size(), r});
    }
    next.elem_trace = st.elem_trace;
    next.elem_trace.push_back(elem);
    if (continues) {
      next.bytes = std::move(inst->out_bytes);
      next.meta = inst->out_meta;
    }
    return next;
  }

  // Generic DAG walk. on_terminal(state, element_index, segment) is
  // invoked for every composed terminal (Drop, Trap, or Emit leaving the
  // pipeline). `should_visit` prunes subtrees (e.g. elements
  // that cannot reach a suspect). Returns false if the path budget was
  // exhausted.
  template <typename TerminalFn, typename VisitFn>
  bool walk(const pipeline::Pipeline& pl, size_t elem, ComposeState st,
            const TerminalFn& on_terminal, const VisitFn& should_visit,
            Precision precision) {
    if (!should_visit(elem)) return true;
    const ElementSummary& sum = summary_for(pl.element(elem).model_program(),
                                            st.bytes.size(), precision);
    if (sum.truncated) {
      truncated_ = true;
      return false;
    }
    for (const Segment& g : sum.segments) {
      if (budget_exhausted_) return false;
      const bool is_emit = g.action == SegAction::Emit;
      const std::optional<size_t> down =
          is_emit ? pl.downstream(elem, g.port) : std::nullopt;
      auto expanded = expand_segment(sum, g, st, elem, down);
      if (!expanded) continue;
      ComposeState next = std::move(*expanded);
      if (is_emit && down.has_value()) {
        if (!walk(pl, *down, std::move(next), on_terminal, should_visit,
                  precision)) {
          return false;
        }
        continue;
      }
      ++stats.composed_paths_checked;
      if (stats.composed_paths_checked > cfg.max_composed_paths) {
        budget_exhausted_ = true;
        return false;
      }
      on_terminal(next, elem, g);
    }
    return true;
  }

  void begin_call(const pipeline::Pipeline& pl) {
    stats = {};
    begin_cache_context(pl);
    truncated_ = false;
    budget_exhausted_ = false;
    refine_cache_.clear();
    state_writes_memo_.clear();
    solver.reset_stats();
    // One live incremental context per top-level call: reuse within the
    // call's query runs, bounded memory across a batch.
    solver.reset_context();
    // Route the solver's feasibility verdicts through the persistent
    // cache. This is where the big warm win lives: most of a cold run's
    // sat_solves are summarization-time fork checks (Executor is_unsat),
    // and those are pure expression satisfiability — context-free, so the
    // memo is sound across runs and across pipelines.
    solver.set_feasibility_memo(cfg.decision_cache);
  }

  // -------------------------------------------------------------------
  // Persistent cross-run decision cache (cfg.decision_cache)
  // -------------------------------------------------------------------
  //
  // Every key binds only what the answer actually depends on: the call
  // knobs (packet length, loop handling), the constraint/trace material
  // itself, and the CONTENT of the elements that material touches — never
  // the whole pipeline. That locality is the service's payoff: resubmit a
  // spec with one element edited and only decisions whose path crosses the
  // edit re-derive; every other path warm-hits. Domain tags keep the three
  // entry families (suspect decisions, feasibility speculations,
  // refinements) disjoint even for coincidentally identical material. The
  // avoidance flags and incremental mode are deliberately NOT keyed: they
  // are verdict-invariant by design, so any of those runs may share
  // entries.
  static constexpr uint64_t kFpSuspect = 0x5059ec7f1a7c15ull;
  static constexpr uint64_t kFpFeasible = 0xfea51b1e0a7c15ull;
  static constexpr uint64_t kFpRefine = 0x5ef19e0f2b7c15ull;

  uint64_t call_hi_ = 0, call_lo_ = 0;
  // Per-element content hash: the element's model program plus its port
  // wiring (downstream indices — the refine walk matches trace indices
  // through exactly this wiring). Recomputed per call.
  std::vector<uint64_t> elem_fp_;

  void begin_cache_context(const pipeline::Pipeline& pl) {
    if (cfg.decision_cache == nullptr) return;
    cache::Fingerprint fp;
    fp.mix(cfg.packet_len);
    // Insurance only: constraints are hashed structurally, so loop-mode
    // differences already produce different keys; keying the mode keeps
    // even a diagnostic-name collision between modes from aliasing.
    fp.mix(static_cast<uint64_t>(cfg.loop_mode));
    fp.mix(cfg.unroll_fallback ? 1 : 0);
    call_hi_ = fp.hi();
    call_lo_ = fp.lo();
    elem_fp_.assign(pl.size(), 0);
    for (size_t e = 0; e < pl.size(); ++e) {
      cache::Fingerprint ef;
      const ir::Program& prog = pl.element(e).model_program();
      ef.mix(ir::program_hash(prog));
      for (uint32_t p = 0; p < prog.num_output_ports; ++p) {
        const auto down = pl.downstream(e, p);
        ef.mix(down ? static_cast<uint64_t>(*down) : ~0ull);
      }
      elem_fp_[e] = ef.hi() ^ (ef.lo() * 0x9e3779b97f4a7c15ull);
    }
  }

  cache::Fingerprint suspect_fingerprint(const ComposeState& st) const {
    cache::Fingerprint fp;
    fp.mix(kFpSuspect);
    fp.mix(call_hi_);
    fp.mix(call_lo_);
    // The decision sees exactly the traversed elements (their summaries
    // shaped the constraint), so bind their content — an edit anywhere
    // else in the pipeline leaves this key (and its answer) valid.
    fp.mix(st.elem_trace.size());
    for (const size_t e : st.elem_trace) fp.mix(elem_fp_[e]);
    fp.mix_expr(st.constraint);
    // The KV history refinement enumerates the owning element's write
    // sites (tables are element-private), so each read binds that
    // element's content plus the stitched key/value expressions.
    fp.mix(st.kv_reads.size());
    for (const PathKvRead& pr : st.kv_reads) {
      fp.mix(elem_fp_[pr.elem]);
      fp.mix(pr.len);
      fp.mix(static_cast<uint64_t>(pr.rec.table));
      fp.mix_expr(pr.rec.key);
      fp.mix_expr(pr.rec.value);
    }
    return fp;
  }

  cache::Fingerprint feasible_fingerprint(const ExprRef& c) const {
    cache::Fingerprint fp;
    fp.mix(kFpFeasible);
    // Satisfiability of a constraint is a property of the expression
    // alone — no pipeline or call context needed, so these entries are
    // shared across every pipeline that composes the same formula.
    fp.mix_expr(c);
    return fp;
  }

  cache::Fingerprint refine_fingerprint(const TerminalSpec& tspec,
                                        const ExprRef& root_constraint,
                                        const std::vector<size_t>& trace)
      const {
    cache::Fingerprint fp;
    fp.mix(kFpRefine);
    fp.mix(call_hi_);
    fp.mix(call_lo_);
    fp.mix(tspec.drop_is_violation ? 1 : 0);
    fp.mix(tspec.trap_is_violation ? 1 : 0);
    fp.mix(tspec.required_exit_port
               ? static_cast<uint64_t>(*tspec.required_exit_port)
               : ~0ull);
    fp.mix_expr(root_constraint);
    // The exact re-walk touches only the trace's elements: their indices
    // (interior steps follow emits into trace[depth+1]) and their content.
    fp.mix(trace.size());
    for (const size_t e : trace) {
      fp.mix(e);
      fp.mix(elem_fp_[e]);
    }
    // The refine budgets are excluded on purpose: they only decide whether
    // an outcome exists (Unknown is never stored), never which one.
    return fp;
  }

  // Feasibility speculation (instruction-bound drivers) through the
  // persistent cache: both polarities are reusable here — acting on Sat
  // needs no model, because the witness comes from a separate one-shot
  // solve on the winning path only.
  solver::Result cached_feasible(const ExprRef& c) {
    if (cfg.decision_cache != nullptr) {
      const cache::Fingerprint fp = feasible_fingerprint(c);
      bool sat = false;
      if (cfg.decision_cache->lookup_decision(fp.hi(), fp.lo(), &sat)) {
        ++stats.decision_cache_hits;
        return sat ? solver::Result::Sat : solver::Result::Unsat;
      }
      ++stats.solver_queries;
      const solver::Result r = solver.check_feasible(c);
      if (r != solver::Result::Unknown) {
        cfg.decision_cache->store_decision(fp.hi(), fp.lo(),
                                           r == solver::Result::Sat);
      }
      return r;
    }
    ++stats.solver_queries;
    return solver.check_feasible(c);
  }

  // Final per-call stats: the driver-level counters plus the solver-layer
  // totals of every solver instance the call used.
  VerifyStats snapshot_stats() {
    VerifyStats out = stats;
    const auto add = [&out](const solver::CheckStats& cs) {
      out.sat_conflicts += cs.sat_conflicts;
      out.sat_decisions += cs.sat_decisions;
      out.blast_nodes += cs.blast_nodes;
      out.solver_cache_hits += cs.cache_hits;
      out.contexts_opened += cs.contexts_opened;
      out.incremental_queries += cs.incremental_queries;
      out.assumption_reuses += cs.assumption_reuses;
      out.learnt_retained += cs.learnt_retained;
      out.sat_solves += cs.decided_by_sat + cs.incremental_queries;
      out.rewrites_applied += cs.rewrites_applied;
      out.rewrite_decided += cs.rewrite_decided;
      out.slice_decided += cs.slice_decided;
      out.cex_cache_hits += cs.cex_cache_hits;
      out.core_discharges += cs.core_discharges;
      out.learnt_gc_runs += cs.learnt_gc_runs;
      out.learnt_gc_removed += cs.learnt_gc_removed;
      // Solver-layer persistent-memo hits are decision-cache hits for
      // reporting: one counter tells the whole query-avoidance story.
      out.decision_cache_hits += cs.memo_hits;
    };
    add(solver.stats());
    return out;
  }

  // ---------------------------------------------------------------------
  // Stateful refinement: the bad-value analysis for private state
  // ---------------------------------------------------------------------

  // History constraint for one renamed KV read: the value is the table's
  // default (0) or a value some feasible execution of this element could
  // have written (writer inputs fully fresh — an arbitrary earlier packet).
  ExprRef kv_history_constraint(const pipeline::Pipeline& pl,
                                const PathKvRead& pr) {
    const symbex::KvReadRecord& read = pr.rec;
    const ElementSummary& sum =
        summary_for(pl.element(pr.elem).model_program(), pr.len,
                    Precision::AcceptBounds);
    ExprRef any = bv::mk_eq(read.value,
                            bv::mk_const(0, read.value->width()));
    for (const Segment& g : sum.segments) {
      for (const auto& wr : g.kv_writes) {
        if (wr.table != read.table) continue;
        // Fresh-rename the writer's entire variable set.
        bv::Substitution sub;
        std::unordered_set<uint64_t> seen;
        const auto rename_all = [&](const ExprRef& e) {
          for (const ExprRef& v : bv::free_variables(e)) {
            if (seen.insert(v->var_id()).second) {
              sub.emplace(v->var_id(), bv::mk_var("wrt." + v->name(),
                                                  v->width()));
            }
          }
        };
        rename_all(g.constraint);
        rename_all(wr.value);
        const ExprRef writer_feasible = bv::substitute(g.constraint, sub);
        const ExprRef written = bv::substitute(wr.value, sub);
        any = bv::mk_lor(
            any, bv::mk_land(writer_feasible,
                             bv::mk_eq(read.value, written)));
      }
    }
    return any;
  }

  // Decides a suspect's stitched constraint, applying the KV history
  // refinement when private-state reads are involved. On Sat, fills the
  // model and state note.
  solver::Result decide_suspect(const pipeline::Pipeline& pl,
                                const ComposeState& st,
                                bv::Assignment* model_out,
                                std::string* state_note) {
    obs::ScopedSpan sp(obs::Cat::Stitch, "decide_suspect");
    if (sp) {
      std::string path;
      for (const size_t i : st.elem_trace) {
        if (!path.empty()) path += " > ";
        path += pl.element(i).name();
      }
      sp.arg("path", std::move(path));
      obs::count("verify.suspects_decided");
    }
    // Persistent-cache front-run: a prior run (or serve request) proved
    // this exact stitched material infeasible — skip all solving. Only
    // Unsat is consumed here: a Sat suspect must re-solve for a fresh
    // model, which keeps warm counterexample bytes identical to cold ones.
    bool have_fp = false;
    cache::Fingerprint fp;
    if (cfg.decision_cache != nullptr) {
      fp = suspect_fingerprint(st);
      have_fp = true;
      bool cached_sat = false;
      if (cfg.decision_cache->lookup_decision(fp.hi(), fp.lo(),
                                              &cached_sat) &&
          !cached_sat) {
        ++stats.decision_cache_hits;
        return solver::Result::Unsat;
      }
    }
    // Core-grouping front-run: a previously harvested unsat core whose
    // conjuncts all appear in this stitched constraint discharges the whole
    // suspect with zero solving — one core typically kills the entire
    // family of suspects stitched over the same infeasible prefix.
    if (cfg.core_grouping && solver.discharge_by_core(st.constraint)) {
      ++stats.suspects_core_discharged;
      if (have_fp) cfg.decision_cache->store_decision(fp.hi(), fp.lo(), false);
      return solver::Result::Unsat;
    }
    ++stats.solver_queries;
    solver::CheckResult r = solver.check(st.constraint);
    if (r.result != solver::Result::Sat || st.kv_reads.empty()) {
      if (r.result == solver::Result::Sat && model_out != nullptr) {
        *model_out = std::move(r.model);
      }
      if (have_fp && r.result == solver::Result::Unsat) {
        cfg.decision_cache->store_decision(fp.hi(), fp.lo(), false);
      }
      return r.result;
    }
    // The violation may hinge on values read from private state; ask
    // whether the required values are reachable through any write history.
    ExprRef refined = st.constraint;
    for (const PathKvRead& pr : st.kv_reads) {
      refined = bv::mk_land(refined, kv_history_constraint(pl, pr));
    }
    ++stats.solver_queries;
    solver::CheckResult r2 = solver.check(refined);
    if (r2.result == solver::Result::Sat) {
      if (model_out != nullptr) *model_out = std::move(r2.model);
      if (state_note != nullptr) {
        *state_note =
            "requires private state reachable via a prior packet sequence "
            "(KV bad-value analysis: a feasible write history produces the "
            "required value)";
      }
    }
    if (have_fp && r2.result == solver::Result::Unsat) {
      cfg.decision_cache->store_decision(fp.hi(), fp.lo(), false);
    }
    return r2.result;
  }

  // ---------------------------------------------------------------------
  // Per-path unroll refinement
  // ---------------------------------------------------------------------
  //
  // A suspect (wrong-port Emit, Drop, or Trap) whose composed path crossed
  // a summarized loop is Sat-but-uncertifiable: the model may be an
  // artifact of the havocked loop outputs (sat_is_unknown below). Instead
  // of degrading to Unknown, re-execute JUST that element trace with loops
  // concretely unrolled (exact summaries) and decide the violating exits
  // again. Upgrades the suspect to a certified Violated (a model over
  // exact constraints, concretely replayable) or eliminates it (every
  // exact violating exit on the trace is infeasible); stays Unknown only
  // when the exact re-walk blows its budget or the solver gives up. Much
  // cheaper than ExactAll everywhere: one trace's loop-bearing elements
  // are unrolled, not every element of every path.

  struct RefineOutcome {
    solver::Result res = solver::Result::Unknown;
    Counterexample ce;  // valid when res == Sat
  };

  // Exact (unrolled) summaries for the refinement come from a dedicated
  // cache whose executor carries the refinement's work caps: a loop-heavy
  // element that cannot be unrolled within them yields a truncated summary
  // (-> the refinement gives up as Unknown) instead of hanging, and never
  // pollutes the uncapped unroll cache.
  symbex::SharedSummaryCache& cache_refine_mem() {
    return cfg.shared_caches ? cfg.shared_caches->refine : own_caches_.refine;
  }

  const ElementSummary& refine_summary(const ir::Program& prog, size_t len) {
    symbex::ExecOptions eo;
    eo.loop_mode = symbex::LoopMode::Unroll;
    eo.fork_check = symbex::ForkCheck::Solver;
    eo.solver = &solver;
    if (cfg.refine_max_instructions != 0) {
      eo.max_instructions = cfg.refine_max_instructions;
    }
    eo.max_solver_checks = cfg.refine_max_solver_checks;
    symbex::Executor exec(eo);
    bool was_miss = false;
    const ElementSummary& s = cache_refine_mem().get(prog, len, exec, &was_miss);
    if (was_miss) {
      ++stats.elements_summarized;
      stats.segments_total += s.segments.size();
      stats.instructions_interpreted += s.stats.instructions_interpreted;
      stats.forks += s.stats.forks;
    } else {
      ++stats.summary_cache_hits;
    }
    return s;
  }

  RefineOutcome refine_summarized_path(const pipeline::Pipeline& pl,
                                       const TerminalSpec& tspec,
                                       const SymPacket& entry,
                                       const ExprRef& root_constraint,
                                       const std::vector<size_t>& trace) {
    RefineOutcome out;
    if (!cfg.unroll_fallback || trace.empty()) return out;
    ++stats.refinements_attempted;
    obs::ScopedSpan sp(obs::Cat::Refine, "refine_path");
    if (sp) {
      std::string path;
      for (const size_t i : trace) {
        if (!path.empty()) path += " > ";
        path += pl.element(i).name();
      }
      sp.arg("path", std::move(path));
      obs::count("verify.refinements_attempted");
    }
    uint64_t paths = 0;
    bool gave_up = false;  // budget/truncation: result stays Unknown
    bool solver_unknown = false;
    ComposeState root = root_state(entry);
    root.constraint = root_constraint;
    const std::function<void(size_t, ComposeState)> go =
        [&](size_t depth, ComposeState st) {
          if (out.res == solver::Result::Sat || gave_up) return;
          const size_t elem = trace[depth];
          const ElementSummary& sum = refine_summary(
              pl.element(elem).model_program(), st.bytes.size());
          if (sum.truncated) {
            gave_up = true;
            return;
          }
          const bool last = depth + 1 == trace.size();
          for (const Segment& g : sum.segments) {
            if (out.res == solver::Result::Sat || gave_up) return;
            const bool is_emit = g.action == SegAction::Emit;
            const std::optional<size_t> down =
                is_emit ? pl.downstream(elem, g.port) : std::nullopt;
            if (!last) {
              // Interior step: follow only Emit edges into the trace's
              // next element.
              if (!is_emit || !down || *down != trace[depth + 1]) continue;
              auto expanded = expand_segment(sum, g, st, elem, down);
              if (!expanded) continue;
              if (++paths > cfg.max_refine_paths) {
                gave_up = true;
                return;
              }
              go(depth + 1, std::move(*expanded));
              continue;
            }
            // The trace's terminal element: re-decide every violating
            // exit exactly — wrong-port emits leaving the pipeline, drops,
            // and traps alike. Any of them can be routed here when an
            // upstream element's summarized loop over-approximated the
            // stitched constraint (the suspect element's own drop/trap
            // constraints were already exact, but the path prefix feeding
            // them was not).
            if (is_emit && down.has_value()) continue;  // not a terminal
            if (!terminal_violates(tspec, g.action, g.port)) continue;
            auto expanded = expand_segment(sum, g, st, elem, down);
            if (!expanded) continue;
            if (++paths > cfg.max_refine_paths) {
              gave_up = true;
              return;
            }
            bv::Assignment model;
            std::string note;
            const solver::Result r =
                decide_suspect(pl, *expanded, &model, &note);
            if (r == solver::Result::Unknown) {
              solver_unknown = true;
              continue;
            }
            if (r == solver::Result::Unsat) {
              ++stats.suspects_eliminated;
              continue;
            }
            out.res = solver::Result::Sat;
            out.ce = make_counterexample(pl, entry, *expanded, model,
                                         g.action == SegAction::Trap
                                             ? g.trap
                                             : ir::TrapKind::Unreachable,
                                         std::move(note));
            // Annotate without flipping requires_sequence: a refined model
            // satisfies exact constraints and replays as a single packet
            // (unless the KV analysis above also flagged it).
            const char* refined_note =
                "certified by per-path unroll refinement (summarized loop "
                "re-executed unrolled along this path)";
            out.ce.state_note = out.ce.state_note.empty()
                                    ? refined_note
                                    : out.ce.state_note + "; " + refined_note;
          }
        };
    go(0, std::move(root));
    if (out.res == solver::Result::Sat) {
      ++stats.refinements_certified;
      return out;
    }
    if (gave_up || solver_unknown) return out;  // Unknown
    out.res = solver::Result::Unsat;  // every exact exit infeasible
    ++stats.refinements_eliminated;
    return out;
  }

  // Several uncertifiable suspects can share one element trace (the
  // trace's last element may have multiple wrong-port exits): the exact
  // re-walk is paid once per trace and its counterexample reported once.
  // `first` tells the caller whether this call computed the outcome.
  std::map<std::vector<size_t>, RefineOutcome> refine_cache_;

  const RefineOutcome& refine_cached(const pipeline::Pipeline& pl,
                                     const TerminalSpec& tspec,
                                     const SymPacket& entry,
                                     const ExprRef& root_constraint,
                                     const std::vector<size_t>& trace,
                                     bool* first) {
    const auto it = refine_cache_.find(trace);
    if (it != refine_cache_.end()) {
      *first = false;
      return it->second;
    }
    *first = true;
    if (cfg.decision_cache != nullptr) {
      // Whole refinement outcomes persist across runs, counterexample
      // included: the CE was certified against exact (unrolled)
      // constraints, so replaying its stored bytes is as sound as
      // recomputing them — and byte-identical, which the determinism
      // battery asserts. Unknown (budget/solver give-up) is never stored.
      const cache::Fingerprint fp =
          refine_fingerprint(tspec, root_constraint, trace);
      bool sat = false;
      RefineOutcome ro;
      if (cfg.decision_cache->lookup_refine(fp.hi(), fp.lo(), &sat, &ro.ce)) {
        ++stats.refine_cache_hits;
        ro.res = sat ? solver::Result::Sat : solver::Result::Unsat;
        return refine_cache_.emplace(trace, std::move(ro)).first->second;
      }
      ro = refine_summarized_path(pl, tspec, entry, root_constraint, trace);
      if (ro.res != solver::Result::Unknown) {
        cfg.decision_cache->store_refine(
            fp.hi(), fp.lo(), ro.res == solver::Result::Sat, ro.ce);
      }
      return refine_cache_.emplace(trace, std::move(ro)).first->second;
    }
    return refine_cache_
        .emplace(trace, refine_summarized_path(pl, tspec, entry,
                                               root_constraint, trace))
        .first->second;
  }

  // ---------------------------------------------------------------------
  // Bounded state / flow occupancy
  // ---------------------------------------------------------------------

  // A KvWrite site stitched onto a pipeline path: the path+segment
  // constraint and the key expression, both over the entry packet.
  struct PathInsertSite {
    size_t elem = 0;
    ir::TableId table = 0;
    ExprRef guard;
    ExprRef key;
    std::vector<PathKvRead> kv_reads;  // reads along the path (refinement)
  };

  // Per-(element, packet length) state summaries, derived from the
  // segment summary actually used at that pipeline position. Keying by
  // length matters: an element downstream of encap/decap executes at a
  // different length than the pipeline entry, and its writes may be
  // reachable only there.
  std::map<std::pair<size_t, size_t>, symbex::StateSummary>
      state_writes_memo_;

  const symbex::StateSummary& element_state_at(const pipeline::Pipeline& pl,
                                               size_t elem, size_t len,
                                               const ElementSummary& sum) {
    const auto key = std::make_pair(elem, len);
    const auto it = state_writes_memo_.find(key);
    if (it != state_writes_memo_.end()) return it->second;
    return state_writes_memo_
        .emplace(key, symbex::summarize_state(pl.element(elem).model_program(), sum))
        .first->second;
  }

  // DFS over the composed pipeline collecting every insert site of the
  // counted elements. `filter` prunes subtrees that cannot reach a
  // counted element.
  void collect_state_sites(const pipeline::Pipeline& pl, size_t elem,
                           ComposeState st, const std::vector<bool>& counted,
                           const std::vector<bool>& filter,
                           std::vector<PathInsertSite>* out) {
    if (!filter[elem] || truncated_ || budget_exhausted_) return;
    const ElementSummary& sum =
        summary_for(pl.element(elem).model_program(), st.bytes.size(),
                    Precision::AcceptBounds);
    if (sum.truncated) {
      truncated_ = true;
      return;
    }
    // The element's state summary classifies which writes of which
    // segments can insert; only those are stitched below.
    const symbex::StateSummary* ss = nullptr;
    if (counted[elem]) {
      const symbex::StateSummary& s =
          element_state_at(pl, elem, st.bytes.size(), sum);
      if (s.insert_site_count() > 0) ss = &s;
    }
    for (size_t si = 0; si < sum.segments.size(); ++si) {
      const Segment& g = sum.segments[si];
      if (truncated_ || budget_exhausted_) return;
      const bool is_emit = g.action == SegAction::Emit;
      const std::optional<size_t> down =
          is_emit ? pl.downstream(elem, g.port) : std::nullopt;
      const bool continues = is_emit && down.has_value();
      if (!continues && ss == nullptr) continue;
      auto inst = instantiate(sum, g, st, continues, ss != nullptr);
      if (!inst) continue;
      ComposeState next;
      next.constraint = inst->constraint;
      next.kv_reads = st.kv_reads;
      for (const auto& r : inst->kv_reads) {
        next.kv_reads.push_back(PathKvRead{elem, st.bytes.size(), r});
      }
      next.elem_trace = st.elem_trace;
      next.elem_trace.push_back(elem);
      if (ss != nullptr) {
        for (const symbex::TableStateSummary& ts : ss->tables) {
          for (const symbex::StateSite& site_in : ts.inserts) {
            if (site_in.segment != si) continue;
            const auto& wr = inst->kv_writes.at(site_in.write_index);
            // Stitching only folds further: a write whose stitched value
            // is now provably 0 is an eviction after all.
            if (symbex::is_evict_write(wr.value)) continue;
            // An entry is live only when the written value is non-zero;
            // folding it into the guard forces enumeration models to
            // choose genuinely-live insertions, so certification replay
            // counts exactly what enumeration counted.
            const ExprRef live = bv::mk_land(
                inst->constraint,
                bv::mk_ne(wr.value, bv::mk_const(0, wr.value->width())));
            if (live->is_false()) continue;
            PathInsertSite site;
            site.elem = elem;
            site.table = ts.table;
            site.guard = live;
            site.key = wr.key;
            site.kv_reads = next.kv_reads;
            out->push_back(std::move(site));
          }
        }
      }
      if (continues) {
        ++stats.composed_paths_checked;
        if (stats.composed_paths_checked > cfg.max_composed_paths) {
          budget_exhausted_ = true;
          return;
        }
        next.bytes = std::move(inst->out_bytes);
        next.meta = inst->out_meta;
        collect_state_sites(pl, *down, std::move(next), counted, filter,
                            out);
      }
    }
  }

  StateBoundReport bounded_state(const pipeline::Pipeline& pl,
                                 const InputPredicate& predicate,
                                 const StateBoundSpec& spec) {
    Timer timer;
    StateBoundReport report;
    report.bound = spec.bound;

    std::vector<bool> counted(pl.size(), false);
    for (size_t e = 0; e < pl.size(); ++e) {
      counted[e] =
          spec.element.empty() || pl.element(e).name() == spec.element;
    }

    begin_call(pl);

    // Report scaffolding: every table of every counted element appears in
    // the report, even when provably empty. (Table declarations don't
    // depend on packet length; whether a table has reachable insert sites
    // does, and is decided per pipeline position during the walk below.)
    std::map<std::pair<size_t, ir::TableId>, TableOccupancy> occupancy;
    for (size_t e = 0; e < pl.size(); ++e) {
      if (!counted[e]) continue;
      const ir::Program& prog = pl.element(e).model_program();
      for (size_t t = 0; t < prog.kv_tables.size(); ++t) {
        TableOccupancy occ;
        occ.element = e;
        occ.element_name = pl.element(e).name();
        occ.table_name = prog.kv_tables[t].name;
        occ.exhausted = true;  // until enumeration says otherwise
        occupancy.emplace(
            std::make_pair(e, static_cast<ir::TableId>(t)), occ);
      }
    }

    const SymPacket entry = SymPacket::symbolic(cfg.packet_len, "in");
    ComposeState root = root_state(entry);
    root.constraint = predicate(entry);

    // Steps 1+2: stitch every insert site onto its pipeline paths.
    std::vector<PathInsertSite> sites;
    {
      const std::vector<bool> filter = reachability_filter(pl, counted);
      collect_state_sites(pl, 0, std::move(root), counted, filter, &sites);
    }
    if (truncated_ || budget_exhausted_) {
      report.verdict = Verdict::Unknown;
      report.stats = snapshot_stats();
      report.seconds = timer.seconds();
      return report;
    }

    // Step 3: enumerate distinct feasible keys per (element, table) with
    // blocking clauses. Each Sat model is one injectable packet creating
    // one new entry; Unsat with all found keys blocked exhausts the table.
    std::map<std::pair<size_t, ir::TableId>,
             std::vector<const PathInsertSite*>>
        groups;
    for (const PathInsertSite& s : sites) {
      groups[{s.elem, s.table}].push_back(&s);
    }
    uint64_t total = 0;
    uint64_t keys_budget = 0;
    bool unknown = false;
    bool over = false;
    // A table with insert sites counts as exhausted only once every site
    // ran dry; tables skipped because the bound was already exceeded must
    // not claim a proof.
    for (const auto& [id, group] : groups) {
      (void)group;
      occupancy.at(id).exhausted = false;
    }
    for (const auto& [id, group] : groups) {
      TableOccupancy& occ = occupancy.at(id);
      obs::ScopedSpan esp(obs::Cat::Enumerate, "enumerate_keys");
      if (esp) {
        esp.arg("element", occupancy.at(id).element_name);
        esp.arg("table", occupancy.at(id).table_name);
      }
      std::vector<uint64_t> found;
      // Incremental enumeration: one live SAT context per table. Each
      // site's refined constraint (guard ∧ KV write history, fixed per
      // site) is passed as assumptions — switching sites retracts it for
      // free — while everything learnt finding or excluding one key keeps
      // pruning the next query. The context starts fresh here, so the
      // models (hence packet bytes) depend only on this table's queries.
      std::unique_ptr<solver::SolverContext> ectx;
      if (cfg.incremental) {
        ectx = std::make_unique<solver::SolverContext>(solver);
      }
      for (const PathInsertSite* site : group) {
        // The bad-value refinement for reads along the site's path: fixed
        // per site, so it is conjoined up front (and blasted once) rather
        // than re-derived per model as the one-shot path does.
        ExprRef refined;
        if (ectx && !site->kv_reads.empty()) {
          refined = site->guard;
          for (const PathKvRead& pr : site->kv_reads) {
            refined = bv::mk_land(
                refined, kv_history_constraint(pl, pr));
          }
        }
        for (;;) {
          if (++keys_budget > cfg.max_state_keys) {
            unknown = true;
            break;
          }
          ExprRef q = ectx && refined ? refined : site->guard;
          for (const uint64_t v : found) {
            q = bv::mk_land(
                q, bv::mk_ne(site->key,
                             bv::mk_const(v, site->key->width())));
          }
          bv::Assignment model;
          solver::Result r;
          if (ectx) {
            ++stats.solver_queries;
            solver::CheckResult cr = ectx->check_assuming(q);
            r = cr.result;
            model = std::move(cr.model);
          } else {
            ComposeState cs;
            cs.constraint = q;
            cs.kv_reads = site->kv_reads;
            r = decide_suspect(pl, cs, &model, nullptr);
          }
          if (r == solver::Result::Unsat) break;  // site dry; next site
          if (r == solver::Result::Unknown) {
            unknown = true;
            break;
          }
          // The blocking clause joins the live context as a new assumption
          // conjunct on the next iteration: it blasts once, stays cached
          // for the rest of the table's enumeration, and every conflict
          // learnt from it keeps pruning later models — yet it retracts
          // automatically when enumeration moves to a site with a
          // different key expression (a permanent assertion would leak
          // this site's blocks into the other sites' queries).
          found.push_back(bv::evaluate(site->key, model));
          obs::count("verify.state_keys_found");
          report.packet_sequence.push_back(entry.to_concrete(model));
          ++total;
          if (total > spec.bound) {
            over = true;
            break;
          }
        }
        if (unknown || over) break;
      }
      occ.keys_found = found.size();
      if (unknown || over) break;
      occ.exhausted = true;  // every site of this table ran dry
    }
    for (auto& [id, occ] : occupancy) report.tables.push_back(occ);
    report.occupancy = total;

    if (over) {
      // Certify: the sequence must concretely drive occupancy past the
      // bound (guards Violated against loop-havoc artifacts in stitched
      // constraints).
      const uint64_t replayed = replay_sequence_occupancy_counted(
          pl, report.packet_sequence, counted);
      if (replayed > spec.bound) {
        report.verdict = Verdict::Violated;
      } else {
        report.verdict = Verdict::Unknown;
        report.sequence_uncertified = true;
        report.packet_sequence.clear();
      }
    } else if (unknown) {
      report.verdict = Verdict::Unknown;
      report.packet_sequence.clear();
    } else {
      report.verdict = Verdict::Proven;
      report.packet_sequence.clear();
    }
    report.stats = snapshot_stats();
    report.seconds = timer.seconds();
    return report;
  }

  // ---------------------------------------------------------------------
  // Helpers shared by the public property drivers
  // ---------------------------------------------------------------------

  // Entry lengths each element can be reached at, starting from
  // cfg.packet_len at element 0. pkt_pull / pkt_push change the packet
  // length mid-pipeline and Step-1 summaries are per-length, so a suspect
  // scan over entry-length summaries alone is unsound: an element whose
  // summary at the pipeline entry length is trap-free can still trap at
  // the shorter length an upstream strip hands it (found by fuzzing:
  // "Strip14 -> EthDecap -> UnsafeStrip(20) -> ToyE1" at 48 bytes strips
  // the packet to 0 bytes before ToyE1's reads). Emit-segment exit lengths
  // are concrete, so the length sets close over the pipeline with plain
  // set arithmetic — no constraint stitching, no solver. Segments whose
  // isolated constraint already folded to false are skipped; composed
  // infeasibility is NOT consulted, so the sets over-approximate — safe,
  // since Step 2 still decides every suspect with the stitched constraint.
  std::vector<std::set<size_t>> reachable_entry_lengths(
      const pipeline::Pipeline& pl, bool* any_truncated) {
    std::vector<std::set<size_t>> lens(pl.size());
    std::vector<std::pair<size_t, size_t>> work;
    const auto push = [&](size_t e, size_t len) {
      if (lens[e].insert(len).second) work.emplace_back(e, len);
    };
    push(0, cfg.packet_len);
    while (!work.empty()) {
      const auto [e, len] = work.back();
      work.pop_back();
      const ElementSummary& sum =
          summary_for(pl.element(e).model_program(), len,
                      Precision::AcceptBounds);
      if (sum.truncated) {
        *any_truncated = true;
        continue;
      }
      for (const Segment& g : sum.segments) {
        if (g.action != SegAction::Emit || g.constraint->is_false()) continue;
        const std::optional<size_t> down = pl.downstream(e, g.port);
        if (down) push(*down, g.exit_packet.bytes().size());
      }
    }
    return lens;
  }

  // Elements from which any suspect-bearing element is reachable.
  std::vector<bool> reachability_filter(
      const pipeline::Pipeline& pl, const std::vector<bool>& is_target) {
    const size_t n = pl.size();
    std::vector<bool> can_reach(is_target);
    // Fixed-point over the DAG (small graphs; no need for topo order).
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t e = 0; e < n; ++e) {
        if (can_reach[e]) continue;
        for (uint32_t p = 0; p < pl.element(e).num_output_ports(); ++p) {
          const auto d = pl.downstream(e, p);
          if (d && can_reach[*d]) {
            can_reach[e] = true;
            changed = true;
            break;
          }
        }
      }
    }
    return can_reach;
  }

  Counterexample make_counterexample(const pipeline::Pipeline& pl,
                                     const SymPacket& entry,
                                     const ComposeState& st,
                                     const bv::Assignment& model,
                                     ir::TrapKind trap,
                                     std::string note) {
    Counterexample ce;
    ce.packet = entry.to_concrete(model);
    for (const size_t e : st.elem_trace) {
      ce.element_path.push_back(pl.element(e).name());
    }
    ce.trap = trap;
    // A note at this point always comes from the KV bad-value analysis:
    // the model relies on private state a prior packet sequence must build.
    ce.requires_sequence = !note.empty();
    ce.state_note = std::move(note);
    return ce;
  }

  static ComposeState root_state(const SymPacket& entry) {
    ComposeState root;
    root.bytes = entry.bytes();
    for (size_t i = 0; i < net::kMetaSlots; ++i) root.meta[i] = entry.meta(i);
    return root;
  }

  // True when a composed terminal (Drop, Trap, or Emit leaving the
  // pipeline at `port`) violates the spec.
  static bool terminal_violates(const TerminalSpec& spec, SegAction action,
                                uint32_t port) {
    switch (action) {
      case SegAction::Drop: return spec.drop_is_violation;
      case SegAction::Trap: return spec.trap_is_violation;
      case SegAction::Emit:
        return spec.required_exit_port.has_value() &&
               port != *spec.required_exit_port;
    }
    return false;
  }

  // Reach/never properties run at ExactDropsTraps: Drop/Trap segments of
  // the suspect element itself are decided on exact (unrolled)
  // constraints, while Emit segments may keep their summarized-loop
  // over-approximation. That keeps Proven sound (over-approximation never
  // hides a feasible terminal) without unrolling every loop-bearing
  // element the way ExactAll does (exponential on e.g. IPOptions at
  // MTU-ish lengths). But a Sat model for ANY suspect whose composed path
  // crossed a summarized loop — in the suspect element or any element
  // UPSTREAM of it — is not a certified violation: the model may be an
  // artifact of the havocked loop outputs feeding the stitched constraint
  // (e.g. SetIPChecksum's summarized sum loop havocs the checksum bytes a
  // downstream CheckIPHeader tests, making "bad checksum -> drop" Sat for
  // packets the real element would fix). Such suspects re-decide on the
  // per-path unroll refinement and either certify a replayable
  // counterexample, eliminate the artifact, or degrade to Unknown. The
  // differential fuzz harness caught exactly this class as unreplayable
  // counterexamples before the path-wide gate existed.
  static bool sat_is_unknown(const TerminalSpec& spec, SegAction action,
                             bool count_is_bound) {
    (void)spec;
    (void)action;
    return count_is_bound;
  }

  std::unordered_map<const Segment*, std::vector<ExprRef>> aux_cache_;
  bool truncated_ = false;
  bool budget_exhausted_ = false;
};

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

uint64_t replay_sequence_occupancy(const pipeline::Pipeline& pl,
                                   const std::vector<net::Packet>& sequence,
                                   const std::string& element) {
  std::vector<bool> counted(pl.size(), false);
  for (size_t e = 0; e < pl.size(); ++e) {
    counted[e] = element.empty() || pl.element(e).name() == element;
  }
  return replay_sequence_occupancy_counted(pl, sequence, counted);
}

DecomposedVerifier::DecomposedVerifier(DecomposedConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

DecomposedVerifier::~DecomposedVerifier() = default;

symbex::SharedSummaryCache& DecomposedVerifier::cache() {
  return impl_->cache_summarize();
}
solver::Solver& DecomposedVerifier::solver() { return impl_->solver; }
const DecomposedConfig& DecomposedVerifier::config() const {
  return impl_->cfg;
}

CrashFreedomReport DecomposedVerifier::verify_crash_freedom(
    const pipeline::Pipeline& pl) {
  Impl& im = *impl_;
  obs::ScopedSpan phase(obs::Cat::Phase, "crash_freedom");
  Timer timer;
  im.begin_call(pl);
  CrashFreedomReport report;

  // Step 1: summarize every element at every entry length it can be
  // reached at (strips/encaps change the length mid-pipeline — see
  // reachable_entry_lengths); find suspects (feasible trap segments under
  // unconstrained element input).
  std::vector<bool> has_suspect(pl.size(), false);
  bool any_truncated = false;
  const std::vector<std::set<size_t>> lens =
      im.reachable_entry_lengths(pl, &any_truncated);
  for (size_t e = 0; e < pl.size(); ++e) {
    for (const size_t len : lens[e]) {
      const ElementSummary& sum =
          im.summary_for(pl.element(e).model_program(), len,
                         Impl::Precision::AcceptBounds);
      if (sum.truncated) any_truncated = true;
      for (const Segment& g : sum.segments) {
        if (g.action != SegAction::Trap) continue;
        ++im.stats.suspects_found;
        if (!g.constraint->is_false()) has_suspect[e] = true;
      }
    }
  }
  if (any_truncated) {
    report.verdict = Verdict::Unknown;
    report.stats = im.snapshot_stats();
    report.seconds = timer.seconds();
    return report;
  }
  const bool none = std::none_of(has_suspect.begin(), has_suspect.end(),
                                 [](bool b) { return b; });
  if (none) {
    // No element can trap for any input: the pipeline provably never
    // crashes, no composition needed.
    report.verdict = Verdict::Proven;
    report.stats = im.snapshot_stats();
    report.seconds = timer.seconds();
    return report;
  }

  // Step 2: compose paths that can reach a suspect element and decide each
  // suspect trap with the full stitched constraint.
  const std::vector<bool> filter = im.reachability_filter(pl, has_suspect);
  const SymPacket entry = SymPacket::symbolic(im.cfg.packet_len, "in");
  Impl::ComposeState root = Impl::root_state(entry);

  // For Sat trap suspects on paths that crossed a summarized loop (in any
  // upstream element), the model may be a havoc artifact — certify or
  // eliminate via the per-path unroll refinement, exactly like reach/never.
  TerminalSpec crash_tspec;
  crash_tspec.drop_is_violation = false;
  crash_tspec.trap_is_violation = true;
  const bv::ExprRef crash_root = bv::mk_bool(true);

  bool violated = false;
  const bool complete = im.walk(
      pl, 0, std::move(root),
      [&](const Impl::ComposeState& st, size_t /*elem*/, const Segment& g) {
        if (g.action != SegAction::Trap) return;
        bv::Assignment model;
        std::string note;
        const solver::Result r =
            im.decide_suspect(pl, st, &model, &note);
        if (r == solver::Result::Unsat) {
          ++im.stats.suspects_eliminated;
          return;
        }
        if (r == solver::Result::Unknown) {
          im.truncated_ = true;
          return;
        }
        if (st.count_is_bound) {
          bool first = false;
          const Impl::RefineOutcome& ro =
              im.refine_cached(pl, crash_tspec, entry, crash_root,
                               st.elem_trace, &first);
          if (ro.res == solver::Result::Sat) {
            violated = true;
            if (first) report.counterexamples.push_back(ro.ce);
          } else if (ro.res == solver::Result::Unknown) {
            im.truncated_ = true;
          }
          return;  // Unsat: certified infeasible once unrolled
        }
        violated = true;
        report.counterexamples.push_back(im.make_counterexample(
            pl, entry, st, model, g.trap, std::move(note)));
      },
      [&](size_t e) { return filter[e]; },
      Impl::Precision::AcceptBounds);

  if (violated) {
    report.verdict = Verdict::Violated;
  } else if (!complete || im.truncated_) {
    report.verdict = Verdict::Unknown;
  } else {
    report.verdict = Verdict::Proven;
  }
  report.stats = im.snapshot_stats();
  report.seconds = timer.seconds();
  return report;
}

InstructionBoundReport DecomposedVerifier::verify_instruction_bound(
    const pipeline::Pipeline& pl) {
  Impl& im = *impl_;
  obs::ScopedSpan phase(obs::Cat::Phase, "instruction_bound");
  Timer timer;
  im.begin_call(pl);
  InstructionBoundReport report;

  const SymPacket entry = SymPacket::symbolic(im.cfg.packet_len, "in");
  Impl::ComposeState root = Impl::root_state(entry);

  uint64_t best = 0;
  bool best_is_bound = false;
  bv::ExprRef best_constraint;
  bool saw_unknown = false;

  const bool complete = im.walk(
      pl, 0, std::move(root),
      [&](const Impl::ComposeState& st, size_t /*elem*/, const Segment& g) {
        // st already includes the terminal segment's count (walk adds it
        // before invoking the callback).
        (void)g;
        const uint64_t total = st.count;
        if (total <= best) return;  // cannot improve the max
        // Feasibility only — these speculative decisions share long path
        // prefixes, exactly the incremental context's workload. The witness
        // model is derived once at the end, for the winning path only.
        const solver::Result r =
            im.cached_feasible(st.constraint);
        if (r == solver::Result::Unsat) return;
        if (r == solver::Result::Unknown) {
          saw_unknown = true;
          return;
        }
        best = total;
        best_is_bound = st.count_is_bound || g.count_is_bound;
        best_constraint = st.constraint;
      },
      [](size_t) { return true; },
      Impl::Precision::AcceptBounds);

  report.max_instructions = best;
  report.bound_is_exact = !best_is_bound;
  // The witness model comes from a one-shot solve, deterministic in the
  // constraint alone. Under a finite conflict budget that solve can come
  // back Unknown even though the incremental context already proved the
  // path feasible; without a model there is no witness, hence no proof
  // claim.
  const bool already_unknown = !complete || im.truncated_ || saw_unknown;
  solver::CheckResult witness_model;
  if (best_constraint && !already_unknown) {
    witness_model = im.solver.check(best_constraint);
  }
  if (already_unknown ||
      (best_constraint &&
       witness_model.result != solver::Result::Sat)) {
    report.verdict = Verdict::Unknown;
  } else {
    report.verdict = Verdict::Proven;
    net::Packet witness = entry.to_concrete(witness_model.model);
    // Replay the witness concretely (scratch private state, the live
    // pipeline is untouched) to report the achieved count: equals the bound
    // when exact, a measured value under the bound otherwise.
    report.witness_instructions = replay_instruction_count(pl, witness);
    report.witness = std::move(witness);
  }
  report.stats = im.snapshot_stats();
  report.seconds = timer.seconds();
  return report;
}

ComposedPaths DecomposedVerifier::enumerate_paths(
    const pipeline::Pipeline& pl) {
  Impl& im = *impl_;
  im.begin_call(pl);
  ComposedPaths out;
  out.entry = SymPacket::symbolic(im.cfg.packet_len, "in");
  Impl::ComposeState root = Impl::root_state(out.entry);

  const bool complete = im.walk(
      pl, 0, std::move(root),
      [&](const Impl::ComposeState& st, size_t /*elem*/, const Segment& g) {
        ComposedPath cp;
        cp.constraint = st.constraint;
        for (const size_t e : st.elem_trace) {
          cp.element_path.push_back(pl.element(e).name());
        }
        cp.action = g.action;
        cp.port = g.port;
        cp.trap = g.trap;
        cp.instr_count = st.count;
        cp.count_is_bound = st.count_is_bound;
        out.paths.push_back(std::move(cp));
      },
      [](size_t) { return true; }, Impl::Precision::ExactAll);
  out.complete = complete && !im.truncated_;
  return out;
}

ReachabilityReport DecomposedVerifier::verify_never_dropped(
    const pipeline::Pipeline& pl, const InputPredicate& predicate) {
  return verify_reach_never(pl, predicate, TerminalSpec{});
}

StateBoundReport DecomposedVerifier::verify_bounded_state(
    const pipeline::Pipeline& pl, const InputPredicate& predicate,
    const StateBoundSpec& spec) {
  obs::ScopedSpan phase(obs::Cat::Phase, "bounded_state");
  return impl_->bounded_state(pl, predicate, spec);
}

ReachabilityReport DecomposedVerifier::verify_reach_never(
    const pipeline::Pipeline& pl, const InputPredicate& predicate,
    const TerminalSpec& tspec) {
  Impl& im = *impl_;
  obs::ScopedSpan phase(obs::Cat::Phase, "reach_never");
  Timer timer;
  im.begin_call(pl);
  ReachabilityReport report;

  const SymPacket entry = SymPacket::symbolic(im.cfg.packet_len, "in");
  Impl::ComposeState root = Impl::root_state(entry);
  root.constraint = predicate(entry);
  if (root.constraint->is_false()) {
    report.verdict = Verdict::Proven;  // vacuous: no packet matches
    report.seconds = timer.seconds();
    return report;
  }
  const bv::ExprRef root_constraint = root.constraint;

  bool violated = false;
  const bool complete = im.walk(
      pl, 0, std::move(root),
      [&](const Impl::ComposeState& st, size_t /*elem*/, const Segment& g) {
        if (!Impl::terminal_violates(tspec, g.action, g.port)) return;
        ++im.stats.suspects_found;
        bv::Assignment model;
        std::string note;
        const solver::Result r =
            im.decide_suspect(pl, st, &model, &note);
        if (r == solver::Result::Unsat) {
          ++im.stats.suspects_eliminated;
          return;
        }
        if (r == solver::Result::Unknown) {
          im.truncated_ = true;
          return;
        }
        if (Impl::sat_is_unknown(tspec, g.action, st.count_is_bound)) {
          // Sat on over-approximated loop outputs proves nothing; re-walk
          // just this path with the loop concretely unrolled (memoized:
          // suspects sharing a trace pay for and report one refinement).
          bool first = false;
          const Impl::RefineOutcome& ro =
              im.refine_cached(pl, tspec, entry, root_constraint,
                               st.elem_trace, &first);
          if (ro.res == solver::Result::Sat) {
            violated = true;
            if (first) report.counterexamples.push_back(ro.ce);
          } else if (ro.res == solver::Result::Unknown) {
            im.truncated_ = true;
          }
          return;  // Unsat: certified infeasible once unrolled
        }
        violated = true;
        report.counterexamples.push_back(im.make_counterexample(
            pl, entry, st, model,
            g.action == SegAction::Trap ? g.trap : ir::TrapKind::Unreachable,
            std::move(note)));
      },
      [](size_t) { return true; },
      Impl::Precision::ExactDropsTraps);

  if (violated) {
    report.verdict = Verdict::Violated;
  } else if (!complete || im.truncated_) {
    report.verdict = Verdict::Unknown;
  } else {
    report.verdict = Verdict::Proven;
  }
  report.stats = im.snapshot_stats();
  report.seconds = timer.seconds();
  return report;
}

}  // namespace vsd::verify
