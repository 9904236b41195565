#include "bench.hpp"
#include "bench_verify.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using vsd::verify::Verdict;

void VerifyTotals::add(const vsd::spec::CheckReport& rep) {
  for (const auto& o : rep.outcomes) {
    ++assertions;
    if (o.verdict == Verdict::Unknown) {
      ++unknown;
    } else {
      ++decided;
    }
    const vsd::verify::VerifyStats& x = o.stats;
    s.elements_summarized += x.elements_summarized;
    s.summary_cache_hits += x.summary_cache_hits;
    s.segments_total += x.segments_total;
    s.suspects_found += x.suspects_found;
    s.suspects_eliminated += x.suspects_eliminated;
    s.composed_paths_checked += x.composed_paths_checked;
    s.instructions_interpreted += x.instructions_interpreted;
    s.forks += x.forks;
    s.refinements_attempted += x.refinements_attempted;
    s.refinements_certified += x.refinements_certified;
    s.sat_conflicts += x.sat_conflicts;
    s.sat_decisions += x.sat_decisions;
    s.blast_nodes += x.blast_nodes;
  }
}

void verify_layers(const VerifyTotals& t, std::map<std::string, double>* out) {
  auto& L = *out;
  const vsd::verify::VerifyStats& s = t.s;
  L["symbex.segments"] = static_cast<double>(s.segments_total);
  L["symbex.forks"] = static_cast<double>(s.forks);
  L["symbex.instructions"] = static_cast<double>(s.instructions_interpreted);
  L["verify.composed_paths"] = static_cast<double>(s.composed_paths_checked);
  L["verify.suspect_elim_ratio"] =
      ratio(s.suspects_eliminated, s.suspects_found);
  L["verify.refinements"] = static_cast<double>(s.refinements_attempted);
  L["verify.refine_certified_ratio"] =
      ratio(s.refinements_certified, s.refinements_attempted);
  L["verify.summary_hit_ratio"] = ratio(
      s.summary_cache_hits, s.summary_cache_hits + s.elements_summarized);
  L["verify.unknown"] = static_cast<double>(t.unknown);
  L["verify.decided_share"] = t.decided_share();
  L["solver.conflicts"] = static_cast<double>(s.sat_conflicts);
  L["solver.decisions"] = static_cast<double>(s.sat_decisions);
  L["solver.blast_nodes"] = static_cast<double>(s.blast_nodes);
}

void obs_layers(double scale, std::map<std::string, double>* out) {
  auto& L = *out;
  static const std::pair<const char*, const char*> kRungs[] = {
      {"solver.rung.cheap", "solver.rung.cheap"},
      {"solver.rung.cache", "solver.rung.cache"},
      {"solver.rung.rewrite", "solver.rung.rewrite"},
      {"solver.rung.exhaustion", "solver.rung.exhaustion"},
      {"solver.rung.core-grouping", "solver.rung.core_grouping"},
      {"solver.rung.cex-cache", "solver.rung.cex_cache"},
      {"solver.rung.slicing", "solver.rung.slicing"},
      {"solver.rung.incremental", "solver.rung.incremental"},
      {"solver.rung.cdcl", "solver.rung.cdcl"},
  };
  const auto counters = vsd::obs::counters_snapshot();
  const auto count = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second) * scale;
  };
  for (const auto& [metric, counter] : kRungs) L[metric] = count(counter);
  // Every query through the avoidance ladder, and those the ladder passed
  // on to the SAT core (its incremental and one-shot CDCL rungs).
  const double queries = count("solver.queries");
  const double core = count("solver.rung.incremental") + count("solver.rung.cdcl");
  L["solver.queries"] = queries;
  L["solver.core_queries"] = core;
  L["solver.core_share"] = queries > 0 ? core / queries : 0.0;
  const auto total = obs_total_ms();
  const auto self = obs_self_ms();
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  L["verify.stitch_ms"] = get(total, "stitch") * scale;
  L["verify.refine_ms"] = get(total, "refine") * scale;
  L["verify.enumerate_ms"] = get(total, "enumerate") * scale;
  L["solver.solve_ms"] = get(total, "solve") * scale;
  for (const char* cat :
       {"summarize", "stitch", "solve", "refine", "enumerate", "phase"}) {
    L[std::string("self.") + cat + "_ms"] = get(self, cat) * scale;
  }
  L["trace.dropped_events"] = static_cast<double>(vsd::obs::dropped_events());
}

std::string report_signature(const vsd::spec::CheckReport& rep) {
  std::string sig;
  for (const auto& o : rep.outcomes) {
    sig += vsd::verify::verdict_name(o.verdict);
    for (const auto& ce : o.counterexamples) {
      sig += " " + ce.packet.hex(ce.packet.size());
    }
    sig += "\n";
  }
  return sig;
}

namespace {

// Reads the JSON string value starting at `pos` (just past the opening
// quote). Verdict names and packet hex never contain escapes.
std::string string_at(const std::string& s, size_t pos) {
  const size_t end = s.find('"', pos);
  return end == std::string::npos ? std::string() : s.substr(pos, end - pos);
}

}  // namespace

std::string response_signature(const std::string& response) {
  if (response.rfind("{\"ok\":true", 0) != 0) return "";
  // json_quote escapes every '"' inside string values, so these key
  // patterns only match keys of the report schema.
  static const std::string kVerdict = "\"verdict\":\"";
  static const std::string kPacket = "\"packet\":\"";
  std::string sig;
  size_t pos = response.find(kVerdict);
  while (pos != std::string::npos) {
    const size_t next = response.find(kVerdict, pos + kVerdict.size());
    sig += string_at(response, pos + kVerdict.size());
    size_t p = response.find(kPacket, pos);
    while (p != std::string::npos && (next == std::string::npos || p < next)) {
      sig += " " + string_at(response, p + kPacket.size());
      p = response.find(kPacket, p + kPacket.size());
    }
    sig += "\n";
    pos = next;
  }
  return sig;
}

}  // namespace perfbench
