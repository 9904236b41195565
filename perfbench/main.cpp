// vsd_perfbench --workload <check-corpus|serve-mix|forward> --seed N
//               --seconds S --trace <0|1> [--size-pct P] [--inject F]
//               [--write-expected]
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) spend the first
// half of the time untraced and the second half traced, and report the
// per-layer metrics plus the tracing overhead (traced minus untraced) of
// every end-to-end timing.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "bench_verify.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"op_p50_ms", "ms"},     {"op_tail_ms", "ms"},
    {"ops_per_s", "1/s"},     {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"spec.parse_ms", "ms"},
    {"symbex.summarize_ms", "ms"},
    {"symbex.segments", "count"},
    {"symbex.forks", "count"},
    {"symbex.instructions", "count"},
    {"verify.check_ms", "ms"},
    {"verify.stitch_ms", "ms"},
    {"verify.refine_ms", "ms"},
    {"verify.enumerate_ms", "ms"},
    {"verify.composed_paths", "count"},
    {"verify.suspect_elim_ratio", "ratio"},
    {"verify.refinements", "count"},
    {"verify.refine_certified_ratio", "ratio"},
    {"verify.summary_hit_ratio", "ratio"},
    {"verify.unknown", "count"},
    {"verify.decided_share", "ratio"},
    {"solver.queries", "count"},
    {"solver.core_queries", "count"},
    {"solver.core_share", "ratio"},
    {"solver.conflicts", "count"},
    {"solver.decisions", "count"},
    {"solver.blast_nodes", "count"},
    {"solver.rung.cheap", "count"},
    {"solver.rung.cache", "count"},
    {"solver.rung.rewrite", "count"},
    {"solver.rung.exhaustion", "count"},
    {"solver.rung.core-grouping", "count"},
    {"solver.rung.cex-cache", "count"},
    {"solver.rung.slicing", "count"},
    {"solver.rung.incremental", "count"},
    {"solver.rung.cdcl", "count"},
    {"solver.solve_ms", "ms"},
    {"self.spec_ms", "ms"},
    {"self.summarize_ms", "ms"},
    {"self.stitch_ms", "ms"},
    {"self.solve_ms", "ms"},
    {"self.refine_ms", "ms"},
    {"self.enumerate_ms", "ms"},
    {"self.phase_ms", "ms"},
    {"cache.assertion_hit_ratio", "ratio"},
    {"cache.decision_hit_ratio", "ratio"},
    {"cache.refine_hit_ratio", "ratio"},
    {"cache.disk_corrupt", "count"},
    {"serve.process_p50_ms", "ms"},
    {"serve.transport_p50_ms", "ms"},
    {"serve.errors", "count"},
    {"bv.interned_nodes", "count"},
    {"bv.interned_nodes_growth", "count"},
    {"mem.rss_growth_mb", "MB"},
    {"backend.compile_ms", "ms"},
    {"backend.instr_per_pkt", "count"},
    {"backend.ns_per_instr", "ns"},
    {"interp.ns_per_pkt", "ns"},
    {"pipeline.delivered_share", "ratio"},
    {"pipeline.dropped_share", "ratio"},
    {"gen.specs", "count"},
    {"gen.verdict_p50_ms", "ms"},
    {"gen.verdict_p90_ms", "ms"},
    {"gen.verdict_max_ms", "ms"},
    {"gen.specs_per_s", "1/s"},
    {"gen.decided_share", "ratio"},
    {"gen.tail_specs", "count"},
    {"gen.tail_refine_share", "ratio"},
    {"gen.refinements", "count"},
    {"trace.dropped_events", "count"},
    {"overhead.setup_s", "s"},
    {"overhead.op_p50_ms", "ms"},
    {"overhead.op_tail_ms", "ms"},
    {"overhead.ops_per_s", "1/s"},
};

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "vsd_perfbench: %s\nusage: vsd_perfbench --workload "
               "<check-corpus|serve-mix|forward> --seed N --seconds S "
               "--trace <0|1> [--size-pct P] [--inject F] "
               "[--write-expected]\n",
               why);
  std::exit(2);
}

Phase run_phase(const Options& o, double seconds, bool traced) {
  if (o.workload == "check-corpus") return run_check_corpus(o, seconds, traced);
  if (o.workload == "serve-mix") return run_serve_mix(o, seconds, traced);
  return run_forward(o, seconds, traced);
}

void print_metric(std::string* json, bool* first, const MetricDef& m,
                  double v) {
  *json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               *first ? "" : ", ", m.name, v, m.unit);
  *first = false;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool write_exp = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0)) usage("bad --seconds");
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("bad --trace");
      o.trace = v == "1";
    } else if (a == "--size-pct") {
      const std::string v = value();
      o.size_pct = static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
      if (v.empty() || *end != '\0' || o.size_pct == 0 || o.size_pct > 100) {
        usage("bad --size-pct");
      }
    } else if (a == "--inject") {
      o.inject = value();
      if (o.inject != "wrong-expected" && o.inject != "cex-bytes") {
        usage("bad --inject");
      }
    } else if (a == "--write-expected") {
      write_exp = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (write_exp) return write_expected(o) ? 0 : 1;
  if (o.workload != "check-corpus" && o.workload != "serve-mix" &&
      o.workload != "forward") {
    usage("unknown --workload");
  }

  Phase base, traced;
  try {
    base = run_phase(o, o.trace ? o.seconds / 2 : o.seconds, false);
    if (o.trace) traced = run_phase(o, o.seconds / 2, true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsd_perfbench: %s\n", e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch_dir(), ec);

  for (const std::string& n : base.notes) std::printf("%s\n", n.c_str());
  std::string json = "{";
  bool first = true;
  if (!o.trace) {
    for (const MetricDef& m : kEndToEnd) {
      print_metric(&json, &first, m, base.e2e.at(m.name));
    }
  } else {
    for (const std::string& n : traced.notes) {
      std::printf("traced: %s\n", n.c_str());
    }
    // Tracing overhead of the timings. Memory has none to report: the
    // traced phase runs second, in the same process.
    for (const MetricDef& m : kEndToEnd) {
      if (std::strcmp(m.name, "peak_rss_mb") == 0) continue;
      traced.layer[std::string("overhead.") + m.name] =
          traced.e2e.at(m.name) - base.e2e.at(m.name);
    }
    for (const MetricDef& m : kPerLayer) {
      const auto it = traced.layer.find(m.name);
      print_metric(&json, &first, m, it == traced.layer.end() ? 0.0 : it->second);
    }
  }
  json += "}";
  const uint64_t attempted = base.attempted + traced.attempted;
  const uint64_t failed = base.failed + traced.failed;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}
