// The repository benchmark: three workloads over the public API of the
// verifier, the verification daemon and the concrete backend.
//
//   check-corpus  cold `vsd check` of the committed specs, plus specs
//                 generated from the seed in a traced run (spec, symbex,
//                 verify, solver)
//   serve-mix     three closed-loop clients against an in-process daemon
//                 on an AF_UNIX socket (serve, cache)
//   forward       the ip_router chain forwarding seeded traffic on the
//                 compiled engine, three workers (pipeline, backend, interp)
//
// Every workload reports the same end-to-end metrics (kEndToEnd) and, in a
// traced run, the same per-layer metrics (kPerLayer); a layer a workload
// does not exercise reports 0. Output checks run outside the timed window.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Size of the inputs in percent of the nominal size. The self-test runs
  // at a tiny size; measured runs always use 100.
  unsigned size_pct = 100;
  // Self-test fault injection: "" (none), "wrong-expected" (check-corpus
  // flips one pinned expected verdict) or "cex-bytes" (serve-mix alters
  // the counterexample bytes of one daemon response).
  std::string inject;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, in BENCHMARK.json order. Per workload:
//   setup_s      median of kSetupRepeats set-ups (defined per workload)
//                before the timed work; forward instead samples one every
//                100 ms on the idle core while its workers run
//   op_p50_ms    check-corpus: time per spec from parse_spec to the last
//                verdict; serve-mix: request latency at the client;
//                forward: latency per packet (copy into the buffer and
//                Pipeline::process)
//   op_tail_ms   the same at p90 (check-corpus), p99.5 (serve-mix) or p99
//                (forward)
//   ops_per_s    specs, requests or packets completed per second
//   peak_rss_mb  peak resident set after a fixed amount of work
// check-corpus reads each spec's time from its quiet passes, because the
// host's speed wanders (see corpus.cpp).
extern const std::vector<MetricDef> kEndToEnd;
// Per-layer metrics, in BENCHMARK.json order (traced runs only).
extern const std::vector<MetricDef> kPerLayer;

// One measured phase of a workload (a run is one untraced phase, or an
// untraced and a traced phase when tracing).
struct Phase {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;  // filled only when traced
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Human-readable lines printed before the JSON result, with the
  // workload-specific names of the end-to-end metrics.
  std::vector<std::string> notes;
};

// Runs one workload phase for about `seconds` seconds of timed work.
Phase run_check_corpus(const Options& o, double seconds, bool traced);
Phase run_serve_mix(const Options& o, double seconds, bool traced);
Phase run_forward(const Options& o, double seconds, bool traced);

// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupRepeats = 41;

// --- shared helpers (trace.cpp) ---------------------------------------------

double now_s();  // steady clock, seconds
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double ratio(uint64_t num, uint64_t den);  // 0 when den is 0
double rss_mb();       // current resident set (VmRSS)
double peak_rss_mb();  // peak resident set of the process (VmHWM)
std::string fmt(const char* f, ...);
std::string read_file(const std::string& path);
// The committed spec corpus: examples/*.vspec then tests/packs/*.vspec,
// sorted by path. Empty when the checkout has none.
std::vector<std::pair<std::string, std::string>> committed_specs();
// Scratch directory of this run inside the checkout (created on demand).
std::string scratch_dir();

// The benchmark's own spans, kept in memory and written once at the end of
// a traced run. Spans of one operation (spec, request, batch) share `op`.
class SpanLog {
 public:
  // Returns the span id; parent 0 = root.
  uint64_t add(const char* name, uint64_t parent, uint64_t op, double start_s,
               double end_s);
  // Total and self time (total minus the time covered by child spans) per
  // span name, in milliseconds.
  std::map<std::string, std::pair<double, double>> totals_ms() const;
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    uint64_t id, parent, op;
    const char* name;
    double start_s, end_s;
  };
  std::vector<Span> spans_;
};

// Self time per obs span category (summarize, stitch, solve, refine,
// enumerate, phase) from the spans src/obs recorded: a span's duration
// minus the time covered by spans nested in it on the same lane. Valid
// only when the traced work ran on one thread per lane.
std::map<std::string, double> obs_self_ms();
// Total time per obs span category, in milliseconds.
std::map<std::string, double> obs_total_ms();

}  // namespace perfbench
