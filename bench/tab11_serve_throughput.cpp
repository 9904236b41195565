// TAB11 — verification-as-a-service: serve throughput and the warm
// verdict cache.
//
// Three measurements around `vsd serve` and `--cache-dir`:
//
//   1. Daemon throughput (jobs/sec) at N concurrent clients over a real
//      AF_UNIX socket, cold (first submission fills the cache) vs warm
//      (every later submission replays assertion-level hits).
//   2. The headline warm-resubmission claim: resubmit the §1 router spec
//      with ONE element changed (an IPLookup route edited) against the
//      cold run's cache and count the queries that still reach the CDCL
//      core. Path-local cache keys mean only decisions whose path crosses
//      the edited element re-derive; with --assert-improvement <percent>
//      the bench exits 1 unless the reduction meets the floor (the CI
//      perf-smoke gate).
//   3. A cold-vs-warm determinism matrix over {incremental,one-shot},
//      byte-comparing verdicts and counterexample packets of cached runs
//      (cold and warm) against the cache-less reference — a wrong cache
//      hit cannot hide behind timing.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cache/verdict_cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spec/check.hpp"
#include "spec/parser.hpp"
#include "verify/decomposed.hpp"

using namespace vsd;

namespace {

namespace fs = std::filesystem;

// The §1 router chain, inlined (hermetic — the bench must not depend on
// the examples/ tree). `kEditedSpec` differs in exactly one element: the
// 172.16/12 route now exits port 1 instead of 0.
const char* kRouterSpec = R"(
pipeline "Classifier -> EthDecap -> CheckIPHeader
          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0)
          -> DecIPTTL -> IPOptions -> EthEncap";
set packet_len = 64;
let to_net10 = wellformed_checksummed && ip.dst == 10.1.2.3;
assert crash_free;
assert instructions <= 4000;
assert reachable(output 0) when to_net10;
assert never(drop) when to_net10;
)";

const char* kEditedSpec = R"(
pipeline "Classifier -> EthDecap -> CheckIPHeader
          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 1)
          -> DecIPTTL -> IPOptions -> EthEncap";
set packet_len = 64;
let to_net10 = wellformed_checksummed && ip.dst == 10.1.2.3;
assert crash_free;
assert instructions <= 4000;
assert reachable(output 0) when to_net10;
assert never(drop) when to_net10;
)";

// Violated variant for the determinism matrix: warm counterexample bytes
// must match the cache-less ones exactly.
const char* kViolatedSpec = R"(
pipeline "Classifier -> EthDecap -> CheckIPHeader
          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0)
          -> DecIPTTL -> IPOptions -> EthEncap";
set packet_len = 64;
assert never(drop) when wellformed_checksummed && ip.dst == 8.8.8.8;
)";

std::string fresh_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("vsd_tab11_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

// Everything output-visible about a report: verdicts, details, bounds, and
// raw counterexample bytes. Stats and timing are excluded by construction.
std::string report_fingerprint(const spec::CheckReport& rep) {
  std::string fp;
  for (const spec::AssertionOutcome& o : rep.outcomes) {
    fp += o.text + "=" + std::to_string(static_cast<int>(o.verdict)) + "|" +
          o.detail + "|" + std::to_string(o.max_instructions);
    for (const verify::Counterexample& ce : o.counterexamples) {
      fp += "|ce:" + ce.packet.hex(96);
      for (const uint32_t m : ce.packet.all_meta()) {
        fp += "." + std::to_string(m);
      }
      for (const std::string& e : ce.element_path) fp += ">" + e;
    }
    for (const std::string& r : o.replays) fp += "|rp:" + r;
    fp += "\n";
  }
  return fp;
}

uint64_t total_sat_solves(const spec::CheckReport& rep) {
  uint64_t total = 0;
  for (const spec::AssertionOutcome& o : rep.outcomes) {
    total += o.stats.sat_solves;
  }
  return total;
}

spec::CheckReport run_check(const char* text, bool incremental,
                            cache::VerdictCache* cache) {
  const spec::SpecFile spec = spec::parse_spec(text);
  spec::CheckOptions opts;
  opts.incremental = incremental;
  opts.cache = cache;
  return spec::check_spec(spec, opts);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args = benchutil::parse_bench_args(argc, argv);
  double assert_improvement = -1.0;  // disabled
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--assert-improvement" && i + 1 < args.size()) {
      assert_improvement = std::stod(args[i + 1]);
      ++i;
    }
  }
  bool ok = true;

  // --- 1. daemon throughput over the socket --------------------------------
  benchutil::section("TAB11: serve throughput (AF_UNIX, persistent cache)");
  std::printf(
      "each client submits the router spec over the socket; the first\n"
      "submission is cold (verifies and fills the cache), everything after\n"
      "replays assertion-level hits — the steady state of a verification\n"
      "service fronting an unchanged pipeline.\n\n");

  benchutil::Table tput({"clients", "requests", "errors", "jobs/sec",
                         "assertion hits", "hit rate", "time"});
  for (const size_t clients : {size_t{1}, size_t{4}, size_t{8}}) {
    const std::string sock = "/tmp/vsd_tab11_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(clients) + ".sock";
    serve::ServeOptions opts;
    opts.socket_path = sock;
    opts.cache_dir = fresh_dir("tput" + std::to_string(clients));
    serve::Server server(opts);
    std::string error;
    if (!server.start(&error)) {
      std::printf("FAIL: cannot start daemon: %s\n", error.c_str());
      return 1;
    }
    // Cold fill (not timed as throughput: it pays real verification).
    std::string resp;
    if (!serve::submit_line(sock,
                            serve::make_request("cold", kRouterSpec, SIZE_MAX),
                            &resp, &error)) {
      std::printf("FAIL: cold submit: %s\n", error.c_str());
      return 1;
    }
    constexpr size_t kPerClient = 8;
    benchutil::Stopwatch sw;
    std::vector<std::thread> threads;
    std::vector<size_t> failures(clients, 0);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < kPerClient; ++i) {
          std::string r, e;
          if (!serve::submit_line(
                  sock, serve::make_request("w", kRouterSpec, SIZE_MAX), &r,
                  &e) ||
              r.rfind("{\"ok\":true,", 0) != 0) {
            ++failures[c];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs = sw.seconds();
    const uint64_t total = clients * kPerClient;
    const cache::VerdictCache::Counters cc = server.cache().counters();
    const serve::ServeStats st = server.stats();
    server.stop();
    size_t failed = 0;
    for (const size_t f : failures) failed += f;
    if (failed != 0) {
      std::printf("FAIL: %zu warm submissions failed\n", failed);
      ok = false;
    }
    const double rate =
        static_cast<double>(cc.assertion_hits) /
        static_cast<double>(cc.assertion_hits + cc.assertion_misses);
    char jobs_s[32], rate_s[32];
    std::snprintf(jobs_s, sizeof jobs_s, "%.1f",
                  static_cast<double>(total) / secs);
    std::snprintf(rate_s, sizeof rate_s, "%.1f%%", 100.0 * rate);
    tput.add_row({benchutil::fmt_u64(clients), benchutil::fmt_u64(st.requests),
                  benchutil::fmt_u64(st.errors), jobs_s,
                  benchutil::fmt_u64(cc.assertion_hits), rate_s,
                  benchutil::fmt_seconds(secs)});
    fs::remove_all(opts.cache_dir);
  }
  tput.print();

  // --- 2. warm resubmission with one element changed ------------------------
  benchutil::section("TAB11: warm resubmission, one element changed");
  std::printf(
      "cold = router spec against an empty cache; warm = the SAME cache, but\n"
      "one IPLookup route's exit port edited. Keys bind only the elements a\n"
      "path actually crosses, so the edit invalidates exactly the decisions\n"
      "it can reach. 'sat solves' counts CDCL-core-reaching queries (one-shot\n"
      "blasts + incremental assumption solves) — scheduling-independent.\n\n");

  const std::string cache_dir = fresh_dir("resubmit");
  uint64_t cold_solves = 0, warm_solves = 0;
  double reduction = 0.0;
  {
    cache::VerdictCache cold_cache(cache_dir);
    benchutil::Stopwatch sw_cold;
    const spec::CheckReport cold = run_check(kRouterSpec, true, &cold_cache);
    const double cold_s = sw_cold.seconds();

    // A fresh VerdictCache on the same directory: a new process would see
    // exactly this (disk entries only, in-memory layer empty).
    cache::VerdictCache warm_cache(cache_dir);
    benchutil::Stopwatch sw_warm;
    const spec::CheckReport warm = run_check(kEditedSpec, true, &warm_cache);
    const double warm_s = sw_warm.seconds();

    // The edited spec verified cache-less: the warm run must agree with it
    // on every output byte (a wrong reused verdict would diverge here).
    const spec::CheckReport ref = run_check(kEditedSpec, true, nullptr);
    if (report_fingerprint(warm) != report_fingerprint(ref)) {
      std::printf("FAIL: warm edited-spec report differs from cache-less\n");
      ok = false;
    }

    cold_solves = total_sat_solves(cold);
    warm_solves = total_sat_solves(warm);
    reduction = cold_solves == 0
                    ? 0.0
                    : 100.0 * (1.0 - static_cast<double>(warm_solves) /
                                         static_cast<double>(cold_solves));
    uint64_t warm_decision_hits = 0;
    for (const spec::AssertionOutcome& o : warm.outcomes) {
      warm_decision_hits += o.stats.decision_cache_hits;
    }
    benchutil::Table t({"run", "spec", "sat solves", "decision hits",
                        "assertion hits", "time"});
    t.add_row({"cold", "router (4 assertions)",
               benchutil::fmt_u64(cold_solves), "-",
               benchutil::fmt_u64(cold.cache_hits),
               benchutil::fmt_seconds(cold_s)});
    char mode[64];
    std::snprintf(mode, sizeof mode, "%s (-%.0f%%)", "one element edited",
                  reduction);
    t.add_row({"warm", mode, benchutil::fmt_u64(warm_solves),
               benchutil::fmt_u64(warm_decision_hits),
               benchutil::fmt_u64(warm.cache_hits),
               benchutil::fmt_seconds(warm_s)});
    t.print();
  }
  if (assert_improvement >= 0.0 && reduction < assert_improvement) {
    std::printf(
        "FAIL: warm resubmission cut core-reaching queries by %.1f%% "
        "(required >= %.1f%%)\n",
        reduction, assert_improvement);
    ok = false;
  }
  fs::remove_all(cache_dir);

  // --- 3. cold-vs-warm determinism matrix -----------------------------------
  benchutil::section("TAB11: cache determinism matrix (byte-identical)");
  benchutil::Table dm({"spec", "cells", "cold-vs-ref", "warm-vs-ref"});
  struct MatrixSpec {
    const char* name;
    const char* text;
  };
  for (const MatrixSpec& ms :
       {MatrixSpec{"router (proven)", kRouterSpec},
        MatrixSpec{"no-route drop (violated)", kViolatedSpec}}) {
    size_t cells = 0;
    bool cold_ok = true, warm_ok = true;
    for (const bool incremental : {true, false}) {
      ++cells;
      const std::string dir =
          fresh_dir(std::string("dm") + (incremental ? "i" : "o"));
      const spec::CheckReport ref = run_check(ms.text, incremental, nullptr);
      cache::VerdictCache cold_cache(dir);
      const spec::CheckReport cold =
          run_check(ms.text, incremental, &cold_cache);
      cache::VerdictCache warm_cache(dir);
      const spec::CheckReport warm =
          run_check(ms.text, incremental, &warm_cache);
      if (report_fingerprint(cold) != report_fingerprint(ref)) {
        std::printf("FAIL: '%s' cold differs at incremental=%d\n", ms.name,
                    incremental ? 1 : 0);
        cold_ok = false;
      }
      if (report_fingerprint(warm) != report_fingerprint(ref)) {
        std::printf("FAIL: '%s' warm differs at incremental=%d\n", ms.name,
                    incremental ? 1 : 0);
        warm_ok = false;
      }
      fs::remove_all(dir);
    }
    dm.add_row({ms.name, benchutil::fmt_u64(cells),
                cold_ok ? "byte-identical" : "MISMATCH",
                warm_ok ? "byte-identical" : "MISMATCH"});
    ok = ok && cold_ok && warm_ok;
  }
  dm.print();

  std::printf(
      "\nexpected shape: warm throughput is bounded by JSON round-trips, not\n"
      "verification — assertion-level hits skip the verifier wholesale. The\n"
      "one-element edit keeps the summarization fork checks and unchanged\n"
      "paths' decisions warm (path-local keys + the solver-level feasibility\n"
      "memo), so only stitched decisions crossing the edited IPLookup pay\n"
      "the CDCL core again.\n");
  return ok ? 0 : 1;
}
