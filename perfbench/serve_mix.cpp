// serve-mix: an in-process verification daemon (serve::Server) on an
// AF_UNIX socket with a fresh, empty cache directory, driven by three
// closed-loop clients — each waits for its reply before sending the next
// request, as CI jobs do. The request stream is drawn from the seed over the
// committed specs: first submissions, unchanged resubmissions (warm cache
// hits) and one-element argument edits (partial reuse).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "bench_verify.hpp"
#include "bv/expr.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spec/parser.hpp"
#include "testing/generate.hpp"

namespace perfbench {

namespace {

constexpr size_t kRequests = 1200;  // per round
constexpr size_t kClients = 3;
// An untraced run makes at least this many rounds and reads memory after
// them: fixed work, whatever the number of rounds it has time for. Each
// round edits different specs, so memory and the p99 need several rounds
// to repeat from seed to seed.
constexpr size_t kMemoryRounds = 4;
// A spec whose crash_free is Violated with a counterexample: the self-test
// alters the counterexample bytes of its response (--inject cex-bytes).
constexpr const char* kViolatingSpec =
    "pipeline \"UnsafeStrip(14) -> CheckIPHeader -> Discard\";\n"
    "set packet_len = 8;\nset ip_offset = 0;\nassert crash_free;\n";

enum Kind : uint8_t { kFirst, kResubmit, kEdit };

struct Stream {
  std::vector<std::string> texts;
  std::vector<Kind> kinds;
};

// Re-draws the arguments of one pipeline element with the fuzz harness's
// argument synthesis; "" when the draw changed nothing or does not parse.
std::string edit_spec(const std::string& text, vsd::net::Rng& rng) {
  const size_t open = text.find("pipeline \"");
  const size_t close = text.find('"', open + 10);
  if (open == std::string::npos || close == std::string::npos) return "";
  const std::string config = text.substr(open + 10, close - open - 10);
  std::vector<std::string> elems;
  size_t start = 0;
  for (;;) {
    const size_t arrow = config.find("->", start);
    std::string e = config.substr(start, arrow == std::string::npos
                                             ? std::string::npos
                                             : arrow - start);
    e.erase(0, e.find_first_not_of(" \t\n"));
    e.erase(e.find_last_not_of(" \t\n") + 1);
    elems.push_back(e);
    if (arrow == std::string::npos) break;
    start = arrow + 2;
  }
  const size_t k = rng.next_below(elems.size());
  const std::string name = elems[k].substr(0, elems[k].find('('));
  const std::string args = vsd::fuzz::random_element_args(name, rng);
  const std::string edited = args.empty() ? name : name + "(" + args + ")";
  if (edited == elems[k]) return "";
  elems[k] = edited;
  std::string joined;
  for (const std::string& e : elems) joined += (joined.empty() ? "" : " -> ") + e;
  std::string out = text.substr(0, open + 10) + joined + text.substr(close);
  try {
    (void)vsd::spec::parse_spec(out);
  } catch (const std::exception&) {
    return "";
  }
  return out;
}

// The stream of one round: round r of seed s is drawn from (s, r), so each
// round is an independent draw of the same mix.
Stream make_stream(const Options& o, size_t round) {
  auto committed = committed_specs();
  if (committed.empty()) throw std::runtime_error("no committed specs found");
  committed.resize(std::max<size_t>(2, committed.size() * o.size_pct / 100));
  for (const auto& [path, text] : committed) (void)vsd::spec::parse_spec(text);
  vsd::net::Rng rng(o.seed * 0x9e3779b97f4a7c15ull + round);
  std::vector<size_t> pending(committed.size());
  for (size_t i = 0; i < pending.size(); ++i) pending[i] = i;
  for (size_t i = pending.size(); i > 1; --i) {
    std::swap(pending[i - 1], pending[rng.next_below(i)]);
  }
  Stream s;
  std::vector<std::string> sent;
  if (o.inject == "cex-bytes" && round == 0) {
    s.texts.push_back(kViolatingSpec);
    s.kinds.push_back(kFirst);
    sent.push_back(kViolatingSpec);
  }
  // Exact counts, shuffled: every committed spec is submitted once, a
  // fifth of the requests are edits, the rest resubmit an earlier text.
  // Edits cycle through the committed specs, so every seed edits large and
  // small specs alike and only the edited element and arguments vary.
  const size_t n = std::max<size_t>(40, kRequests * o.size_pct / 100);
  std::vector<Kind> kinds(n, kResubmit);
  std::fill(kinds.begin(), kinds.begin() + committed.size(), kFirst);
  std::fill(kinds.begin() + committed.size(),
            kinds.begin() + committed.size() + n / 5, kEdit);
  for (size_t i = n; i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.next_below(i)]);
  }
  if (sent.empty()) {
    std::swap(kinds[0], *std::find(kinds.begin(), kinds.end(), kFirst));
  }
  size_t edit_base = rng.next_below(committed.size());
  for (const Kind kind : kinds) {
    std::string text;
    if (kind == kFirst) {
      text = committed[pending.back()].second;
      pending.pop_back();
    } else if (kind == kEdit) {
      // Not every draw changes a spec (argument-free elements, repeated
      // arguments) or parses (occupancy bounds tied to arguments); a spec
      // with no editable element passes its turn to the next.
      for (int tries = 0; text.empty(); ++tries) {
        if (tries == 1000) throw std::runtime_error("no editable spec");
        if (tries % 16 == 15) ++edit_base;
        text = edit_spec(committed[edit_base % committed.size()].second, rng);
      }
      ++edit_base;
    } else {
      text = sent[rng.next_below(sent.size())];
    }
    if (kind != kResubmit) sent.push_back(text);
    s.texts.push_back(std::move(text));
    s.kinds.push_back(kind);
  }
  return s;
}

bool accepts(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool ok =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  ::close(fd);
  return ok;
}

// Constructs and starts a daemon on a fresh cache directory; returns the
// seconds from construction until its socket accepts a connection.
double start_server(std::unique_ptr<vsd::serve::Server>* srv,
                    const std::string& dir) {
  std::filesystem::create_directories(dir);
  srv->reset();  // the previous daemon's teardown is not set-up
  vsd::serve::ServeOptions so;
  so.socket_path = dir + "/s.sock";
  so.cache_dir = dir + "/cache";
  so.jobs = 1;
  const double t0 = now_s();
  *srv = std::make_unique<vsd::serve::Server>(so);
  std::string err;
  if (!(*srv)->start(&err)) throw std::runtime_error("serve: " + err);
  while (!accepts(so.socket_path)) {
  }
  return now_s() - t0;
}

struct CacheTotals {
  uint64_t a_hit = 0, a_miss = 0, d_hit = 0, d_miss = 0, r_hit = 0,
           r_miss = 0, corrupt = 0, errors = 0;
  void add(const vsd::cache::VerdictCache::Counters& c) {
    a_hit += c.assertion_hits;
    a_miss += c.assertion_misses;
    d_hit += c.decision_hits;
    d_miss += c.decision_misses;
    r_hit += c.refine_hits;
    r_miss += c.refine_misses;
    corrupt += c.disk.corrupt;
  }
};

// Cache-less reference signatures of every distinct text, on kClients
// threads.
std::map<std::string, std::string> reference_signatures(
    const std::vector<std::string>& texts) {
  std::vector<std::string> distinct;
  {
    std::map<std::string, bool> seen;
    for (const std::string& t : texts) {
      if (seen.emplace(t, true).second) distinct.push_back(t);
    }
  }
  std::vector<std::string> sig(distinct.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t c = 0; c < kClients; ++c) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < distinct.size();) {
        vsd::spec::CheckOptions opts;
        opts.jobs = 1;
        sig[i] = report_signature(
            vsd::spec::check_spec(vsd::spec::parse_spec(distinct[i]), opts));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::map<std::string, std::string> out;
  for (size_t i = 0; i < distinct.size(); ++i) out[distinct[i]] = sig[i];
  return out;
}

}  // namespace

Phase run_serve_mix(const Options& o, double seconds, bool traced) {
  Phase ph;
  const Stream stream = make_stream(o, 0);
  const std::string base = scratch_dir() + (traced ? "/serve-traced" : "/serve");

  // Set-up: Server construction until the socket accepts, on a fresh cache
  // directory. Median of kSetupRepeats daemons; the last one serves the
  // first round.
  std::vector<double> setup;
  std::unique_ptr<vsd::serve::Server> srv;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (srv) srv->stop();
    setup.push_back(start_server(&srv, base + "/setup" + std::to_string(r)));
  }
  const double rss_setup = rss_mb();
  const size_t nodes_setup = vsd::bv::interned_node_count();
  // A traced run halves its time between an untraced and a traced phase,
  // so both phases are bound by time alone.
  const size_t min_rounds = o.trace ? 1 : kMemoryRounds;
  double rss_rounds = 0.0, peak = 0.0;

  if (traced) {
    vsd::obs::reset();
    vsd::obs::enable(true);
  }
  std::vector<double> lat;
  double busy_s = 0.0;
  std::vector<std::string> responses, sent;
  CacheTotals cache;
  size_t rounds = 0;
  const double t_start = now_s();
  do {
    const Stream round_stream = rounds == 0 ? stream : make_stream(o, rounds);
    const std::vector<std::string>& texts = round_stream.texts;
    const size_t n = texts.size();
    if (rounds > 0) {
      start_server(&srv, base + "/round" + std::to_string(rounds));
    }
    const std::string sock = srv->options().socket_path;
    std::vector<double> round_lat(n);
    std::vector<std::string> round_resp(n);
    std::atomic<size_t> next{0};
    const double r0 = now_s();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < n;) {
          const std::string req =
              vsd::serve::make_request(std::to_string(i), texts[i], SIZE_MAX);
          std::string resp, err;
          const double t0 = now_s();
          const bool ok = vsd::serve::submit_line(sock, req, &resp, &err);
          round_lat[i] = now_s() - t0;
          round_resp[i] = ok ? std::move(resp) : "error: " + err;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    busy_s += now_s() - r0;
    lat.insert(lat.end(), round_lat.begin(), round_lat.end());
    cache.add(srv->cache().counters());
    cache.errors += srv->stats().errors;
    srv->stop();
    if (rounds + 1 == min_rounds) {
      rss_rounds = rss_mb();
      peak = peak_rss_mb();
    }
    sent.insert(sent.end(), texts.begin(), texts.end());
    for (std::string& r : round_resp) responses.push_back(std::move(r));
    ++rounds;
  } while (now_s() - t_start < seconds || rounds < min_rounds);
  std::map<std::string, double> obs_round;
  if (traced) {
    obs_layers(1.0 / static_cast<double>(rounds), &obs_round);
    vsd::obs::enable(false);
  }

  // --- output checks (outside the timed window): each response's verdicts
  // and counterexample bytes against a cache-less check_spec ------------------
  if (o.inject == "cex-bytes") {
    for (std::string& r : responses) {
      const size_t at = r.find("\"packet\":\"");
      if (at == std::string::npos) continue;
      char& c = r[at + 10];
      c = c == '0' ? '1' : '0';
      break;
    }
  }
  const auto want = reference_signatures(sent);
  std::vector<std::string> failures;
  size_t decided = 0, assertions = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const std::string& text = sent[i];
    const std::string got = response_signature(responses[i]);
    if (got.empty() || got != want.at(text)) {
      ++ph.failed;
      if (failures.size() < 5) {
        failures.push_back(
            fmt("request %zu: ", i) +
            (got.empty() ? responses[i].substr(0, 160)
                         : "verdicts or counterexample bytes differ from "
                           "check_spec"));
      }
    }
    // One signature line per assertion, starting with its verdict name.
    size_t line = 0;
    for (size_t nl; (nl = got.find('\n', line)) != std::string::npos;
         line = nl + 1) {
      ++assertions;
      if (got.compare(line, 7, "unknown") != 0) ++decided;
    }
  }
  ph.attempted = responses.size();

  size_t firsts = 0, edits = 0;
  for (Kind k : stream.kinds) {
    firsts += k == kFirst;
    edits += k == kEdit;
  }
  const double p50 = quantile(lat, 0.5) * 1e3;
  // The tail is p99.5: the request mix puts a handful of very slow
  // requests per round (cold edits of the slowest committed spec) right at
  // p99, where their count from seed to seed moves the figure by half;
  // p99.5 sits inside that class and still has over 20 requests beyond it.
  const double p99 = quantile(lat, 0.995) * 1e3;
  ph.e2e["setup_s"] = median(setup);
  ph.e2e["op_p50_ms"] = p50;
  ph.e2e["op_tail_ms"] = p99;
  ph.e2e["ops_per_s"] = static_cast<double>(lat.size()) / busy_s;
  ph.e2e["peak_rss_mb"] = peak;
  ph.notes.push_back(fmt("first round: %zu requests (%zu first "
                         "submissions, %zu edits, %zu resubmits), %zu "
                         "clients, %zu rounds",
                         stream.texts.size(), firsts, edits,
                         stream.texts.size() - firsts - edits, kClients,
                         rounds));
  ph.notes.push_back(fmt("req_p50_ms %.3f ms, req_p99_ms %.3f ms, "
                         "req_p99.5_ms %.3f ms (n=%zu), req_per_s %.2f 1/s",
                         p50, quantile(lat, 0.99) * 1e3, p99, lat.size(),
                         ph.e2e["ops_per_s"]));
  ph.notes.push_back(fmt("decided_share %.4f ratio (%zu of %zu), peak_rss_mb "
                         "%.1f MB, rss_growth_mb %.1f MB (first %zu rounds)",
                         ratio(decided, assertions), decided, assertions, peak,
                         rss_rounds - rss_setup, min_rounds));
  ph.notes.push_back(fmt("failed_share %.4f ratio (%llu of %llu)",
                         ratio(ph.failed, ph.attempted),
                         static_cast<unsigned long long>(ph.failed),
                         static_cast<unsigned long long>(ph.attempted)));
  for (const std::string& f : failures) ph.notes.push_back("FAIL " + f);

  if (traced) {
    auto& L = ph.layer;
    L = obs_round;
    L["cache.assertion_hit_ratio"] = ratio(cache.a_hit, cache.a_hit + cache.a_miss);
    L["cache.decision_hit_ratio"] = ratio(cache.d_hit, cache.d_hit + cache.d_miss);
    L["cache.refine_hit_ratio"] = ratio(cache.r_hit, cache.r_hit + cache.r_miss);
    L["cache.disk_corrupt"] = static_cast<double>(cache.corrupt);
    L["serve.errors"] = static_cast<double>(cache.errors);
    L["bv.interned_nodes"] = static_cast<double>(vsd::bv::interned_node_count());
    L["bv.interned_nodes_growth"] =
        static_cast<double>(vsd::bv::interned_node_count()) -
        static_cast<double>(nodes_setup);
    L["mem.rss_growth_mb"] = rss_rounds - rss_setup;
    L["verify.decided_share"] = ratio(decided, assertions);

    // The same stream through process_request in-process, on one thread
    // with a fresh cache: server-side time without the socket, and the
    // single-lane obs spans that self times need.
    const std::string dir = base + "/inproc";
    std::filesystem::create_directories(dir);
    vsd::cache::VerdictCache vc(dir + "/cache");
    vsd::verify::SummaryCaches shared;
    std::vector<double> proc;
    SpanLog spans;
    double parse_s = 0.0;
    vsd::obs::reset();
    vsd::obs::enable(true);
    for (size_t i = 0; i < stream.texts.size(); ++i) {
      const std::string req = vsd::serve::make_request(
          std::to_string(i), stream.texts[i], SIZE_MAX);
      const double t0 = now_s();
      (void)vsd::spec::parse_spec(stream.texts[i]);
      const double t1 = now_s();
      (void)vsd::serve::process_request(req.substr(0, req.size() - 1), 1, &vc,
                                        &shared);
      const double t2 = now_s();
      parse_s += t1 - t0;
      proc.push_back(t2 - t1);
      spans.add("serve.process", 0, i, t1, t2);
    }
    vsd::obs::enable(false);
    std::map<std::string, double> replay;
    obs_layers(1.0, &replay);
    for (const auto& [k, v] : replay) {
      if (k.rfind("self.", 0) == 0) L[k] = v;
    }
    L["spec.parse_ms"] = parse_s * 1e3;
    L["serve.process_p50_ms"] = quantile(proc, 0.5) * 1e3;
    L["serve.transport_p50_ms"] = p50 - L["serve.process_p50_ms"];
    spans.write_json(scratch_dir() + "/../serve-mix-spans.json");
  }
  return ph;
}

}  // namespace perfbench
