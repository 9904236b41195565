// forward: the examples/ip_router.vspec chain — the chain the verifier
// proves — parsed and lowered, forwarding seeded traffic through
// Pipeline::process on the compiled engine. The verifier does no work here.
// Three workers forward in parallel, each through its own instance of the
// chain, as an SMP software router spreads flows over cores.
//
// Traffic: 90% well-formed frames to routed destinations (drawn from the
// chain's IPLookup prefixes through WorkloadConfig::dst_pool), 5% carrying
// IP options (the IPOptions loop) and 5% with corrupted headers (mostly the
// drop path).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "elements/registry.hpp"
#include "net/workload.hpp"
#include "pipeline/pipeline.hpp"
#include "spec/parser.hpp"

namespace perfbench {

namespace {

constexpr const char* kSpecPath = "examples/ip_router.vspec";
constexpr size_t kPackets = 8192;  // distinct packets, streamed repeatedly
constexpr size_t kBatch = 1024;    // packets between checks of the clock
// Forwarding workers: one core per worker on a four-core host, the fourth
// left to the set-up measurements and the rest of the system. On a shared
// host the aggregate also reads steadier than one core does, whose speed
// wanders with whatever shares its physical core.
constexpr size_t kWorkers = 3;
// Per-packet latencies are kept as a histogram of 1-ns bins; the last bin
// holds everything slower. A packet is the timed operation: a stall of the
// shared host (a preempted worker) delays one packet in thousands, so it
// cannot move the per-packet p99 as it moves the p99 of a batch's time.
constexpr size_t kHistBins = 1 << 16;
// While the workers run, the idle core parses and lowers the chain once per
// this interval; set-up is the median of those samples, so it covers the
// host's states over the whole run rather than one moment of it.
constexpr double kSetupEvery_s = 0.1;

// Destinations inside every prefix of the chain's IPLookup route table.
std::vector<uint32_t> routed_destinations(const std::string& config,
                                          vsd::net::Rng& rng) {
  std::vector<uint32_t> pool;
  const size_t open = config.find("IPLookup(");
  const size_t close = config.find(')', open);
  if (open == std::string::npos || close == std::string::npos) return pool;
  std::string routes = config.substr(open + 9, close - open - 9) + ",";
  size_t start = 0;
  for (size_t comma; (comma = routes.find(',', start)) != std::string::npos;
       start = comma + 1) {
    std::string r = routes.substr(start, comma - start);
    r.erase(0, r.find_first_not_of(" \t\n"));
    const size_t slash = r.find('/');
    if (slash == std::string::npos) continue;
    const uint32_t prefix = vsd::net::parse_ipv4(r.substr(0, slash));
    const unsigned len = static_cast<unsigned>(std::stoul(r.substr(slash + 1)));
    const uint32_t host_mask = len >= 32 ? 0 : (0xffffffffu >> len);
    for (int k = 0; k < 16; ++k) {
      pool.push_back((prefix & ~host_mask) |
                     (static_cast<uint32_t>(rng.next()) & host_mask));
    }
  }
  return pool;
}

std::vector<vsd::net::Packet> make_traffic(const std::string& config,
                                           const Options& o, size_t* options,
                                           size_t* malformed) {
  vsd::net::Rng rng(o.seed);
  vsd::net::WorkloadConfig wc;
  wc.dst_pool = routed_destinations(config, rng);
  if (wc.dst_pool.empty()) throw std::runtime_error("no routes in " + config);
  const size_t n = std::max<size_t>(kBatch, kPackets * o.size_pct / 100);
  wc.count = n;
  wc.seed = rng.next();
  wc.traffic = vsd::net::TrafficClass::WellFormed;
  const auto plain = vsd::net::generate_workload(wc);
  wc.seed = rng.next();
  wc.traffic = vsd::net::TrafficClass::WithIpOptions;
  const auto opts = vsd::net::generate_workload(wc);
  wc.seed = rng.next();
  wc.traffic = vsd::net::TrafficClass::MalformedHeader;
  const auto bad = vsd::net::generate_workload(wc);
  std::vector<vsd::net::Packet> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = rng.next_below(100);
    if (r < 90) {
      out.push_back(plain[i]);
    } else if (r < 95) {
      out.push_back(opts[i]);
      ++*options;
    } else {
      out.push_back(bad[i]);
      ++*malformed;
    }
  }
  return out;
}

// Quantile q of a latency histogram of 1-ns bins, in ns. The samples of a
// bin are taken as spread evenly over it.
double hist_quantile(const std::vector<uint64_t>& hist, double q) {
  uint64_t total = 0;
  for (uint64_t c : hist) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < hist.size(); ++b) {
    if (static_cast<double>(below + hist[b]) > rank) {
      return static_cast<double>(b) +
             (rank - static_cast<double>(below) + 0.5) /
                 static_cast<double>(hist[b]);
    }
    below += hist[b];
  }
  return static_cast<double>(hist.size());
}

// One forwarding worker: its own chain instance and its own counts.
struct Worker {
  vsd::pipeline::Pipeline pl;
  std::vector<std::pair<double, double>> batches;  // start, end (seconds)
  // Per-packet latency in ns (copy into the buffer plus process): the time
  // between the timestamps taken after consecutive packets.
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> streamed;  // times each distinct packet was sent
  uint64_t packets = 0, delivered = 0, dropped = 0, instructions = 0;

  void run(const std::vector<vsd::net::Packet>& traffic, size_t first,
           double t_start, double seconds) {
    using clk = std::chrono::steady_clock;
    streamed.assign(traffic.size(), 0);
    latency_ns.assign(kHistBins, 0);
    size_t next = first;
    // One buffer refilled per packet, as a NIC ring slot would be: copying
    // into it reuses its storage instead of allocating.
    vsd::net::Packet p;
    do {
      const double t0 = now_s();
      clk::time_point prev = clk::now();
      for (size_t k = 0; k < kBatch; ++k) {
        p = traffic[next];
        ++streamed[next];
        const vsd::pipeline::PipelineResult r = pl.process(p);
        delivered += r.action == vsd::pipeline::FinalAction::Delivered;
        dropped += r.action == vsd::pipeline::FinalAction::Dropped;
        instructions += r.instructions;
        if (++next == traffic.size()) next = 0;
        const clk::time_point t = clk::now();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t - prev).count();
        const size_t bin =
            std::min<size_t>(static_cast<size_t>(ns), kHistBins - 1);
        ++latency_ns[bin];
        prev = t;
      }
      batches.emplace_back(t0, now_s());
      packets += kBatch;
    } while (now_s() - t_start < seconds);
  }
};

bool same_result(const vsd::pipeline::PipelineResult& a,
                 const vsd::net::Packet& pa,
                 const vsd::pipeline::PipelineResult& b,
                 const vsd::net::Packet& pb) {
  if (a.action != b.action || a.exit_element != b.exit_element) return false;
  if (a.action == vsd::pipeline::FinalAction::Delivered &&
      a.exit_port != b.exit_port) {
    return false;
  }
  if (a.action == vsd::pipeline::FinalAction::Trapped && a.trap != b.trap) {
    return false;
  }
  const auto ba = pa.bytes();
  const auto bb = pb.bytes();
  return std::equal(ba.begin(), ba.end(), bb.begin(), bb.end());
}

}  // namespace

Phase run_forward(const Options& o, double seconds, bool traced) {
  Phase ph;
  const std::string config =
      vsd::spec::parse_spec(read_file(kSpecPath)).pipeline_config;
  size_t n_options = 0, n_malformed = 0;
  const std::vector<vsd::net::Packet> traffic =
      make_traffic(config, o, &n_options, &n_malformed);

  std::vector<Worker> workers(kWorkers);
  for (Worker& w : workers) {
    w.pl = vsd::elements::parse_pipeline(config);
    w.pl.set_engine(vsd::pipeline::Engine::Compiled);
  }

  std::vector<double> setup;
  const double t_start = now_s();
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kWorkers; ++i) {
      threads.emplace_back([&, i] {
        workers[i].run(traffic, i * traffic.size() / kWorkers, t_start,
                       seconds);
      });
    }
    // Set-up: parse and lowering of the chain (element programs and their
    // threaded code), sampled every kSetupEvery_s on the idle core.
    do {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kSetupEvery_s));
      const double t0 = now_s();
      (void)vsd::elements::parse_pipeline(config);
      setup.push_back(now_s() - t0);
    } while (now_s() - t_start < seconds - kSetupEvery_s);
    for (std::thread& t : threads) t.join();
  }
  const double wall_s = now_s() - t_start;
  const double peak = peak_rss_mb();
  SpanLog spans;
  std::vector<uint64_t> latency_ns(kHistBins, 0);
  std::vector<uint64_t> streamed(traffic.size(), 0);
  uint64_t packets = 0, delivered = 0, dropped = 0, instructions = 0;
  double busy_s = 0.0;
  for (size_t i = 0; i < kWorkers; ++i) {
    const Worker& w = workers[i];
    for (const auto& [t0, t1] : w.batches) {
      busy_s += t1 - t0;
      if (traced) spans.add("forward.batch", 0, i, t0, t1);
    }
    for (size_t k = 0; k < streamed.size(); ++k) streamed[k] += w.streamed[k];
    for (size_t b = 0; b < kHistBins; ++b) latency_ns[b] += w.latency_ns[b];
    packets += w.packets;
    delivered += w.delivered;
    dropped += w.dropped;
    instructions += w.instructions;
  }

  // --- output checks: every packet's action, port and bytes against the
  // interpreter (outside the timed window) ------------------------------------
  vsd::pipeline::Pipeline ref = vsd::elements::parse_pipeline(config);
  ref.set_engine(vsd::pipeline::Engine::Interp);
  vsd::pipeline::Pipeline fresh = vsd::elements::parse_pipeline(config);
  fresh.set_engine(vsd::pipeline::Engine::Compiled);
  uint64_t expect_delivered = 0;
  size_t mismatched = 0;
  for (size_t i = 0; i < traffic.size(); ++i) {
    vsd::net::Packet a = traffic[i], b = traffic[i];
    const auto ra = ref.process(a);
    const auto rb = fresh.process(b);
    const bool ok = same_result(ra, a, rb, b);
    if (!ok) {
      ph.failed += streamed[i];
      ++mismatched;
    }
    if (ra.action == vsd::pipeline::FinalAction::Delivered) {
      expect_delivered += streamed[i];
    }
  }
  ph.attempted = packets;
  if (delivered != expect_delivered) {
    ph.failed += delivered > expect_delivered ? delivered - expect_delivered
                                              : expect_delivered - delivered;
  }

  const double p50 = hist_quantile(latency_ns, 0.5) * 1e-6;
  const double p99 = hist_quantile(latency_ns, 0.99) * 1e-6;
  const double pps = static_cast<double>(packets) / wall_s;
  ph.e2e["setup_s"] = median(setup);
  ph.e2e["op_p50_ms"] = p50;
  ph.e2e["op_tail_ms"] = p99;
  ph.e2e["ops_per_s"] = pps;
  ph.e2e["peak_rss_mb"] = peak;
  const double n = static_cast<double>(traffic.size());
  ph.notes.push_back(fmt("traffic: %zu distinct packets: %.1f%% routed "
                         "well-formed, %.1f%% IP options, %.1f%% malformed",
                         traffic.size(),
                         100.0 * (n - n_options - n_malformed) / n,
                         100.0 * n_options / n, 100.0 * n_malformed / n));
  ph.notes.push_back(fmt("mpps %.4f Mpkt/s on %zu workers (%.4f per worker); "
                         "per packet: p50 %.1f ns, p99 %.1f ns (n=%llu, "
                         "%llu slower than %zu ns); set-up %.1f us "
                         "(median of %zu)",
                         pps / 1e6, kWorkers, pps / 1e6 / kWorkers, p50 * 1e6,
                         p99 * 1e6,
                         static_cast<unsigned long long>(packets),
                         static_cast<unsigned long long>(latency_ns.back()),
                         kHistBins - 1, median(setup) * 1e6, setup.size()));
  ph.notes.push_back(fmt("delivered %.2f%%, dropped %.2f%%; peak_rss_mb %.1f "
                         "MB; failed_share %.6f ratio (%zu distinct packets "
                         "differ from the interpreter)",
                         100.0 * delivered / packets,
                         100.0 * dropped / packets, peak,
                         double(ph.failed) / double(ph.attempted), mismatched));

  if (traced) {
    auto& L = ph.layer;
    const double instr_per_pkt =
        static_cast<double>(instructions) / static_cast<double>(packets);
    L["backend.compile_ms"] = median(setup) * 1e3;
    L["backend.instr_per_pkt"] = instr_per_pkt;
    L["backend.ns_per_instr"] = busy_s * 1e9 / packets / instr_per_pkt;
    L["pipeline.delivered_share"] = static_cast<double>(delivered) / packets;
    L["pipeline.dropped_share"] = static_cast<double>(dropped) / packets;
    // The reference engine on the same traffic, on one core, for a quarter
    // of the time.
    uint64_t interp_pkts = 0;
    const double i0 = now_s();
    do {
      for (const vsd::net::Packet& in : traffic) {
        vsd::net::Packet p = in;
        (void)ref.process(p);
      }
      interp_pkts += traffic.size();
    } while (now_s() - i0 < seconds / 4);
    L["interp.ns_per_pkt"] = (now_s() - i0) * 1e9 / interp_pkts;
    spans.write_json(scratch_dir() + "/../forward-spans.json");
  }
  return ph;
}

}  // namespace perfbench
