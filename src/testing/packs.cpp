#include "testing/packs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "elements/registry.hpp"
#include "spec/check.hpp"
#include "spec/parser.hpp"

namespace vsd::fuzz {

namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

std::vector<PackPlan> pack_plans() {
  std::vector<PackPlan> plans;
  const auto add = [&plans](PackPlan p) { plans.push_back(std::move(p)); };

  add({"Classifier",
       "dispatches on byte patterns; IPv4 frames go to port 0",
       "Classifier", 64, 14,
       {},
       {"assert crash_free;",
        "assert reachable(output 0) when wellformed;",
        "assert instructions <= 64;"}});

  add({"CheckIPHeader",
       "validates the IPv4 header (checksum included); good packets pass",
       "CheckIPHeader", 48, 0,
       {"good = wellformed_checksummed"},
       {"assert crash_free;", "assert never(drop) when good;",
        "assert reachable(output 0) when good;",
        "assert never(drop) when good && ip.proto == 17;"}});

  add({"Counter",
       "counts packets in private state; occupancy is exactly its slots",
       "Counter", 40, 0,
       {},
       {"assert crash_free;", "assert never(drop);",
        "assert bounded_state <= 2;"}});

  add({"DecIPTTL",
       "decrements TTL and fixes the checksum; wellformed (TTL > 1) "
       "traffic passes on port 0",
       "CheckIPHeader(nochecksum) -> DecIPTTL", 48, 0,
       {"good = wellformed"},
       {"assert crash_free;", "assert never(drop) when good;",
        "assert reachable(output 0) when good;"}});

  add({"Discard",
       "drops every packet, cheaply and safely",
       "Discard", 40, 0,
       {},
       {"assert crash_free;", "assert instructions <= 8;"}});

  add({"EthDecap",
       "strips the 14-byte Ethernet header; never drops full-size frames",
       "EthDecap", 64, 14,
       {},
       {"assert crash_free;", "assert never(drop);",
        "assert reachable(output 0);"}});

  add({"EthEncap",
       "prepends an Ethernet header; forwards everything",
       "EthEncap", 48, 0,
       {},
       {"assert crash_free;", "assert never(drop);",
        "assert reachable(output 0);"}});

  add({"IPFilter",
       "first-match ACL: the deny rule polices SSH only",
       "CheckIPHeader(nochecksum) -> IPFilter(deny tcp port 22; "
       "default allow)",
       48, 0,
       {"udp_ok = wellformed && ip.proto == 17",
        "ephemeral = wellformed && ip.proto == 6 && "
        "tcp.sport in [0x8000, 0xffff] && tcp.dport != 22"},
       {"assert crash_free;", "assert never(drop) when udp_ok;",
        "assert never(drop) when ephemeral;",
        "assert reachable(output 0) when udp_ok;"}});

  add({"IPLookup",
       "longest-prefix-match routing to the matching output port",
       "CheckIPHeader(nochecksum) -> IPLookup(10.0.0.0/8 0, "
       "192.168.0.0/16 1)",
       48, 0,
       {"to_net10 = wellformed && ip.dst == 10.1.2.3",
        "to_lan = wellformed && ip.dst == 192.168.9.9"},
       {"assert crash_free;", "assert never(drop) when to_net10;",
        "assert reachable(output 0) when to_net10;",
        "assert reachable(output 1) when to_lan;"}});

  add({"IPOptions",
       "walks the IP options list (loop-bearing); option-less wellformed "
       "packets pass untouched",
       "CheckIPHeader(nochecksum) -> IPOptions", 48, 0,
       {"good = wellformed"},
       {"assert crash_free;", "assert never(drop) when good;",
        "assert reachable(output 0) when good;"}});

  add({"NAT",
       "source NAT: rewrites TCP/UDP flows, one mapping plus one allocator "
       "slot per flow",
       "CheckIPHeader(nochecksum) -> NAT(192.168.1.1, 10000, 4096)", 48, 0,
       {"natable = wellformed && (ip.proto == 6 || ip.proto == 17)",
        "one_flow = natable && ip.proto == 6 && ip.src == 10.0.0.7 && "
        "tcp.sport == 4242"},
       {"assert crash_free;", "assert never(drop) when natable;",
        "assert flow_occupancy(NAT) <= 2 when one_flow;"}});

  add({"NetFlow",
       "per-(src,dst) flow counters; one pinned flow costs one record",
       "CheckIPHeader(nochecksum) -> NetFlow", 48, 0,
       {"good = wellformed",
        "one_flow = wellformed && ip.src == 10.1.1.1 && ip.dst == 10.2.2.2"},
       {"assert crash_free;", "assert never(drop) when good;",
        "assert flow_occupancy(NetFlow) <= 1 when one_flow;"}});

  add({"Null",
       "passes packets through unchanged",
       "Null", 40, 0,
       {},
       {"assert crash_free;", "assert never(drop);",
        "assert reachable(output 0);", "assert instructions <= 4;"}});

  add({"Paint",
       "writes the paint annotation, forwards everything",
       "Paint(7)", 40, 0,
       {},
       {"assert crash_free;", "assert never(drop);",
        "assert reachable(output 0);"}});

  add({"RateLimiter",
       "per-source token bucket over private state; polices, never crashes",
       "CheckIPHeader(nochecksum) -> RateLimiter(4, 16)", 48, 0,
       {"one_src = wellformed && ip.src == 10.0.0.7"},
       {"assert crash_free;",
        "assert flow_occupancy(RateLimiter) <= 2 when one_src;"}});

  add({"SetIPChecksum",
       "recomputes the IPv4 header checksum in place",
       "CheckIPHeader(nochecksum) -> SetIPChecksum", 48, 0,
       {"good = wellformed"},
       {"assert crash_free;", "assert never(drop) when good;",
        "assert reachable(output 0) when good;"}});

  add({"Strip14",
       "alias of EthDecap: strips 14 bytes off full-size frames safely",
       "Strip14", 64, 14,
       {},
       {"assert crash_free;", "assert never(drop);",
        "assert reachable(output 0);"}});

  add({"ToyE1",
       "Fig. 2 upstream element: clamps negatives, never crashes",
       "ToyE1", 8, 0,
       {},
       {"assert crash_free;", "assert never(drop);",
        "assert reachable(output 0);"}});

  add({"ToyE2",
       "Fig. 2 downstream element: provably safe downstream of E1 (the "
       "paper's composition argument)",
       "ToyE1 -> ToyE2", 8, 0,
       {},
       {"assert crash_free;", "assert reachable(output 0);"}});

  add({"ToyFig1",
       "Fig. 1 toy program: crashes exactly on negative inputs, so it is "
       "crash-free whenever the sign bit (top bit of ip.ver) is clear",
       "ToyFig1", 8, 0,
       {"nonneg = ip.ver in [0, 7]"},
       {"assert crash_free when nonneg;",
        "assert reachable(output 0) when nonneg;",
        "assert instructions <= 32;"}});

  add({"UnsafeStrip",
       "strips 14 bytes WITHOUT a length guard (intentionally buggy): safe "
       "at full packet length, crashes on runts — keep packet_len >= 14",
       "UnsafeStrip", 64, 14,
       {},
       {"assert crash_free;", "assert never(drop);",
        "assert reachable(output 0);"}});

  std::sort(plans.begin(), plans.end(),
            [](const PackPlan& a, const PackPlan& b) {
              return a.element < b.element;
            });
  return plans;
}

std::string render_pack(const PackPlan& plan) {
  std::ostringstream os;
  os << "# " << plan.element << " property pack — generated by `vsd fuzz "
     << "--emit-packs`,\n"
     << "# human-curated, pinned green by the tier-1 `pack_check` ctest.\n"
     << "# Contract: " << plan.comment << ".\n\n"
     << "pipeline \"" << plan.config << "\";\n\n"
     << "set packet_len = " << plan.packet_len << ";\n"
     << "set ip_offset = " << plan.ip_offset << ";\n";
  if (!plan.lets.empty()) {
    os << "\n";
    for (const std::string& l : plan.lets) os << "let " << l << ";\n";
  }
  os << "\n";
  for (const std::string& a : plan.asserts) os << a << "\n";
  return os.str();
}

size_t write_packs(const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  size_t count = 0;
  for (const PackPlan& plan : pack_plans()) {
    std::ofstream out(fs::path(dir) / (plan.element + ".vspec"));
    out << render_pack(plan);
    ++count;
  }
  return count;
}

PackCheckResult check_packs(const std::string& dir) {
  namespace fs = std::filesystem;
  PackCheckResult res;
  res.ok = true;
  const auto problem = [&res](std::string line) {
    res.ok = false;
    res.lines.push_back(std::move(line));
  };

  // Coverage, both directions: every element has a pack, every pack file
  // names an element.
  const std::vector<std::string> elems = elements::registered_elements();
  for (const std::string& name : elems) {
    if (!fs::exists(fs::path(dir) / (name + ".vspec"))) {
      problem("MISSING PACK: element '" + name + "' has no " + dir + "/" +
              name + ".vspec");
    }
  }
  if (fs::is_directory(dir)) {
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      if (e.path().extension() != ".vspec") continue;
      const std::string stem = e.path().stem().string();
      if (std::find(elems.begin(), elems.end(), stem) == elems.end()) {
        problem("STRAY PACK: " + e.path().string() +
                " matches no registered element");
      }
    }
  } else {
    problem("NOT A DIRECTORY: " + dir);
    return res;
  }

  // Every assertion of every present pack must pass.
  const spec::CheckOptions opts;
  for (const std::string& name : elems) {
    const fs::path path = fs::path(dir) / (name + ".vspec");
    if (!fs::exists(path)) continue;
    spec::SpecFile sf;
    try {
      sf = spec::parse_spec(read_file(path));
    } catch (const std::exception& ex) {
      problem(name + ".vspec: parse error: " + ex.what());
      continue;
    }
    const spec::CheckReport rep = spec::check_spec(sf, opts);
    std::ostringstream line;
    line << name << ": " << rep.passed << "/" << rep.outcomes.size()
         << " assertions passed";
    res.lines.push_back(line.str());
    if (!rep.ok) {
      res.ok = false;
      for (const spec::AssertionOutcome& o : rep.outcomes) {
        if (!o.passed) {
          res.lines.push_back("  FAIL " + o.text +
                              (o.detail.empty() ? "" : " — " + o.detail));
        }
      }
    }
  }
  return res;
}

}  // namespace vsd::fuzz
