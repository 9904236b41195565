// Daemon lifecycle and protocol tests for `vsd serve`.
//
// The contract under test: every line the daemon reads — well-formed,
// malformed, oversized, or torn mid-write — produces exactly one JSON
// response (or a counted error on disconnect) and never takes the daemon
// down; stop() drains in-flight work; and the verdict-cache directory a
// stopped daemon leaves behind fully warms its successor. Reports are
// compared against direct check_spec() output after stripping timing and
// work counters, which are the only fields allowed to differ.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spec/check.hpp"
#include "spec/parser.hpp"
#include "spec/report_json.hpp"
#include "verify/decomposed.hpp"

namespace vsd::serve {
namespace {

namespace fs = std::filesystem;

const char* kProvenSpec =
    "pipeline \"Classifier -> EthDecap -> CheckIPHeader\n"
    "          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1)\n"
    "          -> DecIPTTL -> EthEncap\";\n"
    "set packet_len = 64;\n"
    "assert crash_free;\n"
    "assert never(drop) when wellformed_checksummed && ip.dst == 10.1.2.3;\n";

const char* kViolatedSpec =
    "pipeline \"Classifier -> EthDecap -> CheckIPHeader\n"
    "          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1)\n"
    "          -> DecIPTTL -> EthEncap\";\n"
    "set packet_len = 64;\n"
    "assert never(drop) when wellformed_checksummed && ip.dst == 8.8.8.8;\n";

// Strips the fields that legitimately differ between runs (timing, work
// counters, cache traffic); everything else must match byte-for-byte.
std::string normalized(std::string s) {
  s = std::regex_replace(s, std::regex(R"("seconds":[0-9.eE+-]+)"),
                         "\"seconds\":0");
  s = std::regex_replace(s, std::regex(R"("stats":\{[^}]*\})"),
                         "\"stats\":{}");
  s = std::regex_replace(s, std::regex(R"("cache_hits":[0-9]+)"),
                         "\"cache_hits\":0");
  s = std::regex_replace(s, std::regex(R"("cache_misses":[0-9]+)"),
                         "\"cache_misses\":0");
  s = std::regex_replace(s, std::regex(R"("cache":\{[^}]*\})"),
                         "\"cache\":{}");
  return s;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = fs::temp_directory_path() /
            ("vsd_serve_" + std::to_string(::getpid()) + "_" + info->name());
    fs::remove_all(base_);
    fs::create_directories(base_);
    // sun_path is ~108 bytes: keep the socket name short and flat.
    socket_ = "/tmp/vsd_st_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++) + ".sock";
  }
  void TearDown() override {
    fs::remove_all(base_);
    ::unlink(socket_.c_str());
  }

  // A raw client for fault injection: sends `bytes` as-is, optionally
  // closing without finishing a line.
  int raw_connect() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  fs::path base_;
  std::string socket_;
  static int counter_;
};

int ServeTest::counter_ = 0;

// --- process_request (the daemon's whole request path, in-process) --------------

TEST_F(ServeTest, ProcessRequestMatchesDirectCheckSpec) {
  cache::VerdictCache cache("");  // disabled store: pure in-memory
  verify::SummaryCaches shared;
  const std::string resp = process_request(
      "{\"id\":\"t1\",\"spec\":" + spec::json_quote(kProvenSpec) + "}", 1,
      &cache, &shared);
  EXPECT_EQ(resp.rfind("{\"ok\":true,\"id\":\"t1\",", 0), 0u) << resp;
  // The embedded report is the `vsd check --json` schema, produced by the
  // same serializer the CLI uses — recompute it directly and compare.
  const spec::SpecFile spec = spec::parse_spec(kProvenSpec);
  const spec::CheckReport rep = spec::check_spec(spec, {});
  const std::string direct = spec::spec_report_json("<request>", spec, rep);
  const size_t at = resp.find("\"report\":");
  ASSERT_NE(at, std::string::npos);
  const std::string embedded =
      resp.substr(at + 9, resp.find(",\"cache_hits\":") - at - 9);
  EXPECT_EQ(normalized(embedded), normalized(direct));
}

TEST_F(ServeTest, HugeJobsIsAnsweredNormally) {
  // A request's "jobs" is accepted and has no effect: check_spec starts no
  // threads, so no request line can make the daemon start 100000 of them.
  cache::VerdictCache cache("");
  verify::SummaryCaches shared;
  const std::string resp = process_request(
      "{\"id\":\"big\",\"spec\":" + spec::json_quote(kProvenSpec) +
          ",\"jobs\":100000}",
      1, &cache, &shared);
  EXPECT_EQ(resp.rfind("{\"ok\":true,\"id\":\"big\",", 0), 0u) << resp;
  EXPECT_NE(resp.find("\"ok\":true,\"passed\":2"), std::string::npos) << resp;
  const spec::SpecFile spec = spec::parse_spec(kProvenSpec);
  const std::string direct = spec::spec_report_json(
      "<request>", spec, spec::check_spec(spec, {}));
  const size_t at = resp.find("\"report\":");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(normalized(resp.substr(at + 9, resp.find(",\"cache_hits\":") -
                                               at - 9)),
            normalized(direct));
}

TEST_F(ServeTest, ProcessRequestRejectsBadInputsWithoutThrowing) {
  cache::VerdictCache cache("");
  verify::SummaryCaches shared;
  const auto err = [&](const std::string& line) {
    const std::string r = process_request(line, 1, &cache, &shared);
    EXPECT_EQ(r.rfind("{\"ok\":false,", 0), 0u) << r;
    return r;
  };
  err("");
  err("not json");
  err("[1,2,3]");
  err("{\"spec\":42}");                        // wrong type
  err("{\"jobs\":1}");                          // missing spec
  err("{\"spec\":\"x\",\"unknown\":1}");        // unknown key
  err("{\"spec\":\"pipeline \\\"Nope\\\";\"}");  // parse error surfaces
  err("{\"spec\":\"\"} trailing");               // trailing bytes
  // The request id (when parseable) is echoed back on errors.
  const std::string r =
      process_request("{\"id\":\"e9\",\"spec\":17}", 1, &cache, &shared);
  EXPECT_NE(r.find("\"id\":\"e9\""), std::string::npos) << r;
}

// --- Daemon lifecycle -----------------------------------------------------------

TEST_F(ServeTest, StartFailsCleanlyOnBadSocketPath) {
  ServeOptions opts;
  opts.socket_path = (base_ / "missing-subdir" / "d.sock").string();
  Server server(opts);
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_FALSE(error.empty());
  ServeOptions too_long;
  too_long.socket_path = "/tmp/" + std::string(200, 'x');
  Server server2(too_long);
  EXPECT_FALSE(server2.start(&error));
}

TEST_F(ServeTest, ConcurrentClientsWithMixedJobsAllGetAnswers) {
  ServeOptions opts;
  opts.socket_path = socket_;
  opts.cache_dir = (base_ / "cache").string();
  Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kClients = 6;
  std::vector<std::string> responses(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const bool violated = i % 2 == 1;
      const std::string req =
          make_request("c" + std::to_string(i),
                       violated ? kViolatedSpec : kProvenSpec,
                       i % 3 == 0 ? 8 : SIZE_MAX);
      submit_line(socket_, req, &responses[i], &errors[i]);
    });
  }
  for (auto& c : clients) c.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(responses[i].empty()) << errors[i];
    EXPECT_EQ(responses[i].rfind("{\"ok\":true,", 0), 0u) << responses[i];
    EXPECT_NE(responses[i].find("\"id\":\"c" + std::to_string(i) + "\""),
              std::string::npos);
    const bool violated = i % 2 == 1;
    EXPECT_NE(responses[i].find(violated ? "\"ok\":false,\"passed\":0"
                                         : "\"ok\":true,\"passed\":2"),
              std::string::npos)
        << responses[i];
  }
  server.stop();
  EXPECT_EQ(server.stats().requests, static_cast<uint64_t>(kClients));
  EXPECT_EQ(server.stats().errors, 0u);
}

TEST_F(ServeTest, MalformedOversizedAndTornRequestsDoNotKillTheDaemon) {
  ServeOptions opts;
  opts.socket_path = socket_;
  opts.max_request_bytes = 512;
  Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Malformed JSON: an error response, connection stays serviceable.
  std::string resp;
  ASSERT_TRUE(submit_line(socket_, "this is not json\n", &resp, &error))
      << error;
  EXPECT_EQ(resp.rfind("{\"ok\":false,", 0), 0u) << resp;

  // Oversized request: refused without reading it all.
  ASSERT_TRUE(submit_line(socket_,
                          "{\"spec\":\"" + std::string(1024, 'a') + "\"}\n",
                          &resp, &error))
      << error;
  EXPECT_NE(resp.find("request exceeds"), std::string::npos) << resp;

  // Mid-write disconnect: half a request, then close. Counted as an error;
  // the daemon must keep serving.
  {
    const int fd = raw_connect();
    ASSERT_GE(fd, 0);
    const char* half = "{\"spec\":\"pipel";
    ASSERT_GT(::send(fd, half, std::strlen(half), MSG_NOSIGNAL), 0);
    ::close(fd);
  }

  // Still alive and correct after all three faults.
  ASSERT_TRUE(submit_line(socket_, make_request("ok", kProvenSpec, SIZE_MAX),
                          &resp, &error))
      << error;
  EXPECT_EQ(resp.rfind("{\"ok\":true,", 0), 0u) << resp;

  server.stop();
  EXPECT_GE(server.stats().errors, 3u);
  EXPECT_GE(server.stats().requests, 1u);
}

TEST_F(ServeTest, StopDrainsAndLeavesAWarmCacheForTheNextDaemon) {
  const std::string cache_dir = (base_ / "persist").string();
  std::string cold_resp, error;
  {
    ServeOptions opts;
    opts.socket_path = socket_;
    opts.cache_dir = cache_dir;
    Server server(opts);
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_TRUE(submit_line(socket_,
                            make_request("", kProvenSpec, SIZE_MAX),
                            &cold_resp, &error))
        << error;
    server.stop();
    server.stop();  // idempotent
    EXPECT_FALSE(fs::exists(socket_)) << "stop() must unlink the socket";
  }
  ASSERT_TRUE(fs::exists(cache_dir)) << "cache must survive the daemon";

  // A successor daemon on the same directory answers warm: cache hits on
  // the resubmission, byte-identical verdict material.
  ServeOptions opts;
  opts.socket_path = socket_;
  opts.cache_dir = cache_dir;
  Server server(opts);
  ASSERT_TRUE(server.start(&error)) << error;
  std::string warm_resp;
  ASSERT_TRUE(submit_line(socket_, make_request("", kProvenSpec, SIZE_MAX),
                          &warm_resp, &error))
      << error;
  server.stop();
  EXPECT_EQ(normalized(warm_resp), normalized(cold_resp));
  EXPECT_NE(warm_resp.find("\"cache_hits\":2"), std::string::npos)
      << warm_resp;
  EXPECT_NE(warm_resp.find("\"cache_misses\":0"), std::string::npos)
      << warm_resp;
}

TEST_F(ServeTest, StaleSocketFileFromACrashedDaemonIsReplaced) {
  // Simulate a crash leftover: a dead socket file at the path.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    ::close(fd);  // file stays behind, nobody listening
  }
  ASSERT_TRUE(fs::exists(socket_));
  ServeOptions opts;
  opts.socket_path = socket_;
  Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::string resp;
  ASSERT_TRUE(submit_line(socket_, make_request("", kProvenSpec, SIZE_MAX),
                          &resp, &error))
      << error;
  EXPECT_EQ(resp.rfind("{\"ok\":true,", 0), 0u) << resp;
  server.stop();
}

}  // namespace
}  // namespace vsd::serve
