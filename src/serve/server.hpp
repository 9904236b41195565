// Verification-as-a-service: a local AF_UNIX daemon that accepts vspec
// jobs as newline-delimited JSON and answers with the `vsd check --json`
// report schema. All requests share one persistent VerdictCache and one
// set of in-memory element-summary caches, so a resubmission — or a spec
// that differs in one element — reuses every verdict the change does not
// reach.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/verdict_cache.hpp"
#include "verify/decomposed.hpp"

namespace vsd::serve {

struct ServeOptions {
  // Filesystem path of the AF_UNIX listening socket. The server takes
  // ownership of the path: a stale file from a crashed daemon is
  // replaced, and stop() removes it.
  std::string socket_path;
  // On-disk verdict store ("" = cache lives only in this process).
  std::string cache_dir;
  // Default "jobs" per request (a request's own field wins). Passed to
  // CheckOptions::jobs, which has no effect: a request starts no threads.
  size_t jobs = 1;
  // Requests longer than this are answered with an error and the
  // connection is closed — a malformed client cannot balloon the daemon.
  size_t max_request_bytes = 4u << 20;
};

struct ServeStats {
  uint64_t requests = 0;  // well-formed jobs verified
  uint64_t errors = 0;    // malformed/oversized/failed requests
};

// Parses one request line and runs it against the shared caches; returns
// the response JSON (no trailing newline). Never throws: every failure
// becomes an {"ok":false,...} response. Exposed for tests and the
// in-process throughput bench; `cache`/`shared` may be used concurrently.
std::string process_request(const std::string& line, size_t default_jobs,
                            cache::VerdictCache* cache,
                            verify::SummaryCaches* shared);

class Server {
 public:
  explicit Server(const ServeOptions& opts);
  ~Server();  // calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket and starts the accept loop. On failure returns
  // false with a one-line reason in *error (no thread started).
  bool start(std::string* error);

  // Stops accepting, drains in-flight requests (each connection finishes
  // the job it is verifying), joins all threads, unlinks the socket.
  // Idempotent. The cache directory is left behind, warm for the next
  // daemon.
  void stop();

  const ServeOptions& options() const { return opts_; }
  ServeStats stats() const;
  cache::VerdictCache& cache() { return cache_; }

 private:
  void accept_loop();
  void handle_connection(int fd);

  ServeOptions opts_;
  cache::VerdictCache cache_;
  verify::SummaryCaches shared_caches_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  mutable std::mutex stats_mu_;
  ServeStats stats_;
};

}  // namespace vsd::serve
