// Shared helpers: clocks, quantiles, process memory, the committed corpus,
// and the two span views (the benchmark's own spans and src/obs's).
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double now_s() {
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double>(clk::now().time_since_epoch()).count();
}

// Linear interpolation between closest ranks (Python's
// statistics.quantiles "inclusive" method).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(uint64_t num, uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string k = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(k, 0) == 0) {
      return std::strtod(line.c_str() + k.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double rss_mb() { return status_kb("VmRSS") / 1024.0; }
double peak_rss_mb() { return status_kb("VmHWM") / 1024.0; }

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::pair<std::string, std::string>> committed_specs() {
  std::vector<std::string> paths;
  for (const char* dir : {"examples", "tests/packs"}) {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec)) {
      if (e.path().extension() == ".vspec") paths.push_back(e.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& p : paths) out.emplace_back(p, read_file(p));
  return out;
}

std::string scratch_dir() {
  const std::string dir = ".bench_build/perfbench-run/" +
                          std::to_string(static_cast<long>(::getpid()));
  fs::create_directories(dir);
  return dir;
}

// --- SpanLog -------------------------------------------------------------------

uint64_t SpanLog::add(const char* name, uint64_t parent, uint64_t op,
                      double start_s, double end_s) {
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, op, name, start_s, end_s});
  return id;
}

std::map<std::string, std::pair<double, double>> SpanLog::totals_ms() const {
  // Children never overlap one another (one thread records them in
  // sequence), so the covered time is the sum of their durations.
  std::vector<double> child_s(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_s[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, std::pair<double, double>> out;
  for (const Span& s : spans_) {
    auto& [total, self] = out[s.name];
    const double d = s.end_s - s.start_s;
    total += d * 1e3;
    self += (d - child_s[s.id]) * 1e3;
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n")
        << fmt("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
               "\"parent\":%llu,\"op\":%llu}}",
               s.name, (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6,
               static_cast<unsigned long long>(s.id),
               static_cast<unsigned long long>(s.parent),
               static_cast<unsigned long long>(s.op));
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- obs spans -----------------------------------------------------------------

std::map<std::string, double> obs_total_ms() {
  std::map<std::string, double> out;
  for (const auto& [key, agg] : vsd::obs::span_aggregate()) {
    out[key.first] += static_cast<double>(agg.total_us) / 1e3;
  }
  return out;
}

std::map<std::string, double> obs_self_ms() {
  std::vector<vsd::obs::SpanEvent> ev = vsd::obs::events_snapshot();
  // Parents start no later than, and outlast, their children: order by
  // (lane, start, longest first) and keep a stack of open spans.
  std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
    if (a.lane != b.lane) return a.lane < b.lane;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  std::map<std::string, double> out;
  std::vector<size_t> open;
  std::vector<double> self_us(ev.size());
  for (size_t i = 0; i < ev.size(); ++i) {
    self_us[i] = static_cast<double>(ev[i].dur_us);
    while (!open.empty()) {
      const auto& p = ev[open.back()];
      if (p.lane == ev[i].lane && ev[i].ts_us < p.ts_us + p.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) self_us[open.back()] -= static_cast<double>(ev[i].dur_us);
    open.push_back(i);
  }
  for (size_t i = 0; i < ev.size(); ++i) {
    out[vsd::obs::cat_name(ev[i].cat)] += std::max(0.0, self_us[i]) / 1e3;
  }
  return out;
}

}  // namespace perfbench
