// Verifier-side helpers shared by check-corpus and serve-mix: per-layer
// metrics from the counters the program exports, and the report signature
// (verdicts and counterexample bytes) that output checks compare.
#pragma once

#include <map>
#include <string>

#include "spec/check.hpp"

namespace perfbench {

struct Options;

// Sums of VerifyStats and verdict counts over check reports.
struct VerifyTotals {
  vsd::verify::VerifyStats s;
  size_t assertions = 0, decided = 0, unknown = 0;

  void add(const vsd::spec::CheckReport& rep);
  double decided_share() const {
    return assertions ? static_cast<double>(decided) / assertions : 0.0;
  }
};

// symbex.*, verify.* and solver conflict/decision/blast counts from
// VerifyStats.
void verify_layers(const VerifyTotals& t, std::map<std::string, double>* out);
// Query counts per avoidance-ladder rung and the stitch/refine/enumerate/
// solve span totals and self times recorded by src/obs, each multiplied by
// `scale`.
void obs_layers(double scale, std::map<std::string, double>* out);

// Verdicts and counterexample bytes of a report, one line per assertion:
// "<verdict> <packet hex>..." — what must not change across cache states,
// passes or transports.
std::string report_signature(const vsd::spec::CheckReport& rep);
// The same signature read back from a serve response (or a `vsd check
// --json` report); "" when the response is not an ok report.
std::string response_signature(const std::string& response);

// check-corpus maintenance: rewrites the pinned expected-verdict file.
bool write_expected(const Options& o);

}  // namespace perfbench
