// Per-element property-pack corpus (tests/packs/<Element>.vspec).
//
// Every registry element ships with a checked-in vspec pack: crash
// freedom, a reachability contract, occupancy bounds where the element is
// stateful, and predicated variants — the spec-driven regression corpus
// the ROADMAP asked for. Packs are generated once from the curated plans
// below (`vsd fuzz --emit-packs tests/packs`), hand-tuned as elements
// evolve, and pinned green forever by the tier-1 `pack_check` ctest
// (`vsd fuzz --check-packs tests/packs`), which also fails when an element
// gains no pack or a pack matches no element.
#pragma once

#include <string>
#include <vector>

namespace vsd::fuzz {

struct PackPlan {
  std::string element;  // registry name; the pack file is <element>.vspec
  std::string comment;  // one-line contract description for the header
  std::string config;   // pipeline the pack verifies the element inside
  size_t packet_len = 64;
  size_t ip_offset = 14;
  // "name = predicate" let-bindings, in order.
  std::vector<std::string> lets;
  // Full assertion statements ("assert crash_free;").
  std::vector<std::string> asserts;
};

// The curated plan per builtin registry element, sorted by element name.
std::vector<PackPlan> pack_plans();

// Renders one plan as the .vspec file contents.
std::string render_pack(const PackPlan& plan);

// Writes <dir>/<element>.vspec for every plan. Returns the file count.
size_t write_packs(const std::string& dir);

struct PackCheckResult {
  bool ok = false;
  // Human-readable per-pack lines plus any coverage/assertion problems.
  std::vector<std::string> lines;
};

// Verifies the checked-in corpus: every registered element has a pack,
// every pack file names a registered element, and every assertion of every
// pack passes under the spec checker.
PackCheckResult check_packs(const std::string& dir);

}  // namespace vsd::fuzz
