// Trail replay behind `graphio audit`: checks each recorded record, then
// re-runs the recorded work through fresh BatchSession::serve loops with
// provenance attached — bound records from their `request`, stream records
// from the updates file (a graph's i-th query replays its i-th record) —
// and requires bit-identical rows; a degraded row need only be dominated.
// Kept out of provenance.hpp, which depends only on core, io and support.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graphio/audit/provenance.hpp"
#include "graphio/serve/batch_session.hpp"

namespace graphio::audit {

struct ReplayReport {
  std::int64_t records = 0;     ///< records in the trail
  std::int64_t replayed = 0;    ///< records compared with a fresh run
  std::int64_t issues = 0;      ///< consistency issues, recorded + fresh
  std::int64_t mismatches = 0;  ///< replay mismatches
  std::vector<std::string> messages;  ///< what was found, in order

  [[nodiscard]] bool ok() const { return issues == 0 && mismatches == 0; }
};

/// Replays `records`. `updates` (may be null) is the updates file the stream
/// records came from; `warm_basis_mb` the stream replay's eigenbasis budget.
/// A replay line that fails counts as a mismatch.
[[nodiscard]] ReplayReport replay(
    const std::vector<ProvenanceRecord>& records, std::istream* updates,
    std::int64_t warm_basis_mb = serve::kStreamWarmBasisMb);

}  // namespace graphio::audit
