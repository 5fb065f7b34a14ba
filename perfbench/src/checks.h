// Correctness checks of one run, made apart from the program: payloads are
// regenerated from the seed, SHA-256 and the RFC 6962 Merkle root come from
// OpenSSL's libcrypto, and the program's counters are compared with the
// benchmark's own tallies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline.h"

namespace perfbench {

/// Why a transmission failed (bit set).
enum FailBit : std::uint8_t {
  kFailDelivery = 1,  // not delivered exactly once, in order, right bytes
  kFailLogged = 2,    // a logger/replica lacks exactly one entry per side
  kFailDigest = 4,    // an entry's hash disagrees with the independent one
  kFailStore = 8,     // a stored record is not its entry's serialization
  kFailAudit = 16,    // the batch audit did not find the pair valid
};

struct CheckOutcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Run-level checks (Merkle root, convergence, replica check, audit
  /// blame, streaming equals batch, counters); true when all passed.
  bool correct = true;
  /// One line per check: "<name> <failing count>".
  std::vector<std::string> lines;
};

CheckOutcome RunChecks(Pipeline& p);

}  // namespace perfbench
