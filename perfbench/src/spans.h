// Spans of a traced run, built after the run from the pipeline's timestamp
// arrays and written as JSON lines. Every transmission span is keyed by the
// ADLP pair key (publisher, topic, seq) plus the subscriber, the key the
// audit verdicts carry, so the dump joins spans to verdicts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pipeline.h"

namespace perfbench {

struct Span {
  std::string name;
  std::string parent;        // empty for roots
  std::int64_t pub = -1;     // publication index; -1 for run-level spans
  int sub = -1;              // subscriber index; -1 for publication spans
  int side = -1;             // kPubSide / kSubSide for log spans
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Spans of every traced publication plus the run-level audit spans.
std::vector<Span> BuildSpans(const Pipeline& p);

/// Median self time (duration minus the part its children cover) per span
/// name, microseconds.
std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans);

/// Writes spans, the batch verdicts of traced publications and the
/// self-time summary to `path` (JSON lines). False when it cannot write.
bool WriteSpanDump(const std::string& path, const Pipeline& p,
                   const std::vector<Span>& spans,
                   const std::map<std::string, double>& self_us);

}  // namespace perfbench
