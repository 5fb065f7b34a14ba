// The benchmark's reported metrics: end-to-end figures of an untraced run
// and per-layer figures of a traced run (see README.md for definitions and
// the end-to-end metric each layer metric should move).
#pragma once

#include <string>
#include <vector>

#include "pipeline.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::vector<Metric> EndToEndMetrics(Pipeline& p, double setup_s,
                                     double peak_rss_mb);

/// Includes direct calls into the crypto layer with the workload's own key
/// and payloads; run after the pipeline so they do not disturb it.
std::vector<Metric> LayerMetrics(Pipeline& p);

}  // namespace perfbench
