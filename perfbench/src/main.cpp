// adlp_pipeline — one run of the end-to-end ADLP benchmark.
//
//   adlp_pipeline --workload image|control|ledger --seed N --seconds S
//                 --trace 0|1 [--spans FILE] [--fault hide|corrupt|swallow|lag]
//
// Prints "check <name> <failing>" lines on stderr and, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which also
// writes the span dump to --spans). --fault is for the negative self-test.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "checks.h"
#include "common.h"
#include "metrics.h"
#include "pipeline.h"
#include "spans.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: adlp_pipeline --workload image|control|ledger --seed N "
               "--seconds S --trace 0|1 [--spans FILE] "
               "[--fault hide|corrupt|swallow|lag]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start_ns = NowNs();
  WorkloadSpec spec;
  RunOptions options;
  std::string workload, spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--fault") {
      if (!ParseFault(value, options.fault)) return Usage();
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !FindWorkload(workload, spec) ||
      !(options.seconds > 0)) {
    return Usage();
  }

  try {
    Pipeline p(spec, options);
    p.main_start_ns = start_ns;
    p.Setup();
    const double setup_s = static_cast<double>(p.setup_end_ns - start_ns) / 1e9;
    std::int64_t mark = NowNs();
    auto phase = [&](const char* name) {
      const std::int64_t now = NowNs();
      std::fprintf(stderr, "phase %s %.3f s\n", name,
                   static_cast<double>(now - mark) / 1e9);
      mark = now;
    };
    p.OpenLoop();
    phase("open_loop");
    p.Burst();
    phase("burst");
    p.Drain();
    phase("drain");
    p.OfflineAudit();
    phase("offline_audit");
    const double peak_rss_mb = static_cast<double>(PeakRssBytes()) / 1e6;
    if (options.fault == Fault::kCorrupt) {
      p.primary().CorruptRecordForTest(p.primary().EntryCount() / 2);
    }

    for (std::size_t rep = 0; rep < p.audit_spans.size(); ++rep) {
      auto ms = [](const std::pair<std::int64_t, std::int64_t>& span) {
        return static_cast<double>(span.second - span.first) / 1e6;
      };
      std::fprintf(stderr, "audit rep %zu: fetch %.1f ms, build %.1f ms, audit %.1f ms\n",
                   rep, ms(p.fetch_spans[rep]), ms(p.db_spans[rep]),
                   ms(p.audit_spans[rep]));
    }
    for (const auto& b : p.burst_parts) {
      std::fprintf(stderr, "burst part %zu tx in %.3f s\n",
                   (b.last - b.first) * spec.S(),
                   static_cast<double>(b.end - b.start) / 1e9);
    }
    const CheckOutcome checks = RunChecks(p);
    phase("checks");
    for (const auto& line : checks.lines) {
      std::fprintf(stderr, "check %s\n", line.c_str());
    }

    std::vector<Metric> metrics;
    if (options.trace) {
      metrics = LayerMetrics(p);
      const std::vector<Span> spans = BuildSpans(p);
      const auto self_us = SelfTimesUs(spans);
      if (!spans_path.empty() && !WriteSpanDump(spans_path, p, spans, self_us)) {
        std::fprintf(stderr, "cannot write span dump %s\n", spans_path.c_str());
        return 1;
      }
      for (const auto& [name, us] : self_us) {
        std::fprintf(stderr, "self_time %s %.3f us\n", name.c_str(), us);
      }
    } else {
      metrics = EndToEndMetrics(p, setup_s, peak_rss_mb);
    }

    Json m;
    for (const auto& metric : metrics) {
      m.Raw(metric.name,
            Json().Num("value", metric.value).Str("unit", metric.unit).Done());
    }
    const std::string line =
        Json()
            .Bool("correct", checks.correct)
            .Int("attempted", static_cast<std::int64_t>(checks.attempted))
            .Int("failed", static_cast<std::int64_t>(checks.failed))
            .Raw("metrics", m.Done())
            .Done();
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adlp_pipeline: %s\n", e.what());
    return 1;
  }
  return 0;
}
