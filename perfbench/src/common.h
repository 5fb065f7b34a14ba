// Shared definitions of the end-to-end ADLP pipeline benchmark: workload
// specifications, the seeded payload generator, clocks, and the small
// statistics and JSON helpers every part of the benchmark uses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/sig.h"

namespace perfbench {

/// Monotonic wall time in nanoseconds (steady_clock).
std::int64_t NowNs();
/// Process CPU time (user + sys, getrusage) in nanoseconds.
std::int64_t ProcessCpuNs();
/// Resident set size now (/proc/self/statm), bytes.
std::int64_t RssBytes();
/// Peak resident set (ru_maxrss), bytes.
std::int64_t PeakRssBytes();
/// Threads: line of /proc/self/status.
int ThreadCount();

/// One workload's fleet and traffic. Every subscriber subscribes to every
/// topic; publisher i owns topics[i]. The generator publishes round-robin
/// over the topics, so publication index p is (topic p % T, seq p / T + 1).
struct WorkloadSpec {
  std::string name;
  adlp::crypto::SigAlgorithm alg = adlp::crypto::SigAlgorithm::kRsaPkcs1Sha256;
  std::vector<std::string> publishers;
  std::vector<std::string> topics;
  std::vector<std::string> subscribers;
  std::size_t payload_bytes = 0;
  /// Open-loop rate, publications per second summed over all topics.
  double rate_hz = 0;
  /// Warm-up rounds (one publication per topic each) during set-up.
  std::size_t warmup_rounds = 0;
  /// Burst-phase rounds, published back to back in burst_parts parts.
  std::size_t burst_rounds = 0;
  std::size_t burst_parts = 0;
  /// Logger replicas behind a ReplicatedLogSink (0 = one in-process logger).
  std::size_t replicas = 0;
  /// LogServerOptions::seal_every of each replica.
  std::uint64_t seal_every = 0;

  std::size_t T() const { return topics.size(); }
  std::size_t S() const { return subscribers.size(); }
};

/// Looks a workload up by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec& out);

/// Payload of (seed, topic, seq): a splitmix64 byte stream, so any copy can
/// be regenerated and compared without keeping the original.
adlp::Bytes MakePayload(std::uint64_t seed, std::size_t topic,
                        std::uint64_t seq, std::size_t size);
/// True when `data` equals MakePayload(seed, topic, seq, size), computed in
/// one pass without materializing the expected bytes.
bool PayloadMatches(std::uint64_t seed, std::size_t topic, std::uint64_t seq,
                    std::size_t size, adlp::BytesView data);

/// Sorted-copy quantile (nearest rank on the sorted samples); 0 when empty.
double Quantile(std::vector<double> samples, double q);
/// Median of `q`-quantiles over consecutive windows of `window` samples
/// (samples in publication order). Steadier than one whole-run tail
/// quantile on a shared machine: a stall in one window moves one window's
/// tail, not the reported value. Falls back to the whole-run quantile when
/// there are fewer than two windows.
double WindowedQuantile(const std::vector<double>& samples, double q,
                        std::size_t window);

/// Minimal JSON object writer for the result line and the span dump.
class Json {
 public:
  Json& Str(const std::string& key, const std::string& value);
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, std::int64_t value);
  Json& Bool(const std::string& key, bool value);
  Json& Raw(const std::string& key, const std::string& raw);
  std::string Done() const { return "{" + body_ + "}"; }
  static std::string Quote(const std::string& s);

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace perfbench
