#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::int64_t RssBytes() {
  std::ifstream in("/proc/self/statm");
  std::int64_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

std::int64_t PeakRssBytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

bool FindWorkload(const std::string& name, WorkloadSpec& out) {
  using adlp::crypto::SigAlgorithm;
  WorkloadSpec w;
  w.name = name;
  if (name == "image") {
    // Fig. 11(b) camera path: 921,641-B frames at 20 Hz to the lane
    // detector and the sign recognizer.
    w.publishers = {"camera"};
    w.topics = {"/camera/image"};
    w.subscribers = {"lane_detector", "sign_recognizer"};
    w.payload_bytes = 921'641;
    w.rate_hz = 20;
    w.warmup_rounds = 2;
    w.burst_rounds = 80;
    w.burst_parts = 8;
  } else if (name == "control") {
    // Steering-size messages fanned out to one subscriber per core.
    w.publishers = {"controller"};
    w.topics = {"/control/steering"};
    w.subscribers = {"actuator_0", "actuator_1", "actuator_2", "actuator_3"};
    w.payload_bytes = 20;
    w.rate_hz = 400;
    w.warmup_rounds = 20;
    w.burst_rounds = 4000;
    w.burst_parts = 8;
  } else if (name == "ledger") {
    // Ed25519 fleet logging to three replicas with quorum commit.
    w.alg = SigAlgorithm::kEd25519;
    w.publishers = {"ledger_pub_0", "ledger_pub_1"};
    w.topics = {"/ledger/a", "/ledger/b"};
    w.subscribers = {"ledger_sub_0", "ledger_sub_1"};
    w.payload_bytes = 64;
    w.rate_hz = 400;
    w.warmup_rounds = 20;
    w.burst_rounds = 4000;
    w.burst_parts = 8;
    w.replicas = 3;
    w.seal_every = 8192;
  } else {
    return false;
  }
  out = std::move(w);
  return true;
}

namespace {

std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t StreamState(std::uint64_t seed, std::size_t topic,
                          std::uint64_t seq) {
  std::uint64_t s = seed * 0x100000001b3ull ^ (topic + 1) * 0x9e3779b1ull;
  s ^= seq * 0xc2b2ae3d27d4eb4full;
  (void)SplitMix(s);
  return s;
}

}  // namespace

adlp::Bytes MakePayload(std::uint64_t seed, std::size_t topic,
                        std::uint64_t seq, std::size_t size) {
  adlp::Bytes out(size);
  std::uint64_t state = StreamState(seed, topic, seq);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t word = SplitMix(state);
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < size) {
    const std::uint64_t word = SplitMix(state);
    std::memcpy(out.data() + i, &word, size - i);
  }
  return out;
}

bool PayloadMatches(std::uint64_t seed, std::size_t topic, std::uint64_t seq,
                    std::size_t size, adlp::BytesView data) {
  if (data.size() != size) return false;
  std::uint64_t state = StreamState(seed, topic, seq);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t word = SplitMix(state);
    if (std::memcmp(data.data() + i, &word, 8) != 0) return false;
  }
  if (i < size) {
    const std::uint64_t word = SplitMix(state);
    if (std::memcmp(data.data() + i, &word, size - i) != 0) return false;
  }
  return true;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  return samples[static_cast<std::size_t>(std::llround(rank))];
}

double WindowedQuantile(const std::vector<double>& samples, double q,
                        std::size_t window) {
  const std::size_t windows = window == 0 ? 0 : samples.size() / window;
  if (windows < 2) return Quantile(samples, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    // The last window absorbs the remainder.
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Quantile(std::vector<double>(first, last), q));
  }
  return Quantile(per_window, 0.5);
}

std::string Json::Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += Quote(key) + ": ";
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += Quote(value);
  return *this;
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

Json& Json::Int(const std::string& key, std::int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& raw) {
  Key(key);
  body_ += raw;
  return *this;
}

}  // namespace perfbench
