#include "metrics.h"

#include <algorithm>
#include <functional>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sig.h"

namespace perfbench {

using namespace adlp;

namespace {

/// Tail quantile `q` of latency samples in publication order, as the median
/// over windows of consecutive transmissions (see WindowedQuantile): windows
/// of 500, or of an eighth of the run (at least 50) when the run has fewer
/// than 4,000 samples.
double TailMs(const std::vector<double>& samples, double q) {
  return WindowedQuantile(samples, q,
                          std::clamp<std::size_t>(samples.size() / 8, 50, 500));
}

/// Per open-loop transmission, in publication order, of `fn(pub, tx)`;
/// samples for which `fn` returns a negative value are skipped.
std::vector<double> OpenSamples(
    const Pipeline& p, const std::function<double(std::size_t, std::size_t)>& fn,
    int traced = -1) {
  std::vector<double> out;
  for (std::size_t pub = p.phases().OpenBegin(); pub < p.phases().BurstBegin();
       ++pub) {
    if (traced >= 0 && p.Traced(pub) != (traced == 1)) continue;
    for (std::size_t s = 0; s < p.spec().S(); ++s) {
      const double v = fn(pub, p.Tx(pub, s));
      if (v >= 0) out.push_back(v);
    }
  }
  return out;
}

double DeliverMs(const Pipeline& p, std::size_t pub, std::size_t tx) {
  const std::int64_t t = p.deliver_ns.Get(tx);
  return t == 0 ? -1 : static_cast<double>(t - p.intended[pub]) / 1e6;
}

double LoggedMs(const Pipeline& p, std::size_t pub, std::size_t tx) {
  const std::int64_t a = p.durable_ns.Get(Pipeline::Slot(tx, kPubSide));
  const std::int64_t b = p.durable_ns.Get(Pipeline::Slot(tx, kSubSide));
  if (a == 0 || b == 0) return -1;
  return static_cast<double>(std::max(a, b) - p.intended[pub]) / 1e6;
}

/// Median over traced (transmission, side) slots of `to - from`, µs.
double SlotMedianUs(const Pipeline& p, const Stamps& from, const Stamps& to,
                    int only_side = -1) {
  std::vector<double> v;
  for (std::size_t pub = p.phases().OpenBegin(); pub < p.phases().BurstBegin();
       ++pub) {
    if (!p.Traced(pub)) continue;
    for (std::size_t s = 0; s < p.spec().S(); ++s) {
      for (const int side : {kPubSide, kSubSide}) {
        if (only_side >= 0 && side != only_side) continue;
        const std::size_t slot = Pipeline::Slot(p.Tx(pub, s), side);
        const std::int64_t a = from.Get(slot), b = to.Get(slot);
        if (a != 0 && b != 0 && b >= a) {
          v.push_back(static_cast<double>(b - a) / 1e3);
        }
      }
    }
  }
  return Quantile(v, 0.5);
}

/// Median of a program histogram's samples recorded between two snapshots,
/// interpolated within its bucket, in the histogram's unit.
double HistogramMedian(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after,
                       const std::string& name) {
  auto find = [&](const obs::MetricsSnapshot& snap)
      -> const obs::Histogram::Snapshot* {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return &h.data;
    }
    return nullptr;
  };
  const auto* a = find(before);
  const auto* b = find(after);
  if (b == nullptr) return 0;
  std::vector<std::uint64_t> counts = b->counts;
  if (a != nullptr && a->counts.size() == counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] -= a->counts[i];
  }
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0;
  const double half = static_cast<double>(total) / 2;
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (seen + c >= half && c > 0) {
      if (i >= b->bounds.size()) return static_cast<double>(b->bounds.back());
      const double lo = i == 0 ? 0 : static_cast<double>(b->bounds[i - 1]);
      const double hi = static_cast<double>(b->bounds[i]);
      return lo + (hi - lo) * (half - seen) / c;
    }
    seen += c;
  }
  return 0;
}

std::uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after,
                           const std::string& name, const std::string& dir) {
  auto sum = [&](const obs::MetricsSnapshot& snap) {
    std::uint64_t total = 0;
    for (const auto& c : snap.counters) {
      if (c.name != name) continue;
      for (const auto& [k, v] : c.labels) {
        if (k == "dir" && v == dir) total += c.value;
      }
    }
    return total;
  };
  return sum(after) - sum(before);
}

/// Median wall time of `fn` in µs over repeated calls (at least
/// `min_calls`, then until `budget_ms` is spent).
double MedianCallUs(const std::function<void()>& fn, int min_calls,
                    double budget_ms) {
  std::vector<double> v;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(budget_ms * 1e6);
  while (static_cast<int>(v.size()) < min_calls || NowNs() < deadline) {
    const std::int64_t t0 = NowNs();
    fn();
    v.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (v.size() >= 100000) break;
  }
  return Quantile(v, 0.5);
}

double Ms(const std::pair<std::int64_t, std::int64_t>& span) {
  return static_cast<double>(span.second - span.first) / 1e6;
}

/// Median duration of a step repeated in one run, ms.
double MedianMs(const std::vector<std::pair<std::int64_t, std::int64_t>>& spans) {
  std::vector<double> v;
  for (const auto& span : spans) v.push_back(Ms(span));
  return Quantile(v, 0.5);
}

std::size_t OpenTransmissions(const Pipeline& p) {
  return p.phases().open * p.spec().S();
}

}  // namespace

std::vector<Metric> EndToEndMetrics(Pipeline& p, double setup_s,
                                    double peak_rss_mb) {
  const std::vector<double> deliver = OpenSamples(
      p, [&](std::size_t pub, std::size_t tx) { return DeliverMs(p, pub, tx); });
  const std::vector<double> logged = OpenSamples(
      p, [&](std::size_t pub, std::size_t tx) { return LoggedMs(p, pub, tx); });
  std::size_t open_delivered = 0;
  for (std::size_t pub = p.phases().OpenBegin(); pub < p.phases().BurstBegin();
       ++pub) {
    for (std::size_t s = 0; s < p.spec().S(); ++s) {
      open_delivered += p.deliver_count[p.Tx(pub, s)].load() > 0;
    }
  }
  // Throughput is taken from the fastest burst part and the fastest audit
  // repetition: on a shared host, interference from other tenants only
  // ever slows a part down, so the best of several is the steadiest
  // estimate of what the program can do (the median swung by a third
  // between stretches of minutes in which the host was busy or not).
  double peak_rate = 0, best_audit_s = 0;
  for (const auto& b : p.burst_parts) {
    peak_rate = std::max(
        peak_rate, static_cast<double>((b.last - b.first) * p.spec().S()) /
                       (static_cast<double>(b.end - b.start) / 1e9));
  }
  for (std::size_t rep = 0; rep < p.audit_spans.size(); ++rep) {
    const double rep_s = static_cast<double>(p.audit_spans[rep].second -
                                             p.fetch_spans[rep].first) /
                         1e9;
    if (rep == 0 || rep_s < best_audit_s) best_audit_s = rep_s;
  }
  const double entries = static_cast<double>(p.db->RawEntries().size());
  return {
      {"setup_s", setup_s, "s"},
      {"deliver_p50_ms", Quantile(deliver, 0.5), "ms"},
      {"deliver_p95_ms", TailMs(deliver, 0.95), "ms"},
      {"logged_p50_ms", Quantile(logged, 0.5), "ms"},
      {"logged_p95_ms", TailMs(logged, 0.95), "ms"},
      {"cpu_us_per_transmission",
       static_cast<double>(p.open_cpu_ns) / 1e3 /
           static_cast<double>(std::max<std::size_t>(1, open_delivered)),
       "us"},
      {"peak_transmissions_per_s", peak_rate, "1/s"},
      {"audit_entries_per_s", entries / best_audit_s, "1/s"},
      {"log_bytes_per_transmission",
       static_cast<double>(p.primary().TotalBytes()) /
           static_cast<double>(p.TxCount()),
       "B"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> LayerMetrics(Pipeline& p) {
  const WorkloadSpec& spec = p.spec();
  std::vector<Metric> out;
  auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  // --- Generator ---
  std::vector<double> late, call;
  for (std::size_t pub = p.phases().OpenBegin(); pub < p.phases().BurstBegin();
       ++pub) {
    late.push_back(static_cast<double>(p.call_start[pub] - p.intended[pub]) / 1e6);
    call.push_back(static_cast<double>(p.call_end[pub] - p.call_start[pub]) / 1e3);
  }
  add("loadgen.late_p99_ms", Quantile(late, 0.99), "ms");

  // --- Crypto: direct calls with the workload's key and payload ---
  const proto::NodeIdentity& id = p.PublisherIdentity(0);
  const Bytes payload = MakePayload(p.options().seed, 0, 1, spec.payload_bytes);
  const crypto::Digest digest = crypto::Sha256Digest(payload);
  const Bytes signature = crypto::SignDigest(id.keys.priv, digest);
  add("crypto.hash_us",
      MedianCallUs([&] { (void)crypto::Sha256Digest(payload); }, 20, 100), "us");
  add("crypto.sign_us",
      MedianCallUs([&] { (void)crypto::SignDigest(id.keys.priv, digest); }, 20,
                   100),
      "us");
  add("crypto.verify_us",
      MedianCallUs(
          [&] { (void)crypto::VerifyDigest(id.keys.pub, digest, signature); },
          20, 100),
      "us");
  constexpr std::size_t kChunk = 256;
  std::vector<crypto::Digest> digests(kChunk);
  std::vector<Bytes> sigs(kChunk);
  std::vector<crypto::VerifyRequest> batch(kChunk);
  for (std::size_t i = 0; i < kChunk; ++i) {
    const Bytes d = MakePayload(p.options().seed, 1, i + 1, 32);
    std::copy(d.begin(), d.end(), digests[i].begin());
    sigs[i] = crypto::SignDigest(id.keys.priv, digests[i]);
    batch[i] = crypto::VerifyRequest{&id.keys.pub, digests[i], sigs[i]};
  }
  add("crypto.verify_batch_us_per_sig",
      MedianCallUs([&] { (void)crypto::VerifyDigestBatch(batch); }, 3, 200) /
          static_cast<double>(kChunk),
      "us");
  Bytes record;
  const auto& entries = p.db->RawEntries();
  for (std::size_t i = 0; i < entries.size() && record.empty(); ++i) {
    if (entries[i].direction == proto::Direction::kOut) {
      record = p.primary().RecordRange(i, 1).front();
    }
  }
  {
    crypto::MerkleTree tree;
    add("crypto.merkle_append_us",
        MedianCallUs([&] { (void)tree.Append(record); }, 20, 100), "us");
  }

  // --- Pub/sub and transport (generator timing + program metrics) ---
  const auto& m0 = p.metrics_open_begin;
  const auto& m1 = p.metrics_open_end;
  const double open_tx = static_cast<double>(OpenTransmissions(p));
  add("pubsub.publish_call_us", Quantile(call, 0.5), "us");
  add("pubsub.encode_us", HistogramMedian(m0, m1, "adlp_publish_encode_ns") / 1e3,
      "us");
  add("pubsub.ack_rtt_us", HistogramMedian(m0, m1, "adlp_ack_rtt_ns") / 1e3, "us");
  add("transport.bytes_per_transmission",
      static_cast<double>(CounterDelta(m0, m1, "adlp_transport_bytes_total", "tx")) /
          open_tx,
      "B");
  add("transport.frames_per_transmission",
      static_cast<double>(
          CounterDelta(m0, m1, "adlp_transport_frames_total", "tx")) /
          open_tx,
      "1");

  // --- ADLP logging path (decorator stamps on traced publications) ---
  const bool replicated = spec.replicas > 0;
  const double enter_us = SlotMedianUs(p, p.enter_start, p.enter_end, kSubSide);
  const double queue_us = SlotMedianUs(p, p.enter_end, p.append_start);
  const double append_us = SlotMedianUs(p, p.append_start, p.append_end);
  const double quorum_us =
      replicated ? SlotMedianUs(p, p.append_end, p.durable_ns) : 0;
  add("adlp.log_enter_us", enter_us, "us");
  add("adlp.log_queue_wait_us", queue_us, "us");
  add("adlp.sink_append_us", append_us, "us");
  add("adlp.quorum_wait_us", quorum_us, "us");
  add("adlp.bytes_per_entry",
      static_cast<double>(p.primary().TotalBytes()) /
          static_cast<double>(std::max<std::size_t>(1, p.primary().EntryCount())),
      "B");
  add("adlp.rss_bytes_per_entry",
      static_cast<double>(p.open_rss_growth) /
          static_cast<double>(std::max<std::size_t>(1, p.open_entries)),
      "B");
  add("adlp.tap_high_water", static_cast<double>(p.tap_stats.high_water), "1");

  // --- Audit ---
  add("audit.fetch_ms", MedianMs(p.fetch_spans), "ms");
  add("audit.db_build_ms", MedianMs(p.db_spans), "ms");
  add("audit.audit_ms", MedianMs(p.audit_spans), "ms");
  add("audit.stream_entry_us",
      static_cast<double>(p.stream_entry_ns) / 1e3 /
          static_cast<double>(std::max<std::size_t>(1, p.stream_entries)),
      "us");
  add("audit.stream_seal_ms", MedianMs(p.seal_spans), "ms");
  add("audit.stream_finalize_ms", Ms(p.finalize_span), "ms");
  add("audit.replica_check_ms", replicated ? Ms(p.replica_check_span) : 0, "ms");

  // --- Process ---
  const double open_wall_s =
      static_cast<double>(p.open_end_ns - p.setup_end_ns) / 1e9;
  add("proc.threads_max", p.threads_max, "1");
  add("proc.busy_cores", static_cast<double>(p.open_cpu_ns) / 1e9 / open_wall_s,
      "1");

  // --- End-to-end latency split by traced and untraced windows ---
  auto deliver = [&](int traced) {
    return OpenSamples(
        p, [&](std::size_t pub, std::size_t tx) { return DeliverMs(p, pub, tx); },
        traced);
  };
  auto logged = [&](int traced) {
    return OpenSamples(
        p, [&](std::size_t pub, std::size_t tx) { return LoggedMs(p, pub, tx); },
        traced);
  };
  const std::vector<double> deliver_untraced = deliver(0);

  // p99 is reported here, without a bound: on a shared host its run-to-run
  // spread exceeds any bound a regression gate can use, so the gated
  // end-to-end tail is p95.
  add("e2e.deliver_p99_ms", TailMs(deliver_untraced, 0.99), "ms");
  add("e2e.logged_p99_ms", TailMs(logged(0), 0.99), "ms");

  // --- Trace accounting ---
  const double path_us =
      Quantile(call, 0.5) + enter_us + queue_us + append_us + quorum_us;
  add("trace.unattributed_ms", Quantile(logged(1), 0.5) - path_us / 1e3,
      "ms");
  const double traced_p50 = Quantile(deliver(1), 0.5);
  const double untraced_p50 = Quantile(deliver_untraced, 0.5);
  add("trace.overhead_pct",
      untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100 : 0,
      "%");
  return out;
}

}  // namespace perfbench
