#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "audit/report_json.h"
#include "faults/behavior.h"
#include "transport/tcp.h"

namespace perfbench {

using namespace adlp;

namespace {

constexpr std::size_t kTapCapacity = 256;
constexpr std::int64_t kSealPeriodNs = 250'000'000;
/// A wait gives up when neither deliveries nor appends moved for this long
/// (only an injected fault can stall an honest fleet).
constexpr std::int64_t kStallNs = 3'000'000'000;

/// Key material is fixed per component so every run does the same set-up
/// work; only the traffic depends on --seed.
constexpr std::uint64_t kKeySeed = 0xad1b'0000'0000'0000ull;

void SleepUntilNs(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

}  // namespace

bool ParseFault(const std::string& name, Fault& out) {
  if (name == "none") out = Fault::kNone;
  else if (name == "hide") out = Fault::kHide;
  else if (name == "corrupt") out = Fault::kCorrupt;
  else if (name == "swallow") out = Fault::kSwallow;
  else if (name == "lag") out = Fault::kLag;
  else return false;
  return true;
}

/// LogSink decorator in front of the logger: stamps when each entry is
/// durable (a synchronous LogServer::Append returned) or, replicated, which
/// upload frame carries it (the commit watcher stamps the frame's quorum).
class Pipeline::ObservedSink final : public proto::LogSink {
 public:
  explicit ObservedSink(Pipeline& p) : p_(p) {}

  void RegisterKey(const crypto::ComponentId& id,
                   const crypto::PublicKey& key) override {
    if (p_.replicated_) {
      p_.replicated_->RegisterKey(id, key);
    } else {
      p_.primary().RegisterKey(id, key);
    }
  }

  void Append(const proto::LogEntry& entry) override {
    std::size_t tx = 0;
    int side = 0;
    const bool known = p_.Locate(entry, tx, side);
    const std::size_t slot = Slot(tx, side);
    const bool traced = known && p_.Traced(p_.PubOf(tx));
    if (traced) p_.append_start.Set(slot, NowNs());
    if (p_.replicated_) {
      const std::uint64_t seq = p_.replicated_->AppendSeq(entry);
      if (known) {
        p_.frame_seq[slot].store(seq, std::memory_order_release);
        if (traced) p_.append_end.Set(slot, NowNs());
      }
      std::uint64_t prev = p_.max_frame_.load(std::memory_order_relaxed);
      while (prev < seq && !p_.max_frame_.compare_exchange_weak(prev, seq)) {
      }
    } else {
      p_.primary().Append(entry);
      if (known) {
        const std::int64_t now = NowNs();
        p_.durable_ns.Set(slot, now);
        if (traced) p_.append_end.Set(slot, now);
      }
    }
    p_.appended_.fetch_add(1, std::memory_order_release);
  }

 private:
  Pipeline& p_;
};

/// LogPipe decorator (traced runs): stamps LogPipe::Enter on both sides.
class Pipeline::TimedPipe final : public proto::LogPipe {
 public:
  TimedPipe(Pipeline& p, proto::LogPipe& inner) : p_(p), inner_(inner) {}

  void Enter(proto::LogEntry entry) override {
    std::size_t tx = 0;
    int side = 0;
    if (!p_.Locate(entry, tx, side) || !p_.Traced(p_.PubOf(tx))) {
      inner_.Enter(std::move(entry));
      return;
    }
    const std::size_t slot = Slot(tx, side);
    p_.enter_start.Set(slot, NowNs());
    inner_.Enter(std::move(entry));
    p_.enter_end.Set(slot, NowNs());
  }

 private:
  Pipeline& p_;
  proto::LogPipe& inner_;
};

Pipeline::Pipeline(WorkloadSpec spec, RunOptions options)
    : spec_(std::move(spec)), options_(options) {
  const std::size_t T = spec_.T();
  phases_.warmup = spec_.warmup_rounds * T;
  phases_.open =
      static_cast<std::size_t>(options_.seconds * spec_.rate_hz /
                               static_cast<double>(T)) * T;
  phases_.burst = spec_.burst_rounds * T;

  const std::size_t pubs = phases_.Total();
  const std::size_t txs = TxCount();
  intended.assign(pubs, 0);
  call_start.assign(pubs, 0);
  call_end.assign(pubs, 0);
  deliver_ns.Resize(txs);
  deliver_count = std::vector<std::atomic<std::uint32_t>>(txs);
  deliver_bad = std::vector<std::atomic<std::uint8_t>>(txs);
  for (Stamps* s : {&durable_ns, &enter_start, &enter_end, &append_start,
                    &append_end, &tap_start, &tap_end}) {
    s->Resize(2 * txs);
  }
  if (spec_.replicas > 0) {
    frame_seq = std::vector<std::atomic<std::uint64_t>>(2 * txs);
    // Every entry and key registration is one frame.
    commit_ns.Resize(2 * txs + spec_.publishers.size() +
                     spec_.subscribers.size() + 64);
  }

  // Traced runs alternate one-second windows of the open-loop schedule with
  // and without span stamps, so tracing overhead is measured against
  // untraced publications of the same run.
  traced_.assign(pubs, 0);
  if (options_.trace) {
    const auto per_window = static_cast<std::size_t>(
        std::max(1.0, spec_.rate_hz));
    for (std::size_t p = phases_.OpenBegin(); p < phases_.BurstBegin(); ++p) {
      traced_[p] = ((p - phases_.OpenBegin()) / per_window) % 2 == 1;
    }
  }
}

Pipeline::~Pipeline() {
  if (tap_thread_.joinable()) {
    tap_closing_ = true;
    tap_->Close();
    tap_thread_.join();
  }
  stop_commit_ = true;
  if (commit_thread_.joinable()) commit_thread_.join();
  stop_sampler_ = true;
  if (sampler_thread_.joinable()) sampler_thread_.join();
  for (auto& c : publishers_) c->Shutdown();
  for (auto& c : subscribers_) c->Shutdown();
  if (!servers_.empty()) primary().AttachTap(nullptr);
}

bool Pipeline::Locate(const proto::LogEntry& entry, std::size_t& tx,
                      int& side) const {
  std::size_t topic = 0;
  while (topic < spec_.T() && entry.topic != spec_.topics[topic]) ++topic;
  if (topic == spec_.T() || entry.seq == 0) return false;
  const std::size_t pub = (entry.seq - 1) * spec_.T() + topic;
  if (pub >= phases_.Total()) return false;
  side = entry.direction == proto::Direction::kOut ? kPubSide : kSubSide;
  const std::string& sub_name = side == kPubSide ? entry.peer : entry.component;
  std::size_t sub = 0;
  while (sub < spec_.S() && sub_name != spec_.subscribers[sub]) ++sub;
  if (sub == spec_.S()) return false;
  tx = Tx(pub, sub);
  return true;
}

const proto::NodeIdentity& Pipeline::PublisherIdentity(std::size_t i) const {
  return publishers_[i]->Identity();
}

void Pipeline::Setup() {
  if (options_.trace) {
    sampler_thread_ = std::thread([this] { SampleThreads(); });
  }

  // --- Logger(s) ---
  if (spec_.replicas == 0) {
    servers_.emplace_back();
  } else {
    std::vector<proto::ReplicatedLogSink::Connector> connectors;
    for (std::size_t i = 0; i < spec_.replicas; ++i) {
      proto::LogServerOptions so;
      so.seal_every = spec_.seal_every;
      servers_.emplace_back(so);
      services_.push_back(
          std::make_unique<proto::LogServerService>(servers_.back(), 0));
      const std::uint16_t port = services_.back()->Port();
      connectors.push_back([port] { return transport::TryTcpConnect(port); });
    }
    replicated_ = std::make_unique<proto::ReplicatedLogSink>(
        std::move(connectors), proto::ReplicatedLogSinkOptions{});
    commit_thread_ = std::thread([this] { CommitLoop(); });
  }
  sink_ = std::make_unique<ObservedSink>(*this);

  // --- Fleet ---
  proto::ComponentOptions base;
  base.transport = pubsub::TransportKind::kTcp;
  base.sig_algorithm = spec_.alg;
  base.ack_window = 1;
  if (options_.trace) {
    base.pipe_wrapper = [this](proto::LogPipe& inner,
                               const proto::NodeIdentity&) {
      return std::make_unique<TimedPipe>(*this, inner);
    };
  }
  std::uint64_t key_index = 0;
  auto make = [&](const std::string& name, proto::ComponentOptions opts) {
    Rng rng(kKeySeed + key_index++);
    return std::make_unique<proto::Component>(name, master_, *sink_, rng,
                                              std::move(opts));
  };
  for (const auto& name : spec_.publishers) {
    publishers_.push_back(make(name, base));
  }
  last_seq_.resize(spec_.S());
  for (std::size_t s = 0; s < spec_.S(); ++s) {
    proto::ComponentOptions opts = base;
    if (options_.fault == Fault::kHide && s == 0) {
      // Subscriber 0 hides three receipts early in the open-loop phase.
      const std::uint64_t seq = phases_.OpenBegin() / spec_.T() + 4;
      auto hiding = std::make_shared<faults::HidingBehavior>(faults::FaultFilter{
          .topic = spec_.topics[0],
          .direction = proto::Direction::kIn,
          .seq_min = seq,
          .seq_max = seq + 2});
      opts.pipe_wrapper = [hiding](proto::LogPipe& inner,
                                   const proto::NodeIdentity&) {
        return std::make_unique<faults::UnfaithfulLogPipe>(inner, hiding);
      };
    }
    subscribers_.push_back(make(spec_.subscribers[s], std::move(opts)));
    last_seq_[s] = std::vector<std::atomic<std::uint64_t>>(spec_.T());
  }

  const std::int64_t fleet_built = NowNs();
  const std::size_t swallow_pub =
      options_.fault == Fault::kSwallow ? phases_.OpenBegin() + 3 * spec_.T()
                                        : SIZE_MAX;
  for (std::size_t s = 0; s < spec_.S(); ++s) {
    for (std::size_t t = 0; t < spec_.T(); ++t) {
      subscribers_[s]->Subscribe(
          spec_.topics[t], [this, s, t, swallow_pub](const pubsub::Message& m) {
            const std::int64_t now = NowNs();
            arrived_.fetch_add(1, std::memory_order_release);
            const std::uint64_t seq = m.header.seq;
            const std::size_t pub = (seq - 1) * spec_.T() + t;
            if (seq == 0 || pub >= phases_.Total()) return;
            const std::uint64_t prev = last_seq_[s][t].exchange(seq);
            if (s == 0 && pub == swallow_pub) return;
            const std::size_t tx = Tx(pub, s);
            const bool bad = seq != prev + 1 ||
                             !PayloadMatches(options_.seed, t, seq,
                                             spec_.payload_bytes, m.payload);
            if (bad) deliver_bad[tx].store(1);
            if (deliver_count[tx].fetch_add(1) == 0) deliver_ns.Set(tx, now);
          });
    }
  }
  for (std::size_t i = 0; i < spec_.publishers.size(); ++i) {
    handles_.push_back(&publishers_[i]->Advertise(spec_.topics[i]));
  }
  for (auto* h : handles_) {
    if (!h->WaitForSubscribers(spec_.S(), std::chrono::seconds(20))) {
      throw std::runtime_error("subscribers did not connect to " + h->Topic());
    }
  }

  const std::int64_t connected = NowNs();
  // --- Online audit: lossless tap on the (primary) logger ---
  tap_ = std::make_unique<proto::LogTapQueue>(kTapCapacity,
                                              proto::TapOverflowPolicy::kBlock);
  primary().AttachTap(tap_.get());
  streaming_ = std::make_unique<audit::StreamingAuditor>(primary().Keys(),
                                                         master_.Topology());
  tap_thread_ = std::thread([this] { TapLoop(); });

  // --- Warm-up ---
  PublishRange(0, phases_.warmup, false);
  if (!WaitFor(phases_.warmup)) {
    throw std::runtime_error("warm-up did not complete");
  }
  if (options_.fault == Fault::kLag && services_.size() > 2) {
    // Replica 2 stops ingesting and is left behind for the rest of the run.
    services_[2]->Shutdown();
  }
  setup_end_ns = NowNs();
  std::fprintf(stderr, "setup fleet %.3f s, connect %.3f s, warm-up %.3f s\n",
               static_cast<double>(fleet_built - main_start_ns) / 1e9,
               static_cast<double>(connected - fleet_built) / 1e9,
               static_cast<double>(setup_end_ns - connected) / 1e9);
}

void Pipeline::PublishRange(std::size_t first, std::size_t last,
                            bool scheduled) {
  const double period_ns = 1e9 / spec_.rate_hz;
  for (std::size_t p = first; p < last; ++p) {
    const std::size_t topic = TopicOf(p);
    Bytes payload =
        MakePayload(options_.seed, topic, SeqOf(p), spec_.payload_bytes);
    if (scheduled) {
      intended[p] = setup_end_ns + static_cast<std::int64_t>(
                                       static_cast<double>(p - first) * period_ns);
      SleepUntilNs(intended[p]);
    }
    call_start[p] = NowNs();
    if (!scheduled) intended[p] = call_start[p];
    const std::uint64_t seq = handles_[topic]->Publish(std::move(payload));
    call_end[p] = NowNs();
    if (seq != SeqOf(p)) {
      throw std::runtime_error("publisher assigned an unexpected seq");
    }
  }
}

bool Pipeline::WaitFor(std::size_t last) {
  const std::size_t want_arrived = last * spec_.S();
  const std::size_t want_appended = 2 * last * spec_.S();
  std::size_t seen_a = 0, seen_b = 0;
  std::int64_t progress_at = NowNs();
  while (true) {
    const std::size_t a = arrived_.load(std::memory_order_acquire);
    const std::size_t b = appended_.load(std::memory_order_acquire);
    if (a >= want_arrived && b >= want_appended) break;
    const std::int64_t now = NowNs();
    if (a != seen_a || b != seen_b) {
      seen_a = a;
      seen_b = b;
      progress_at = now;
    } else if (now - progress_at > kStallNs) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (replicated_) {
    const std::uint64_t frame = max_frame_.load(std::memory_order_acquire);
    if (!replicated_->WaitCommitted(frame, std::chrono::seconds(10))) {
      return false;
    }
    while (frame > 0 && frame < commit_ns.Size() && commit_ns.Get(frame) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return true;
}

std::size_t Pipeline::LoggedEntries() const {
  std::size_t n = 0;
  for (const auto& s : servers_) n += s.EntryCount();
  return n;
}

void Pipeline::OpenLoop() {
  const std::int64_t cpu0 = ProcessCpuNs();
  const std::int64_t rss0 = RssBytes();
  const std::size_t entries0 = LoggedEntries();
  metrics_open_begin = obs::MetricsRegistry::Global().Snapshot();
  PublishRange(phases_.OpenBegin(), phases_.BurstBegin(), true);
  WaitFor(phases_.BurstBegin());
  open_end_ns = NowNs();
  metrics_open_end = obs::MetricsRegistry::Global().Snapshot();
  open_cpu_ns = ProcessCpuNs() - cpu0;
  open_rss_growth = RssBytes() - rss0;
  open_entries = LoggedEntries() - entries0;
}

void Pipeline::Burst() {
  const std::size_t parts = std::max<std::size_t>(1, spec_.burst_parts);
  const std::size_t rounds = spec_.burst_rounds / parts;
  for (std::size_t part = 0; part < parts; ++part) {
    BurstPart b;
    b.first = phases_.BurstBegin() + part * rounds * spec_.T();
    b.last = part + 1 == parts ? phases_.Total()
                                     : b.first + rounds * spec_.T();
    b.start = NowNs();
    PublishRange(b.first, b.last, false);
    WaitFor(b.last);
    burst_parts.push_back(b);
  }
}

void Pipeline::Drain() {
  for (auto& c : publishers_) c->Shutdown();
  for (auto& c : subscribers_) c->Shutdown();

  if (replicated_) {
    replicated_->DrainCommitted(std::chrono::seconds(10));
    // Quorum commit covers the fast majority; every replica must still
    // reach the full log.
    const std::size_t want = appended_.load();
    std::size_t seen = 0;
    std::int64_t progress_at = NowNs();
    while (true) {
      std::size_t least = SIZE_MAX, sum = 0;
      for (const auto& s : servers_) {
        least = std::min(least, s.EntryCount());
        sum += s.EntryCount();
      }
      if (least >= want) break;
      const std::int64_t now = NowNs();
      if (sum != seen) {
        seen = sum;
        progress_at = now;
      } else if (now - progress_at > kStallNs) {
        converged = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Seal the tail so every record is covered by a signed epoch root; the
    // replicas seal at identical sizes when they hold identical logs.
    for (auto& server : servers_) server.SealEpoch();
    stop_commit_ = true;
    commit_thread_.join();
    for (std::size_t slot = 0; slot < frame_seq.size(); ++slot) {
      const std::uint64_t seq = frame_seq[slot].load();
      if (seq != 0 && seq < commit_ns.Size()) {
        durable_ns.Set(slot, commit_ns.Get(seq));
      }
    }
  }

  tap_closing_ = true;
  tap_->Close();
  tap_thread_.join();
  primary().AttachTap(nullptr);
  tap_stats = tap_->Stats();
  finalize_span.first = NowNs();
  const audit::AuditReport online = streaming_->Finalize();
  finalize_span.second = NowNs();
  stream_json = audit::RenderReportJson(online);

  stop_sampler_ = true;
  if (sampler_thread_.joinable()) sampler_thread_.join();

  for (BurstPart& b : burst_parts) {
    b.end = b.start;
    for (std::size_t p = b.first; p < b.last; ++p) {
      for (std::size_t s = 0; s < spec_.S(); ++s) {
        const std::size_t tx = Tx(p, s);
        b.end = std::max({b.end, deliver_ns.Get(tx),
                          durable_ns.Get(Slot(tx, kPubSide)),
                          durable_ns.Get(Slot(tx, kSubSide))});
      }
    }
  }
}

void Pipeline::OfflineAudit() {
  const audit::Topology topology = master_.Topology();
  audit::AuditOptions exec;
  exec.threads = std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t begin = NowNs();
  for (std::size_t rep = 0; rep < kMaxAuditReps; ++rep) {
    if (rep >= kMinAuditReps && NowNs() - begin > kAuditBudgetNs) break;
    db.reset();
    report = {};
    const std::int64_t t0 = NowNs();
    std::vector<proto::LogEntry> entries = primary().Entries();
    const std::int64_t t1 = NowNs();
    db = std::make_unique<audit::LogDatabase>(std::move(entries), topology);
    const std::int64_t t2 = NowNs();
    report = audit::Auditor(primary().Keys()).Audit(*db, exec);
    const std::int64_t t3 = NowNs();
    fetch_spans.emplace_back(t0, t1);
    db_spans.emplace_back(t1, t2);
    audit_spans.emplace_back(t2, t3);
  }
  batch_json = audit::RenderReportJson(report);

  if (servers_.size() < 2) return;
  replica_check_span.first = NowNs();
  std::vector<audit::ReplicaEvidence> fleet;
  for (const auto& server : servers_) {
    audit::ReplicaEvidence evidence;
    evidence.name = fleet.empty() ? "replica-0"
                                  : "replica-" + std::to_string(fleet.size());
    evidence.records = server.SerializedRecords();
    evidence.roots = server.EpochRoots();
    fleet.push_back(std::move(evidence));
  }
  audit::ReplicaCheckOptions check;
  check.seal_key = primary().SealKey();
  replica_check = audit::CheckReplicas(fleet, check);
  replica_check_span.second = NowNs();
}

void Pipeline::TapLoop() {
  std::int64_t last_seal = NowNs();
  while (true) {
    std::optional<proto::TapEvent> event =
        tap_->Pop(std::chrono::milliseconds(20));
    if (!event) {
      if (tap_closing_ && tap_->Depth() == 0) break;
    } else if (event->kind == proto::TapEvent::Kind::kEntry) {
      if (!options_.trace) {
        streaming_->OnEntry(event->entry);
      } else {
        const std::int64_t t0 = NowNs();
        streaming_->OnEntry(event->entry);
        const std::int64_t t1 = NowNs();
        stream_entry_ns += t1 - t0;
        ++stream_entries;
        std::size_t tx = 0;
        int side = 0;
        if (Locate(event->entry, tx, side) && Traced(PubOf(tx))) {
          tap_start.Set(Slot(tx, side), t0);
          tap_end.Set(Slot(tx, side), t1);
        }
      }
    }
    if (NowNs() - last_seal >= kSealPeriodNs) {
      const std::int64_t t0 = NowNs();
      streaming_->SealEpoch();
      last_seal = NowNs();
      if (options_.trace) seal_spans.emplace_back(t0, last_seal);
    }
  }
}

void Pipeline::CommitLoop() {
  std::uint64_t next = 1;
  while (!stop_commit_.load()) {
    if (!replicated_->WaitCommitted(next, std::chrono::milliseconds(20))) {
      continue;
    }
    const std::uint64_t committed = replicated_->CommittedSeq();
    const std::int64_t now = NowNs();
    for (std::uint64_t s = next; s <= committed && s < commit_ns.Size(); ++s) {
      commit_ns.Set(s, now);
    }
    next = committed + 1;
  }
}

void Pipeline::SampleThreads() {
  while (!stop_sampler_.load()) {
    threads_max = std::max(threads_max, ThreadCount());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace perfbench
