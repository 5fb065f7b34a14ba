// The live ADLP pipeline under one open-loop generator: a fleet of
// proto::Components over loopback TCP logging to one in-process LogServer
// (or, through a ReplicatedLogSink, to LogServerService replicas), an online
// StreamingAuditor fed from a lossless tap on the logger, a burst phase,
// and the offline batch audit.
//
// Everything is observed from outside the program: a LogSink decorator
// stamps when each entry becomes durable, subscriber callbacks stamp and
// check deliveries, and in traced runs a LogPipe decorator (installed via
// ComponentOptions::pipe_wrapper) stamps LogPipe::Enter. Timestamps live in
// preallocated per-(transmission, side) arrays written lock-free, one
// writer per slot, and are turned into spans after the run.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adlp/component.h"
#include "adlp/log_server.h"
#include "adlp/log_tap.h"
#include "adlp/remote_log.h"
#include "adlp/replicated_log.h"
#include "audit/auditor.h"
#include "audit/log_database.h"
#include "audit/replica_check.h"
#include "audit/streaming_auditor.h"
#include "common.h"
#include "obs/metrics.h"
#include "pubsub/master.h"

namespace perfbench {

/// Faults the negative self-test injects (one per run, never by default).
enum class Fault { kNone, kHide, kCorrupt, kSwallow, kLag };
bool ParseFault(const std::string& name, Fault& out);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Fault fault = Fault::kNone;
};

enum Side : int { kPubSide = 0, kSubSide = 1 };

/// A lock-free array of timestamps (0 = not stamped).
class Stamps {
 public:
  void Resize(std::size_t n) { v_ = std::vector<std::atomic<std::int64_t>>(n); }
  void Set(std::size_t i, std::int64_t t) {
    v_[i].store(t, std::memory_order_release);
  }
  std::int64_t Get(std::size_t i) const {
    return v_[i].load(std::memory_order_acquire);
  }
  std::size_t Size() const { return v_.size(); }

 private:
  std::vector<std::atomic<std::int64_t>> v_;
};

/// Publication index ranges of the three phases.
struct Phases {
  std::size_t warmup = 0;  // [0, warmup)
  std::size_t open = 0;    // [warmup, warmup + open)
  std::size_t burst = 0;   // [warmup + open, total)
  std::size_t Total() const { return warmup + open + burst; }
  std::size_t OpenBegin() const { return warmup; }
  std::size_t BurstBegin() const { return warmup + open; }
};

class Pipeline {
 public:
  Pipeline(WorkloadSpec spec, RunOptions options);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Builds the fleet, connects, warms up. Returns when the first
  /// open-loop publication is due.
  void Setup();
  /// Publishes on the fixed schedule, then waits for every open-loop
  /// transmission to be delivered and durable.
  void OpenLoop();
  /// Publishes burst_rounds back to back, in burst_parts equal parts each
  /// drained before the next.
  void Burst();
  /// Shuts the fleet down, waits for replicas to converge, drains the tap
  /// and finalizes the streaming auditor.
  void Drain();
  /// Fetch, database build and batch audit of the primary logger, repeated
  /// at least kMinAuditReps and at most kMaxAuditReps times, stopping once
  /// kAuditBudgetNs is spent (the last database and report are kept), plus
  /// CheckReplicas over the replicas when there are several.
  void OfflineAudit();

  static constexpr std::size_t kMinAuditReps = 7;
  static constexpr std::size_t kMaxAuditReps = 11;
  static constexpr std::int64_t kAuditBudgetNs = 4'000'000'000;

  // --- Identification of transmissions ---------------------------------
  std::size_t Tx(std::size_t pub, std::size_t sub) const {
    return pub * spec_.S() + sub;
  }
  std::size_t TxCount() const { return phases_.Total() * spec_.S(); }
  /// Slot of (transmission, side) in the per-side arrays.
  static std::size_t Slot(std::size_t tx, int side) { return tx * 2 + side; }
  /// (transmission, side) of a log entry; false for entries of no
  /// transmission the generator published.
  bool Locate(const adlp::proto::LogEntry& entry, std::size_t& tx,
              int& side) const;
  std::size_t PubOf(std::size_t tx) const { return tx / spec_.S(); }
  std::size_t TopicOf(std::size_t pub) const { return pub % spec_.T(); }
  std::uint64_t SeqOf(std::size_t pub) const { return pub / spec_.T() + 1; }

  const WorkloadSpec& spec() const { return spec_; }
  const RunOptions& options() const { return options_; }
  const Phases& phases() const { return phases_; }
  bool Traced(std::size_t pub) const { return traced_[pub] != 0; }

  adlp::proto::LogServer& primary() { return servers_.front(); }
  std::deque<adlp::proto::LogServer>& servers() { return servers_; }

  // --- Observations (public: read by checks, metrics and spans) ---------
  std::int64_t main_start_ns = 0;
  std::int64_t setup_end_ns = 0;     // first open-loop publication due
  std::int64_t open_end_ns = 0;      // open-loop phase drained
  std::int64_t open_cpu_ns = 0;      // process CPU over the open-loop phase
  std::int64_t open_rss_growth = 0;  // RSS growth over the open-loop phase
  std::size_t open_entries = 0;      // entries all loggers gained in it
  /// Per burst part: (first publication, start, end = last transmission
  /// delivered and durable).
  struct BurstPart {
    std::size_t first = 0, last = 0;
    std::int64_t start = 0, end = 0;
  };
  std::vector<BurstPart> burst_parts;

  // Per publication (generator thread only).
  std::vector<std::int64_t> intended, call_start, call_end;
  // Per transmission.
  Stamps deliver_ns;
  std::vector<std::atomic<std::uint32_t>> deliver_count;
  std::vector<std::atomic<std::uint8_t>> deliver_bad;  // bytes or order
  // Per (transmission, side).
  Stamps durable_ns, enter_start, enter_end, append_start, append_end,
      tap_start, tap_end;
  std::vector<std::atomic<std::uint64_t>> frame_seq;  // replicated only
  Stamps commit_ns;  // per replicated frame seq

  // Tap consumer / streaming auditor.
  std::vector<std::pair<std::int64_t, std::int64_t>> seal_spans;
  std::int64_t stream_entry_ns = 0;
  std::size_t stream_entries = 0;
  std::pair<std::int64_t, std::int64_t> finalize_span{0, 0};
  std::string stream_json;
  adlp::proto::TapStats tap_stats;

  // Offline audit, one span of each step per repetition.
  std::vector<std::pair<std::int64_t, std::int64_t>> fetch_spans, db_spans,
      audit_spans;
  std::unique_ptr<adlp::audit::LogDatabase> db;
  adlp::audit::AuditReport report;
  std::string batch_json;
  std::pair<std::int64_t, std::int64_t> replica_check_span{0, 0};
  adlp::audit::ReplicaCheckResult replica_check;

  // Program metrics around the open-loop phase.
  adlp::obs::MetricsSnapshot metrics_open_begin, metrics_open_end;

  int threads_max = 0;
  bool converged = true;  // every replica reached the full entry count

  /// Identity of publisher `i` (for direct crypto calls in traced runs).
  const adlp::proto::NodeIdentity& PublisherIdentity(std::size_t i) const;

 private:
  class ObservedSink;
  class TimedPipe;

  void PublishRange(std::size_t first, std::size_t last, bool scheduled);
  /// Waits until every transmission of the first `last` publications was
  /// delivered and both its entries are durable; false if progress stalled.
  bool WaitFor(std::size_t last);
  void TapLoop();
  void CommitLoop();
  void SampleThreads();
  std::size_t LoggedEntries() const;

  const WorkloadSpec spec_;
  const RunOptions options_;
  Phases phases_;
  std::vector<std::uint8_t> traced_;

  std::atomic<std::size_t> arrived_{0};   // callbacks entered
  std::atomic<std::size_t> appended_{0};  // entries handed to the logger
  std::atomic<std::uint64_t> max_frame_{0};

  // Declaration order is teardown order in reverse: the tap outlives the
  // servers it is attached to, the servers outlive their services and the
  // replicated sink, and the components go first.
  std::unique_ptr<adlp::proto::LogTapQueue> tap_;
  std::deque<adlp::proto::LogServer> servers_;
  std::vector<std::unique_ptr<adlp::proto::LogServerService>> services_;
  std::unique_ptr<adlp::proto::ReplicatedLogSink> replicated_;
  std::unique_ptr<ObservedSink> sink_;
  std::unique_ptr<adlp::audit::StreamingAuditor> streaming_;
  adlp::pubsub::Master master_;
  std::vector<std::unique_ptr<adlp::proto::Component>> publishers_;
  std::vector<std::unique_ptr<adlp::proto::Component>> subscribers_;
  std::vector<adlp::pubsub::Publisher*> handles_;
  std::vector<std::vector<std::atomic<std::uint64_t>>> last_seq_;  // [sub][topic]

  std::atomic<bool> tap_closing_{false};
  std::atomic<bool> stop_commit_{false};
  std::atomic<bool> stop_sampler_{false};
  std::thread tap_thread_;
  std::thread commit_thread_;
  std::thread sampler_thread_;
};

}  // namespace perfbench
