#include "spans.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

namespace {

void Add(std::vector<Span>& out, const char* name, const char* parent,
         std::int64_t pub, int sub, int side, std::int64_t start,
         std::int64_t end) {
  if (start == 0 || end == 0 || end < start) return;
  out.push_back(Span{name, parent, pub, sub, side, start, end});
}

}  // namespace

std::vector<Span> BuildSpans(const Pipeline& p) {
  std::vector<Span> spans;
  const bool replicated = p.spec().replicas > 0;
  for (std::size_t pub = p.phases().OpenBegin(); pub < p.phases().BurstBegin();
       ++pub) {
    if (!p.Traced(pub)) continue;
    const auto P = static_cast<std::int64_t>(pub);
    std::int64_t last = p.call_end[pub];
    for (std::size_t s = 0; s < p.spec().S(); ++s) {
      const std::size_t tx = p.Tx(pub, s);
      const int S = static_cast<int>(s);
      const std::int64_t delivered = p.deliver_ns.Get(tx);
      // Transit, the subscriber's hash/sign/ACK and its Enter, up to the
      // application callback.
      Add(spans, "deliver", "publication", P, S, -1, p.call_end[pub], delivered);
      last = std::max(last, delivered);
      for (const int side : {kPubSide, kSubSide}) {
        const std::size_t slot = Pipeline::Slot(tx, side);
        Add(spans, "log.enter", side == kSubSide ? "deliver" : "publication", P,
            S, side, p.enter_start.Get(slot), p.enter_end.Get(slot));
        Add(spans, "log.queue_wait", "publication", P, S, side,
            p.enter_end.Get(slot), p.append_start.Get(slot));
        Add(spans, "log.append", "publication", P, S, side,
            p.append_start.Get(slot), p.append_end.Get(slot));
        if (replicated) {
          Add(spans, "log.quorum", "publication", P, S, side,
              p.append_end.Get(slot), p.durable_ns.Get(slot));
        }
        Add(spans, "tap.on_entry", "publication", P, S, side,
            p.tap_start.Get(slot), p.tap_end.Get(slot));
        last = std::max(last, p.durable_ns.Get(slot));
      }
    }
    Add(spans, "publish", "publication", P, -1, -1, p.call_start[pub],
        p.call_end[pub]);
    Add(spans, "publication", "", P, -1, -1, p.intended[pub], last);
  }
  for (std::size_t rep = 0; rep < p.audit_spans.size(); ++rep) {
    Add(spans, "audit.fetch", "", -1, -1, -1, p.fetch_spans[rep].first,
        p.fetch_spans[rep].second);
    Add(spans, "audit.db_build", "", -1, -1, -1, p.db_spans[rep].first,
        p.db_spans[rep].second);
    Add(spans, "audit.audit", "", -1, -1, -1, p.audit_spans[rep].first,
        p.audit_spans[rep].second);
  }
  Add(spans, "audit.stream_finalize", "", -1, -1, -1, p.finalize_span.first,
      p.finalize_span.second);
  Add(spans, "audit.replica_check", "", -1, -1, -1, p.replica_check_span.first,
      p.replica_check_span.second);
  for (const auto& [start, end] : p.seal_spans) {
    Add(spans, "audit.stream_seal", "", -1, -1, -1, start, end);
  }
  return spans;
}

std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans) {
  // Children of a span: same publication, parent == its name, and the same
  // subscriber when the parent is per subscriber.
  std::map<std::int64_t, std::vector<const Span*>> by_pub;
  for (const auto& s : spans) by_pub[s.pub].push_back(&s);
  std::map<std::string, std::vector<double>> self;
  for (const auto& [pub, group] : by_pub) {
    for (const Span* span : group) {
      std::vector<std::pair<std::int64_t, std::int64_t>> covered;
      for (const Span* child : group) {
        if (child->parent != span->name) continue;
        if (span->sub >= 0 && child->sub != span->sub) continue;
        covered.emplace_back(std::max(child->start, span->start),
                             std::min(child->end, span->end));
      }
      std::sort(covered.begin(), covered.end());
      std::int64_t busy = 0, reach = span->start;
      for (auto [a, b] : covered) {
        a = std::max(a, reach);
        if (b > a) {
          busy += b - a;
          reach = b;
        }
      }
      self[span->name].push_back(
          static_cast<double>(span->end - span->start - busy) / 1e3);
    }
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : self) out[name] = Quantile(values, 0.5);
  return out;
}

bool WriteSpanDump(const std::string& path, const Pipeline& p,
                   const std::vector<Span>& spans,
                   const std::map<std::string, double>& self_us) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const WorkloadSpec& spec = p.spec();
  for (const auto& s : spans) {
    Json j;
    j.Str("span", s.name).Str("parent", s.parent);
    if (s.pub >= 0) {
      const auto pub = static_cast<std::size_t>(s.pub);
      j.Str("publisher", spec.publishers[p.TopicOf(pub)])
          .Str("topic", spec.topics[p.TopicOf(pub)])
          .Int("seq", static_cast<std::int64_t>(p.SeqOf(pub)));
      if (s.sub >= 0) j.Str("subscriber", spec.subscribers[s.sub]);
      if (s.side >= 0) j.Str("side", s.side == kPubSide ? "pub" : "sub");
    }
    j.Int("start_ns", s.start).Int("end_ns", s.end);
    out << j.Done() << '\n';
  }
  // Verdicts of the traced publications, under the same key.
  for (const auto& v : p.report.verdicts) {
    std::size_t topic = 0;
    while (topic < spec.T() && spec.topics[topic] != v.topic) ++topic;
    if (topic == spec.T() || v.seq == 0) continue;
    const std::size_t pub = (v.seq - 1) * spec.T() + topic;
    if (pub >= p.phases().Total() || !p.Traced(pub)) continue;
    out << Json()
               .Str("verdict", std::string(adlp::audit::FindingName(v.finding)))
               .Str("publisher", v.publisher)
               .Str("topic", v.topic)
               .Int("seq", static_cast<std::int64_t>(v.seq))
               .Str("subscriber", v.subscriber)
               .Done()
        << '\n';
  }
  Json summary;
  for (const auto& [name, us] : self_us) summary.Num(name, us);
  out << Json().Raw("self_time_us", summary.Done()).Done() << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
