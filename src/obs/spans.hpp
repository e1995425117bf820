// Per-job lifecycle spans with causal parent links.
//
// Each submission produces a tree: a root kSubmission span, a kRfb child for
// the broadcast round, an instant kBid child per bid received (kept as a
// compact BidRecord), a kAward child per award attempt, then — once a
// Compute Server accepts — kQueue/kRun spans alternating through
// vacate/resume cycles, instant kReconfig marks for shrink/expand, and a
// terminal kComplete / kUnplaced / kEvicted / kFailed.
// AppSpector and the Chrome-trace exporter consume this instead of
// string-filtering the trace, and the causality test walks chain_of() to
// check time ordering along every parent link.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/util/ids.hpp"

namespace faucets::obs {

enum class SpanKind : std::uint8_t {
  kSubmission = 0,  // root: client submit -> terminal outcome
  kRfb,             // directory lookup + request-for-bids broadcast round
  kBid,             // instant: one bid received (value = offered price);
                    // recorded only through SpanTracker::record_bid
  kAward,           // one award attempt: sent -> confirmed or refused
  kQueue,           // waiting in a ClusterManager queue
  kRun,             // occupying processors on a Compute Server
  kReconfig,        // instant: shrink/expand (value = new proc count)
  kComplete,        // instant terminal: job finished normally
  kUnplaced,        // instant terminal: no cluster would take the job
  kEvicted,         // instant terminal (per placement): vacated off a cluster
  kFailed,          // instant terminal: cluster halted mid-run
};

[[nodiscard]] constexpr std::string_view to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kSubmission: return "submission";
    case SpanKind::kRfb: return "rfb";
    case SpanKind::kBid: return "bid";
    case SpanKind::kAward: return "award";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kRun: return "run";
    case SpanKind::kReconfig: return "reconfig";
    case SpanKind::kComplete: return "complete";
    case SpanKind::kUnplaced: return "unplaced";
    case SpanKind::kEvicted: return "evicted";
    case SpanKind::kFailed: return "failed";
  }
  return "?";
}

/// An instant span has end == start; an open one has end < 0.
struct Span {
  SpanId id;
  SpanId parent;  // invalid for roots
  SpanKind kind = SpanKind::kSubmission;
  /// Whether the span inherited a (cluster, job) when it started. A kRfb's
  /// bids carry its identity only then: a re-bid round's bids belong to the
  /// placement it inherited, a first round's bids to none.
  bool bound_at_start = false;
  std::uint32_t bids = 0;  // kRfb: bids recorded under it (SpanTracker::bids)
  double start = 0.0;
  double end = -1.0;
  ClusterId cluster;  // set once the job lands on a cluster
  JobId job;          // the ClusterManager-local job id (valid with cluster)
  UserId user;
  double value = 0.0;  // kind-specific: award price, procs, ...

  [[nodiscard]] bool open() const noexcept { return end < 0.0; }
  [[nodiscard]] bool instant() const noexcept { return end == start; }
};
static_assert(sizeof(Span) <= 72);

/// One received bid (§5.3). It takes a span id like any span, but a market
/// round draws one per matching server, so it is kept as this record instead
/// of a Span; SpanTracker::for_each hands it out as the instant kBid span it
/// stands for.
struct BidRecord {
  std::uint32_t rfb = 0;  // slot of its kRfb span in SpanTracker::spans()
  double time = 0.0;
  double price = 0.0;
};
static_assert(sizeof(BidRecord) <= 24);

/// One span (or bid) of a job's history as a structured row. AppSpector
/// renders these as text; the analyzer decomposes them.
struct TimelineRow {
  SpanId id;
  SpanKind kind = SpanKind::kSubmission;
  std::uint32_t bids = 0;  // kRfb: bids recorded under it
  double start = 0.0;
  double end = -1.0;  // < 0 while the span is still open
  double value = 0.0;

  [[nodiscard]] bool open() const noexcept { return end < 0.0; }
  [[nodiscard]] bool instant() const noexcept { return end == start; }
};

/// Orders rows by start time, ties by id: the order of every timeline.
inline void sort_rows(std::vector<TimelineRow>& rows) {
  std::sort(rows.begin(), rows.end(), [](const TimelineRow& a, const TimelineRow& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.id < b.id;
  });
}

[[nodiscard]] inline TimelineRow to_row(const Span& s) noexcept {
  TimelineRow row;
  row.id = s.id;
  row.kind = s.kind;
  row.bids = s.bids;
  row.start = s.start;
  row.end = s.end;
  row.value = s.value;
  return row;
}

/// Append-only store of spans and bids. Ids are dense over both and issued
/// in call order: spans() holds the spans in id order, bids() the bids, and
/// an id -> slot locator resolves an id to its span.
class SpanTracker {
 public:
  SpanId start_span(SpanKind kind, double now, SpanId parent = {}) {
    const SpanId id = start_local(kind, now, parent);
    ++open_spans_;
    if (kind == SpanKind::kSubmission) ++open_submissions_;
    return id;
  }

  /// Record an already-finished (instant) span; a bid is record_bid's.
  SpanId instant_span(SpanKind kind, double now, SpanId parent = {},
                      double value = 0.0) {
    if (kind == SpanKind::kBid) {
      throw std::invalid_argument("obs::SpanTracker: record a bid with record_bid");
    }
    const SpanId id = start_local(kind, now, parent);
    Span& s = spans_.back();
    s.end = now;
    s.value = value;
    return id;
  }

  /// Record a bid received at `now` under the kRfb span `rfb`; it takes the
  /// next span id.
  SpanId record_bid(SpanId rfb, double now, double price) {
    const std::size_t slot = slot_of(rfb);
    if (slot == kNpos || spans_[slot].kind != SpanKind::kRfb) {
      throw std::invalid_argument("obs::SpanTracker: a bid needs an RFB span");
    }
    const SpanId id = issue_id(kBidSlot);
    ++spans_[slot].bids;
    bids_.push_back({static_cast<std::uint32_t>(slot), now, price});
    return id;
  }

  void end_span(SpanId id, double now) {
    if (Span* s = find_mutable(id); s != nullptr && s->open()) {
      --open_spans_;
      if (s->kind == SpanKind::kSubmission) --open_submissions_;
      s->end = now;
    }
  }

  /// Open (un-ended) kSubmission root spans and open spans of every kind,
  /// both maintained incrementally (only start_span opens a span). At an
  /// event boundary the roots equal jobs still in flight; at a drained end
  /// both are zero (the audit's span-balance term).
  [[nodiscard]] std::uint64_t open_submissions() const noexcept {
    return open_submissions_;
  }
  [[nodiscard]] std::uint64_t open_spans() const noexcept { return open_spans_; }

  void set_value(SpanId id, double value) {
    if (Span* s = find_mutable(id)) s->value = value;
  }

  void set_user(SpanId id, UserId user) {
    if (Span* s = find_mutable(id)) s->user = user;
  }

  /// Attach a (cluster, job) identity to `id`, so for_job() can find the
  /// whole submission tree. Also back-fills ancestors that do not yet carry
  /// an identity, so client-side spans become queryable by JobId. This is
  /// the only way a span gets a job identity, and `job` is always valid.
  void bind_job(SpanId id, ClusterId cluster, JobId job) {
    Span* s = find_mutable(id);
    if (s == nullptr) return;
    for (Span* cur = s; cur != nullptr && !cur->cluster.valid();
         cur = find_mutable(cur->parent)) {
      cur->cluster = cluster;
      cur->job = job;
    }
    s->cluster = cluster;
    s->job = job;
  }

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Index of span `id` in spans(); kNpos when the id is invalid, out of
  /// range or a bid's.
  [[nodiscard]] std::size_t slot_of(SpanId id) const noexcept {
    if (!id.valid() || id.value() >= slot_of_.size()) return kNpos;
    const std::uint32_t slot = slot_of_[static_cast<std::size_t>(id.value())];
    return slot == kBidSlot ? kNpos : slot;
  }

  /// The span with id `id`; null for a bid's id and for unknown ids.
  [[nodiscard]] const Span* find(SpanId id) const {
    const std::size_t i = slot_of(id);
    return i != kNpos ? &spans_[i] : nullptr;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const std::deque<BidRecord>& bids() const noexcept { return bids_; }
  /// Every id issued: spans and bids.
  [[nodiscard]] std::size_t size() const noexcept { return slot_of_.size(); }

  /// Calls f(const Span&) for every id in id order. A bid comes as the
  /// instant kBid span it stands for: the RFB is its parent, it carries the
  /// RFB's user, and the RFB's (cluster, job) when the RFB had one at its
  /// start.
  template <typename F>
  void for_each(F&& f) const {
    std::size_t next_bid = 0;
    for (std::size_t i = 0; i < slot_of_.size(); ++i) {
      if (slot_of_[i] == kBidSlot) {
        f(bid_span(SpanId{i}, bids_[next_bid++]));
      } else {
        f(spans_[slot_of_[i]]);
      }
    }
  }

  /// Rows of the spans and bids bound to (cluster, job) plus every ancestor
  /// of those, deduplicated and ordered by start time (ties: by id). This
  /// is the full causal history of one placement, root first. Empty for an
  /// invalid `job`: no span is ever bound to one.
  [[nodiscard]] std::vector<TimelineRow> for_job(ClusterId cluster, JobId job) const;

  /// Walk parent links from `leaf` to the root; returns root-first.
  [[nodiscard]] std::vector<const Span*> chain_of(SpanId leaf) const {
    std::vector<const Span*> out;
    for (const Span* s = find(leaf); s != nullptr; s = find(s->parent)) {
      out.push_back(s);
      if (!s->parent.valid()) break;
    }
    std::vector<const Span*> root_first(out.rbegin(), out.rend());
    return root_first;
  }

 private:
  /// The locator's mark for a bid's id; no span slot reaches it, because
  /// issue_id() stops at 2^32 - 1 ids.
  static constexpr std::uint32_t kBidSlot = std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] Span bid_span(SpanId id, const BidRecord& bid) const noexcept {
    const Span& rfb = spans_[bid.rfb];
    Span s;
    s.id = id;
    s.parent = rfb.id;
    s.kind = SpanKind::kBid;
    s.start = bid.time;
    s.end = bid.time;
    if (rfb.bound_at_start) {
      s.cluster = rfb.cluster;
      s.job = rfb.job;
    }
    s.user = rfb.user;
    s.value = bid.price;
    return s;
  }

  SpanId issue_id(std::uint32_t slot) {
    if (slot_of_.size() >= kBidSlot) {
      throw std::length_error("obs::SpanTracker: more than 2^32 - 1 span ids");
    }
    slot_of_.push_back(slot);
    return SpanId{slot_of_.size() - 1};
  }

  SpanId start_local(SpanKind kind, double now, SpanId parent) {
    Span s;
    s.id = issue_id(static_cast<std::uint32_t>(spans_.size()));
    s.parent = parent;
    s.kind = kind;
    s.start = now;
    if (const std::size_t pi = slot_of(parent); pi != kNpos) {
      const Span& p = spans_[pi];
      s.cluster = p.cluster;
      s.job = p.job;
      s.user = p.user;
      s.bound_at_start = s.cluster.valid();
    }
    spans_.push_back(s);
    return s.id;
  }

  [[nodiscard]] Span* find_mutable(SpanId id) {
    const std::size_t i = slot_of(id);
    return i != kNpos ? &spans_[i] : nullptr;
  }

  std::vector<Span> spans_;
  /// Never copies on growth: a broadcast round adds one record per server.
  std::deque<BidRecord> bids_;
  std::vector<std::uint32_t> slot_of_;  // id -> slot in spans_, or kBidSlot
  std::uint64_t open_submissions_ = 0;
  std::uint64_t open_spans_ = 0;
};

}  // namespace faucets::obs
