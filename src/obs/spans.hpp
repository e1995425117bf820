// Per-job lifecycle spans with causal parent links.
//
// Each submission produces a tree: a root kSubmission span, a kRfb child for
// the broadcast round, instant kBid children as bids arrive, a kAward child
// per award attempt, then — once a Compute Server accepts — kQueue/kRun spans
// alternating through vacate/resume cycles, instant kReconfig marks for
// shrink/expand, and a terminal kComplete / kUnplaced / kEvicted / kFailed.
// AppSpector and the Chrome-trace exporter consume this instead of
// string-filtering the trace, and the causality test walks chain_of() to
// check time ordering along every parent link.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/util/ids.hpp"

namespace faucets::obs {

enum class SpanKind : std::uint8_t {
  kSubmission = 0,  // root: client submit -> terminal outcome
  kRfb,             // directory lookup + request-for-bids broadcast round
  kBid,             // instant: one bid received (value = offered price)
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
  double start = 0.0;
  double end = -1.0;
  EntityId entity;    // who opened the span
  ClusterId cluster;  // set once the job lands on a cluster
  JobId job;          // the ClusterManager-local job id (valid with cluster)
  UserId user;
  double value = 0.0;  // kind-specific: bid price, award price, procs, ...

  [[nodiscard]] bool open() const noexcept { return end < 0.0; }
  [[nodiscard]] bool instant() const noexcept { return end == start; }
};

/// Append-only store of spans; ids are dense indices into the store.
class SpanTracker {
 public:
  SpanId start_span(SpanKind kind, double now, EntityId entity,
                    SpanId parent = {}) {
    const SpanId id{spans_.size()};
    start_local(id, kind, now, entity, parent);
    ++open_spans_;
    if (kind == SpanKind::kSubmission) ++open_submissions_;
    return id;
  }

  /// Record an already-finished (instant) span.
  SpanId instant_span(SpanKind kind, double now, EntityId entity,
                      SpanId parent = {}, double value = 0.0) {
    const SpanId id{spans_.size()};
    Span& s = start_local(id, kind, now, entity, parent);
    s.end = now;
    s.value = value;
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

  [[nodiscard]] const Span* find(SpanId id) const {
    const std::size_t i = local_index(id);
    return i != kNpos ? &spans_[i] : nullptr;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  [[nodiscard]] std::vector<const Span*> children_of(SpanId parent) const {
    std::vector<const Span*> out;
    for (const Span& s : spans_) {
      if (s.parent == parent) out.push_back(&s);
    }
    return out;
  }

  /// Spans bound to (cluster, job) plus every ancestor of those spans,
  /// deduplicated and ordered by start time (ties: by id). This is the full
  /// causal history of one placement, root first. Empty for an invalid
  /// `job`: no span is ever bound to one.
  [[nodiscard]] std::vector<const Span*> for_job(ClusterId cluster, JobId job) const;

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
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Dense index of `id` in the store, kNpos when the id is invalid or out
  /// of range.
  [[nodiscard]] std::size_t local_index(SpanId id) const noexcept {
    if (!id.valid() || id.value() >= spans_.size()) return kNpos;
    return static_cast<std::size_t>(id.value());
  }

  Span& start_local(SpanId id, SpanKind kind, double now, EntityId entity,
                    SpanId parent) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.kind = kind;
    s.start = now;
    s.entity = entity;
    if (const std::size_t pi = local_index(parent); pi != kNpos) {
      const Span& p = spans_[pi];
      s.cluster = p.cluster;
      s.job = p.job;
      s.user = p.user;
    }
    spans_.push_back(s);
    return spans_.back();
  }

  [[nodiscard]] Span* find_mutable(SpanId id) {
    const std::size_t i = local_index(id);
    return i != kNpos ? &spans_[i] : nullptr;
  }

  std::vector<Span> spans_;
  std::uint64_t open_submissions_ = 0;
  std::uint64_t open_spans_ = 0;
};

}  // namespace faucets::obs
