// Telemetry analytics over completed span trees (the sacct/sstat-style
// derived accounting the raw recorders lack).
//
// SpanAnalyzer walks every closed submission tree in a SpanTracker and
// attributes the submission's makespan to *exclusive* phases:
//
//   bid_wait    — inside a request-for-bids round (kRfb)
//   award_wait  — inside an award attempt (kAward), incl. reserve/commit
//                 retries and their backoff timers
//   queue_wait  — queued on a Compute Server before the job first ran
//   run         — processors actually allocated (kRun)
//   reconfig    — queued *after* the job first ran: vacate/resume and
//                 shrink/expand churn, i.e. time lost to reconfiguration
//   other       — everything uncovered: message latency, bid-round backoff
//                 gaps between RFB rounds, watchdog waits
//
// At every instant of [root.start, root.end] exactly one phase wins
// (priority run > queue > award > bid_wait > other), so the six phase
// durations partition the makespan: sum(phases) == root.end - root.start
// within 1e-9 sim-seconds (Kahan-compensated; the invariant is enforced by
// tests/core/telemetry_test.cpp over a full chaos grid).
//
// The structured TimelineRow (spans.hpp) is shared with AppSpector: its
// human-readable job_timeline() is a thin formatter over
// SpanTracker::for_job(), so the analyzer and the monitoring surface read
// one row type.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/spans.hpp"
#include "src/util/ids.hpp"

namespace faucets::obs {

class MetricsRegistry;

// ------------------------------------------------------------ timeline rows

/// The one human-readable rendering of a row, e.g. "[12 157) run value=8".
[[nodiscard]] std::string format_timeline_row(const TimelineRow& row);

// ------------------------------------------------------------------- phases

enum class Phase : std::uint8_t {
  kBidWait = 0,
  kAwardWait,
  kQueueWait,
  kRun,
  kReconfig,
  kOther,
};

inline constexpr std::size_t kPhaseCount = 6;

[[nodiscard]] constexpr std::string_view to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::kBidWait: return "bid_wait";
    case Phase::kAwardWait: return "award_wait";
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kRun: return "run";
    case Phase::kReconfig: return "reconfig";
    case Phase::kOther: return "other";
  }
  return "?";
}

/// Where one submission's time went, plus its event counts and outcome.
struct JobPhaseRecord {
  SpanId root;
  UserId user;
  ClusterId cluster;  // last placement; invalid if never placed
  JobId job;          // daemon-side id of the last placement
  double submit = 0.0;
  double end = 0.0;
  SpanKind outcome = SpanKind::kSubmission;  // terminal kind; kSubmission = none found
  std::array<double, kPhaseCount> phase_seconds{};
  std::uint32_t bids = 0;           // bids received over the kRfb rounds
  std::uint32_t rfb_rounds = 0;     // kRfb spans (re-bid rounds under chaos)
  std::uint32_t award_attempts = 0; // kAward spans
  std::uint32_t reconfigs = 0;      // kReconfig instants (shrink/expand)
  std::uint32_t evictions = 0;      // kEvicted instants (per placement)

  [[nodiscard]] double makespan() const noexcept { return end - submit; }
  [[nodiscard]] double phase(Phase p) const noexcept {
    return phase_seconds[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] double phase_sum() const noexcept {
    double s = 0.0;
    for (const double v : phase_seconds) s += v;
    return s;
  }
  [[nodiscard]] bool completed() const noexcept {
    return outcome == SpanKind::kComplete;
  }
};

/// Decompose one submission tree given as rows. `root` must be the first
/// closed kSubmission row of `rows`; exposed separately so tests can feed
/// synthetic timelines. Bids are counted from the kRfb rows' `bids`, so
/// kBid rows add nothing.
[[nodiscard]] JobPhaseRecord decompose_rows(const std::vector<TimelineRow>& rows,
                                            const TimelineRow& root);

/// Everything the analyzer derived from one SpanTracker.
struct SpanAnalysis {
  /// One record per *closed* submission root, in root-span-id order (the
  /// deterministic output contract sweeps rely on).
  std::vector<JobPhaseRecord> jobs;
  /// Submission roots skipped because they were still open.
  std::size_t open_roots = 0;

  /// Mean seconds per phase over all analyzed jobs (0 when empty).
  [[nodiscard]] std::array<double, kPhaseCount> mean_phases() const;
  /// Exact q-quantile (nearest-rank) of one phase's per-job durations.
  [[nodiscard]] double phase_quantile(Phase phase, double q) const;
  [[nodiscard]] std::size_t count_outcome(SpanKind kind) const;
};

/// Walk every submission tree of `spans` and decompose it.
[[nodiscard]] SpanAnalysis analyze_spans(const SpanTracker& spans);

/// Feed each analyzed job's phase durations into per-phase histograms
/// `faucets_phase_seconds{phase="..."}` so the Prometheus export carries
/// p50/p95/p99 per phase.
void observe_phase_histograms(MetricsRegistry& metrics,
                              const SpanAnalysis& analysis);

// --------------------------------------------------- deadline accounting

/// Deadline-outcome accounting for one scope (a user or a cluster): how
/// many submissions met the soft deadline, slipped into the soft→hard
/// window, were penalized past the hard deadline, or never finished — and
/// how much payoff was realized against the maximum the contracts offered.
struct DeadlineRow {
  std::string scope;
  std::uint64_t jobs = 0;
  std::uint64_t met_soft = 0;
  std::uint64_t met_hard = 0;    // finished in (soft, hard]
  std::uint64_t penalized = 0;   // finished after the hard deadline
  std::uint64_t unfinished = 0;  // unplaced / failed / timed out
  double payoff_realized = 0.0;
  double payoff_max = 0.0;

  /// Fold one finished (or abandoned) submission into the row.
  void add(bool finished, double finish_time, bool has_deadline,
           double soft_deadline, double hard_deadline, double realized,
           double max_payoff);
};

}  // namespace faucets::obs
