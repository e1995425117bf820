#include "src/obs/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/obs/metrics.hpp"

namespace faucets::obs {

namespace {

/// children[i] = slots of the spans whose parent is spans()[i]. Bids are no
/// one's children here: each kRfb span counts its own.
std::vector<std::vector<std::size_t>> build_children(const SpanTracker& spans) {
  const std::vector<Span>& all = spans.spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (const std::size_t p = spans.slot_of(all[i].parent); p != SpanTracker::kNpos) {
      children[p].push_back(i);
    }
  }
  return children;
}

/// Rows of the spans (not the bids) of the tree at slot `root_slot`, unsorted.
std::vector<TimelineRow> collect_subtree(
    const SpanTracker& spans, std::size_t root_slot,
    const std::vector<std::vector<std::size_t>>& children) {
  const std::vector<Span>& all = spans.spans();
  std::vector<TimelineRow> rows;
  std::vector<std::size_t> stack{root_slot};
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    rows.push_back(to_row(all[i]));
    for (const std::size_t c : children[i]) stack.push_back(c);
  }
  return rows;
}

struct Interval {
  double a = 0.0;
  double b = 0.0;
};

bool covers(const std::vector<Interval>& ivs, double t) noexcept {
  for (const Interval& iv : ivs) {
    if (iv.a <= t && t < iv.b) return true;
  }
  return false;
}

/// Kahan-compensated accumulator so the six phase sums telescope back to the
/// makespan within 1e-9 even over thousands of tiny segments.
struct Compensated {
  double sum = 0.0;
  double c = 0.0;

  void add(double v) noexcept {
    const double y = v - c;
    const double t = sum + y;
    c = (t - sum) - y;
    sum = t;
  }
};

}  // namespace

std::string format_timeline_row(const TimelineRow& row) {
  std::ostringstream line;
  line << "[" << row.start;
  if (row.open()) {
    line << " ..)";
  } else {
    line << " " << row.end << ")";
  }
  line << " " << to_string(row.kind);
  if (row.value != 0.0) line << " value=" << row.value;
  return line.str();
}

JobPhaseRecord decompose_rows(const std::vector<TimelineRow>& rows,
                              const TimelineRow& root) {
  JobPhaseRecord rec;
  rec.root = root.id;
  rec.submit = root.start;
  rec.end = root.open() ? root.start : root.end;

  std::vector<Interval> run, queue, award, rfb;
  std::vector<double> boundaries{rec.submit, rec.end};
  double first_run_start = std::numeric_limits<double>::infinity();
  double best_terminal = -std::numeric_limits<double>::infinity();
  std::uint64_t best_terminal_id = 0;

  const auto add_interval = [&](std::vector<Interval>& bucket, double a, double b) {
    a = std::max(a, rec.submit);
    b = std::min(b, rec.end);
    if (a >= b) return;
    bucket.push_back({a, b});
    boundaries.push_back(a);
    boundaries.push_back(b);
  };

  for (const TimelineRow& row : rows) {
    if (row.id == root.id) continue;
    // A child left open inside a closed submission (engine stopped mid-flight)
    // is clamped to the submission's end.
    const double end = row.open() ? rec.end : row.end;
    switch (row.kind) {
      case SpanKind::kRun:
        first_run_start = std::min(first_run_start, std::max(row.start, rec.submit));
        add_interval(run, row.start, end);
        break;
      case SpanKind::kQueue:
        add_interval(queue, row.start, end);
        break;
      case SpanKind::kAward:
        ++rec.award_attempts;
        add_interval(award, row.start, end);
        break;
      case SpanKind::kRfb:
        ++rec.rfb_rounds;
        rec.bids += row.bids;
        add_interval(rfb, row.start, end);
        break;
      case SpanKind::kReconfig:
        ++rec.reconfigs;
        break;
      case SpanKind::kEvicted:
        ++rec.evictions;
        [[fallthrough]];
      case SpanKind::kComplete:
      case SpanKind::kUnplaced:
      case SpanKind::kFailed:
        if (row.start > best_terminal ||
            (row.start == best_terminal && row.id.value() > best_terminal_id)) {
          best_terminal = row.start;
          best_terminal_id = row.id.value();
          rec.outcome = row.kind;
        }
        break;
      default:
        break;
    }
  }

  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());

  std::array<Compensated, kPhaseCount> acc{};
  const auto credit = [&](Phase p, double dt) {
    acc[static_cast<std::size_t>(p)].add(dt);
  };
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const double t0 = boundaries[i];
    const double t1 = boundaries[i + 1];
    if (t1 <= rec.submit || t0 >= rec.end) continue;
    const double mid = t0 + (t1 - t0) / 2.0;
    const double dt = t1 - t0;
    // Exclusive priority: run > queue > award > bid wait > other. Queue time
    // after the job first ran is reconfiguration churn, not admission wait.
    if (covers(run, mid)) {
      credit(Phase::kRun, dt);
    } else if (covers(queue, mid)) {
      credit(t0 >= first_run_start ? Phase::kReconfig : Phase::kQueueWait, dt);
    } else if (covers(award, mid)) {
      credit(Phase::kAwardWait, dt);
    } else if (covers(rfb, mid)) {
      credit(Phase::kBidWait, dt);
    } else {
      credit(Phase::kOther, dt);
    }
  }
  for (std::size_t p = 0; p < kPhaseCount; ++p) rec.phase_seconds[p] = acc[p].sum;
  return rec;
}

SpanAnalysis analyze_spans(const SpanTracker& spans) {
  SpanAnalysis out;
  const std::vector<Span>& all = spans.spans();
  const std::vector<std::vector<std::size_t>> children = build_children(spans);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& root = all[i];
    if (root.kind != SpanKind::kSubmission || root.parent.valid()) continue;
    if (root.open()) {
      ++out.open_roots;
      continue;
    }
    std::vector<TimelineRow> rows = collect_subtree(spans, i, children);
    sort_rows(rows);
    JobPhaseRecord rec = decompose_rows(rows, to_row(root));
    rec.user = root.user;
    // Identity of the last placement: bind_job back-fills ancestors with the
    // first placement, so prefer the latest-starting span carrying one. Bids
    // are not candidates: a bid carries its round's identity, and the round
    // is one.
    rec.cluster = root.cluster;
    rec.job = root.job;
    for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
      if (const Span* s = spans.find(it->id); s != nullptr && s->cluster.valid()) {
        rec.cluster = s->cluster;
        rec.job = s->job;
        break;
      }
    }
    out.jobs.push_back(rec);
  }
  return out;
}

std::array<double, kPhaseCount> SpanAnalysis::mean_phases() const {
  std::array<double, kPhaseCount> out{};
  if (jobs.empty()) return out;
  for (const JobPhaseRecord& rec : jobs) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) out[p] += rec.phase_seconds[p];
  }
  for (double& v : out) v /= static_cast<double>(jobs.size());
  return out;
}

double SpanAnalysis::phase_quantile(Phase phase, double q) const {
  if (jobs.empty()) return 0.0;
  std::vector<double> values;
  values.reserve(jobs.size());
  for (const JobPhaseRecord& rec : jobs) values.push_back(rec.phase(phase));
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[rank - 1];
}

std::size_t SpanAnalysis::count_outcome(SpanKind kind) const {
  std::size_t n = 0;
  for (const JobPhaseRecord& rec : jobs) {
    if (rec.outcome == kind) ++n;
  }
  return n;
}

void observe_phase_histograms(MetricsRegistry& metrics,
                              const SpanAnalysis& analysis) {
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    std::string name = "faucets_phase_seconds{phase=\"";
    name += to_string(phase);
    name += "\"}";
    Histogram& h = metrics.histogram(name, exponential_buckets(0.01, 2.0, 26),
                                     "Seconds per exclusive latency phase");
    for (const JobPhaseRecord& rec : analysis.jobs) h.observe(rec.phase(phase));
  }
}

void DeadlineRow::add(bool finished, double finish_time, bool has_deadline,
                      double soft_deadline, double hard_deadline,
                      double realized, double max_payoff) {
  ++jobs;
  payoff_realized += realized;
  payoff_max += max_payoff;
  if (!finished) {
    ++unfinished;
    return;
  }
  if (!has_deadline || finish_time <= soft_deadline) {
    ++met_soft;
  } else if (finish_time <= hard_deadline) {
    ++met_hard;
  } else {
    ++penalized;
  }
}

}  // namespace faucets::obs
