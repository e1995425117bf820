#include "src/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>

#include "src/obs/exporters.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/util/ids.hpp"

namespace faucets::obs {
namespace {

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string html_escape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

template <typename Tag>
std::string id_or_dash(Id<Tag> id) {
  return id.valid() ? std::to_string(id.value()) : "-";
}

/// Series names carry {cluster="..."} label blocks, so CSV-quote them with
/// internal quotes doubled.
std::string csv_quote(std::string_view in) {
  std::string out = "\"";
  for (const char c : in) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// ------------------------------------------------------------------ charts

/// One series as a 720x150 inline SVG: a min..max band behind the
/// per-point mean line, with the value range and time range as corner
/// labels.
void svg_series(std::ostream& os, const Series& s) {
  constexpr int width = 720;
  constexpr int height = 150;
  const std::vector<SamplePoint>& pts = s.points();
  os << "<figure class=\"chart\"><figcaption>" << html_escape(s.name());
  if (!s.unit().empty()) os << " <small>(" << html_escape(s.unit()) << ")</small>";
  os << "</figcaption>\n";
  if (pts.empty()) {
    os << "<p class=\"empty\">no samples</p></figure>\n";
    return;
  }

  constexpr int kPad = 6;
  const double t0 = pts.front().t_begin;
  const double t1 = std::max(pts.back().t_end, t0 + 1e-12);
  double lo = pts.front().min;
  double hi = pts.front().max;
  for (const SamplePoint& p : pts) {
    lo = std::min(lo, p.min);
    hi = std::max(hi, p.max);
  }
  if (hi <= lo) hi = lo + 1.0;  // flat series still gets a visible line

  const auto x_of = [&](double t) {
    return kPad + (t - t0) / (t1 - t0) * (width - 2 * kPad);
  };
  const auto y_of = [&](double v) {
    return height - kPad - (v - lo) / (hi - lo) * (height - 2 * kPad);
  };
  const auto mid = [](const SamplePoint& p) {
    return p.t_begin + (p.t_end - p.t_begin) / 2.0;
  };

  os << "<svg viewBox=\"0 0 " << width << ' ' << height << "\" width=\"" << width
     << "\" height=\"" << height << "\" role=\"img\">\n";
  // min..max envelope: forward along the maxima, back along the minima.
  os << "<polygon class=\"band\" points=\"";
  for (const SamplePoint& p : pts) {
    os << fmt(x_of(mid(p))) << ',' << fmt(y_of(p.max)) << ' ';
  }
  for (auto it = pts.rbegin(); it != pts.rend(); ++it) {
    os << fmt(x_of(mid(*it))) << ',' << fmt(y_of(it->min)) << ' ';
  }
  os << "\"/>\n";
  os << "<polyline class=\"mean\" points=\"";
  for (const SamplePoint& p : pts) {
    os << fmt(x_of(mid(p))) << ',' << fmt(y_of(p.mean())) << ' ';
  }
  os << "\"/>\n";
  os << "<text class=\"lbl\" x=\"" << kPad << "\" y=\"12\">" << fmt(hi)
     << "</text>\n";
  os << "<text class=\"lbl\" x=\"" << kPad << "\" y=\"" << height - kPad - 2
     << "\">" << fmt(lo) << "</text>\n";
  os << "<text class=\"lbl\" x=\"" << width - kPad
     << "\" y=\"" << height - kPad - 2 << "\" text-anchor=\"end\">t=" << fmt(t0)
     << "&#8230;" << fmt(t1) << "s</text>\n";
  os << "</svg></figure>\n";
}

// ------------------------------------------------------------------ tables

void phase_table(std::ostream& os, const SpanAnalysis& analysis) {
  os << "<table><thead><tr><th>phase</th><th>mean&nbsp;s</th><th>p50</th>"
        "<th>p95</th><th>p99</th><th>share</th></tr></thead><tbody>\n";
  const std::array<double, kPhaseCount> means = analysis.mean_phases();
  double total = 0.0;
  for (const double m : means) total += m;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    os << "<tr><td>" << to_string(phase) << "</td><td>" << fmt(means[p])
       << "</td><td>" << fmt(analysis.phase_quantile(phase, 0.50)) << "</td><td>"
       << fmt(analysis.phase_quantile(phase, 0.95)) << "</td><td>"
       << fmt(analysis.phase_quantile(phase, 0.99)) << "</td><td>"
       << fmt(total > 0.0 ? 100.0 * means[p] / total : 0.0) << "%</td></tr>\n";
  }
  os << "</tbody></table>\n";
}

void outcome_table(std::ostream& os, const SpanAnalysis& analysis) {
  os << "<table><thead><tr><th>outcome</th><th>jobs</th></tr></thead><tbody>\n";
  for (const SpanKind kind : {SpanKind::kComplete, SpanKind::kUnplaced,
                              SpanKind::kEvicted, SpanKind::kFailed}) {
    const std::size_t n = analysis.count_outcome(kind);
    if (n == 0) continue;
    os << "<tr><td>" << to_string(kind) << "</td><td>" << n << "</td></tr>\n";
  }
  os << "</tbody></table>\n";
}

void deadline_table(std::ostream& os, const char* scope_header,
                    const std::vector<DeadlineRow>& rows) {
  os << "<table><thead><tr><th>" << scope_header
     << "</th><th>jobs</th><th>met soft</th><th>met hard</th>"
        "<th>penalized</th><th>unfinished</th><th>payoff</th>"
        "<th>max payoff</th></tr></thead><tbody>\n";
  for (const DeadlineRow& r : rows) {
    os << "<tr><td>" << html_escape(r.scope) << "</td><td>" << r.jobs
       << "</td><td>" << r.met_soft << "</td><td>" << r.met_hard << "</td><td>"
       << r.penalized << "</td><td>" << r.unfinished << "</td><td>"
       << fmt(r.payoff_realized) << "</td><td>" << fmt(r.payoff_max)
       << "</td></tr>\n";
  }
  os << "</tbody></table>\n";
}

constexpr std::string_view kStyle = R"css(
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 60em;
       padding: 0 1em; color: #1a202c; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #cbd5e0; padding: 0.25em 0.7em; text-align: right; }
th:first-child, td:first-child { text-align: left; }
thead { background: #edf2f7; }
figure.chart { margin: 1.2em 0; }
figcaption { font-weight: 600; margin-bottom: 0.3em; }
svg { background: #f7fafc; border: 1px solid #cbd5e0; }
.band { fill: #bee3f8; stroke: none; }
.mean { fill: none; stroke: #2b6cb0; stroke-width: 1.5; }
.lbl { font-size: 10px; fill: #4a5568; }
.warn { background: #fff5f5; border: 1px solid #fc8181; padding: 0.6em 1em; }
.empty { color: #718096; font-style: italic; }
)css";

}  // namespace

void write_html_report(std::ostream& os, const Sampler& sampler,
                       const SpanAnalysis& analysis,
                       const std::vector<DeadlineRow>& users,
                       const std::vector<DeadlineRow>& clusters,
                       const TraceView* trace, const ReportOptions& options) {
  os << "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n"
     << "<title>" << html_escape(options.title) << "</title>\n"
     << "<style>" << kStyle << "</style></head>\n<body>\n"
     << "<h1>" << html_escape(options.title) << "</h1>\n";

  if (trace != nullptr && trace->dropped() > 0) {
    os << "<p class=\"warn\">Trace ring dropped " << trace->dropped() << " of "
       << trace->total_recorded()
       << " events; trace-derived views are truncated (metrics, spans, and "
          "samples are unaffected).</p>\n";
  }

  os << "<p>" << analysis.jobs.size() << " submissions analyzed";
  if (analysis.open_roots > 0) {
    os << " (" << analysis.open_roots << " still open at the end of the run)";
  }
  os << ", " << sampler.series_count() << " sampled series, "
     << sampler.samples_taken() << " sampler snapshots.</p>\n";

  if (!analysis.jobs.empty()) {
    os << "<h2>Where the time went</h2>\n";
    phase_table(os, analysis);
    os << "<h2>Outcomes</h2>\n";
    outcome_table(os, analysis);
  }

  if (!options.alerts.empty()) {
    os << "<h2>Alerts</h2>\n"
       << "<p class=\"warn\">Online invariant monitors fired during this "
          "run.</p>\n"
       << "<table><thead><tr><th>monitor</th><th>alerts</th>"
          "<th>first&nbsp;sim&nbsp;t</th><th>last&nbsp;sim&nbsp;t</th>"
          "<th>last&nbsp;observed</th><th>threshold</th></tr></thead><tbody>\n";
    for (const AlertRow& a : options.alerts) {
      os << "<tr><td>" << html_escape(a.monitor) << "</td><td>" << a.count
         << "</td><td>" << json_number(a.first_sim_time) << "</td><td>"
         << json_number(a.last_sim_time) << "</td><td>"
         << json_number(a.last_observed) << "</td><td>"
         << json_number(a.threshold) << "</td></tr>\n";
    }
    os << "</tbody></table>\n";
  }

  if (!users.empty() || !clusters.empty()) {
    os << "<h2>Deadline accounting</h2>\n";
    if (!clusters.empty()) deadline_table(os, "cluster", clusters);
    if (!users.empty()) deadline_table(os, "user", users);
  }

  if (sampler.series_count() > 0) {
    os << "<h2>Time series</h2>\n";
    sampler.for_each([&](const Series& s) {
      svg_series(os, s);
    });
  }

  os << "</body></html>\n";
}

// CSV values round-trip exactly (json_number): the balance invariant is
// checked on the emitted text, so %.6g's rounding (~1e-3 over 1e4-second
// makespans) would break it.
void write_phases_csv(std::ostream& os, const SpanAnalysis& analysis) {
  os << "root,user,cluster,job,submit,end,makespan,outcome";
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    os << ',' << to_string(static_cast<Phase>(p));
  }
  os << ",bids,rfb_rounds,award_attempts,reconfigs,evictions\n";
  for (const JobPhaseRecord& rec : analysis.jobs) {
    os << rec.root.value() << ',' << id_or_dash(rec.user) << ','
       << id_or_dash(rec.cluster) << ',' << id_or_dash(rec.job) << ','
       << json_number(rec.submit) << ',' << json_number(rec.end) << ','
       << json_number(rec.makespan()) << ',' << to_string(rec.outcome);
    for (const double v : rec.phase_seconds) os << ',' << json_number(v);
    os << ',' << rec.bids << ',' << rec.rfb_rounds << ',' << rec.award_attempts
       << ',' << rec.reconfigs << ',' << rec.evictions << '\n';
  }
}

void write_series_csv(std::ostream& os, const Sampler& sampler) {
  os << "series,unit,t_begin,t_end,min,mean,max,count\n";
  sampler.for_each([&](const Series& s) {
    for (const SamplePoint& p : s.points()) {
      os << csv_quote(s.name()) << ',' << s.unit() << ',' << json_number(p.t_begin)
         << ',' << json_number(p.t_end) << ',' << json_number(p.min) << ','
         << json_number(p.mean()) << ',' << json_number(p.max) << ',' << p.count
         << '\n';
    }
  });
}

}  // namespace faucets::obs
