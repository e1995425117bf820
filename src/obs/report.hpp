// Human-facing run reports derived from the observability bundle.
//
//  - write_html_report: one self-contained HTML file (inline CSS + SVG, no
//    external assets, no scripts) with a chart per sampled series and the
//    analyzer's phase/deadline tables. Open it in any browser.
//  - write_phases_csv: the analyzer's per-job phase records, one CSV row per
//    submission (spreadsheet-ready).
//  - write_series_csv: every sampled series point as CSV.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/analyzer.hpp"

namespace faucets::obs {

class Sampler;
class TraceView;

/// One online monitor's outcome for the report's Alerts table (populated
/// from the live plane's MonitorState rows; see DESIGN.md §15.3).
struct AlertRow {
  std::string monitor;         // e.g. "lease_leak"
  std::uint64_t count = 0;     // rising edges into violation
  double first_sim_time = 0.0;
  double last_sim_time = 0.0;
  double last_observed = 0.0;
  double threshold = 0.0;
};

struct ReportOptions {
  std::string title = "Faucets grid report";
  /// Online monitor alerts; empty (the default) omits the Alerts section
  /// entirely, so reports stay byte-identical when nothing fired.
  std::vector<AlertRow> alerts;
};

/// Render the whole run as a single HTML document. `users` / `clusters` may
/// be empty (the deadline tables are omitted); `trace` adds a data-loss
/// banner when the ring dropped events.
void write_html_report(std::ostream& os, const Sampler& sampler,
                       const SpanAnalysis& analysis,
                       const std::vector<DeadlineRow>& users,
                       const std::vector<DeadlineRow>& clusters,
                       const TraceView* trace = nullptr,
                       const ReportOptions& options = {});

void write_phases_csv(std::ostream& os, const SpanAnalysis& analysis);

void write_series_csv(std::ostream& os, const Sampler& sampler);

}  // namespace faucets::obs
