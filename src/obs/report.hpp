// Human-facing run reports derived from the observability bundle.
//
//  - write_html_report: one self-contained HTML file (inline CSS + SVG, no
//    external assets, no scripts) with a chart per sampled series and the
//    analyzer's phase/deadline tables. Open it in any browser.
//  - write_phases_csv: the analyzer's per-job phase records, one CSV row per
//    submission (spreadsheet-ready).
//  - write_series_csv: every sampled series point as CSV.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/analyzer.hpp"
#include "src/obs/live/monitor.hpp"

namespace faucets::obs {

class Sampler;
class TraceBuffer;

struct ReportOptions {
  std::string title = "Faucets grid report";
  /// The live plane's monitor states (DESIGN.md §15.3): each monitor with
  /// alerts gets a row in an Alerts table. Without alerts (the default) the
  /// section is omitted.
  live::MonitorStates monitors{};
};

/// Render the whole run as a single HTML document. `users` / `clusters` may
/// be empty (the deadline tables are omitted); `trace` adds a data-loss
/// banner when the ring dropped events.
void write_html_report(std::ostream& os, const Sampler& sampler,
                       const SpanAnalysis& analysis,
                       const std::vector<DeadlineRow>& users,
                       const std::vector<DeadlineRow>& clusters,
                       const TraceBuffer* trace = nullptr,
                       const ReportOptions& options = {});

void write_phases_csv(std::ostream& os, const SpanAnalysis& analysis);

void write_series_csv(std::ostream& os, const Sampler& sampler);

}  // namespace faucets::obs
