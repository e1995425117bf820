// HTML / CSV report writers: self-contained output, escaping, data-loss
// banner, and the CSV shapes downstream tooling parses.
#include "src/obs/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/obs/sampler.hpp"
#include "src/obs/spans.hpp"
#include "src/obs/trace.hpp"

namespace faucets::obs {
namespace {

SpanAnalysis small_analysis() {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  t.set_user(root, UserId{2});
  const SpanId q = t.start_span(SpanKind::kQueue, 1.0, root);
  t.bind_job(q, ClusterId{0}, JobId{5});
  t.end_span(q, 4.0);
  const SpanId r = t.start_span(SpanKind::kRun, 4.0, q);
  t.end_span(r, 10.0);
  t.instant_span(SpanKind::kComplete, 10.0, r);
  t.end_span(root, 10.0);
  return analyze_spans(t);
}

Sampler small_sampler() {
  Sampler s;
  double v = 0.0;
  s.add_series("faucets_cluster_utilization{cluster=\"turing\"}",
               [&v] { return v; }, "fraction", 8);
  for (int i = 0; i < 6; ++i) {
    v = 0.1 * i;
    s.sample(static_cast<double>(i));
  }
  return s;
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(HtmlReport, SelfContainedDocumentWithChartsAndTables) {
  const SpanAnalysis analysis = small_analysis();
  const Sampler sampler = small_sampler();
  std::vector<DeadlineRow> users(1), clusters(1);
  users[0].scope = "user0";
  users[0].add(true, 10.0, true, 20.0, 40.0, 5.0, 5.0);
  clusters[0].scope = "turing & co <1>";
  clusters[0].add(true, 10.0, true, 20.0, 40.0, 5.0, 5.0);

  std::ostringstream os;
  write_html_report(os, sampler, analysis, users, clusters);
  const std::string html = os.str();

  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  // Self-contained: inline style and SVG, no external fetches or scripts.
  EXPECT_NE(html.find("<style>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  // Phase table and outcome table made it in.
  EXPECT_NE(html.find("Where the time went"), std::string::npos);
  EXPECT_NE(html.find("queue_wait"), std::string::npos);
  EXPECT_NE(html.find("complete"), std::string::npos);
  // Scope names are escaped, series names too.
  EXPECT_NE(html.find("turing &amp; co &lt;1&gt;"), std::string::npos);
  EXPECT_NE(html.find("faucets_cluster_utilization{cluster=&quot;turing&quot;}"),
            std::string::npos);
  // 1 submission analyzed, 1 series, 6 snapshots show in the summary.
  EXPECT_NE(html.find("1 submissions analyzed"), std::string::npos);
  EXPECT_NE(html.find("6 sampler snapshots"), std::string::npos);
  // No data-loss banner without a trace.
  EXPECT_EQ(html.find("dropped"), std::string::npos);
}

TEST(HtmlReport, DroppedEventsRaiseBanner) {
  const SpanAnalysis analysis = small_analysis();
  const Sampler sampler;
  TraceBuffer trace{4};
  for (int i = 0; i < 10; ++i) {
    trace.record(job_event(static_cast<double>(i), EntityId{1},
                           TraceEventKind::kJobStarted, ClusterId{0},
                           JobId{static_cast<std::uint64_t>(i)}, UserId{0}, 1));
  }
  const TraceView view(trace);
  std::ostringstream os;
  write_html_report(os, sampler, analysis, {}, {}, &view);
  const std::string html = os.str();
  EXPECT_NE(html.find("class=\"warn\""), std::string::npos);
  EXPECT_NE(html.find("dropped 6 of 10"), std::string::npos);
}

TEST(HtmlReport, EmptyRunStillRendersValidDocument) {
  const SpanAnalysis analysis;
  const Sampler sampler;
  std::ostringstream os;
  write_html_report(os, sampler, analysis, {}, {});
  const std::string html = os.str();
  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_NE(html.find("0 submissions analyzed"), std::string::npos);
  EXPECT_EQ(html.find("<svg"), std::string::npos);
}

TEST(HtmlReport, CustomTitleIsEscaped) {
  std::ostringstream os;
  ReportOptions opts;
  opts.title = "load < 1.0";
  write_html_report(os, Sampler{}, SpanAnalysis{}, {}, {}, nullptr, opts);
  EXPECT_NE(os.str().find("<title>load &lt; 1.0</title>"), std::string::npos);
}

TEST(PhasesCsv, OneHeaderOneRowPerJob) {
  const SpanAnalysis analysis = small_analysis();
  std::ostringstream os;
  write_phases_csv(os, analysis);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("root,user,cluster,job,submit,end,makespan,outcome,"
                      "bid_wait,award_wait,queue_wait,run,reconfig,other,"
                      "bids,rfb_rounds,award_attempts,reconfigs,evictions\n",
                      0),
            0u);
  EXPECT_EQ(count_occurrences(csv, "\n"), 1u + analysis.jobs.size());
  EXPECT_NE(csv.find("complete"), std::string::npos);
}

TEST(SeriesCsv, QuotesNamesWithEmbeddedQuotes) {
  const Sampler sampler = small_sampler();
  std::ostringstream os;
  write_series_csv(os, sampler);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("series,unit,t_begin,t_end,min,mean,max,count\n", 0), 0u);
  // The label block's quotes are doubled inside a quoted field.
  EXPECT_NE(csv.find("\"faucets_cluster_utilization{cluster=\"\"turing\"\"}\""),
            std::string::npos);
  // One data row per emitted point.
  const Series* s = sampler.find("faucets_cluster_utilization{cluster=\"turing\"}");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(count_occurrences(csv, "\n"), 1u + s->points().size());
}

}  // namespace
}  // namespace faucets::obs
