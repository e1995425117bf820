// Exporter smoke tests: JSON string escaping, JSONL line shape, Prometheus
// text conventions (HELP/TYPE once per base name, cumulative le buckets,
// labels preserved), and the Chrome trace-event JSON structure Perfetto
// expects.
#include "src/obs/exporters.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/spans.hpp"
#include "src/obs/trace.hpp"

namespace faucets::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(EscapeJson, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Jsonl, OneObjectPerEventWithPayloadFields) {
  TraceBuffer trace{64};
  trace.record(job_event(1.5, EntityId{3}, TraceEventKind::kJobStarted,
                         ClusterId{0}, JobId{7}, UserId{2}, 16));
  trace.record(market_event(2.0, EntityId{4}, TraceEventKind::kBidIssued,
                            RequestId{9}, BidId{1}, 0.125));
  trace.record(net_event(3.0, EntityId{5}, EntityId{6}, 2,
                         DropReason::kSenderDetached));
  trace.record(auth_event(4.0, EntityId{7}, TraceEventKind::kAuthDenied,
                          UserId{}, RequestId{8}));

  std::ostringstream out;
  write_trace_jsonl(out, TraceView(trace));
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 4u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_NE(lines[0].find("\"kind\":\"JOB_STARTED\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"job\":7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"procs\":16"), std::string::npos);
  EXPECT_NE(lines[1].find("\"price\":0.125"), std::string::npos);
  EXPECT_NE(lines[2].find("\"reason\":\"sender_detached\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"user\":null"), std::string::npos)
      << "invalid ids serialize as JSON null";
}

TEST(Prometheus, TextFormatConventions) {
  MetricsRegistry reg;
  reg.counter("faucets_jobs_total", "All jobs").inc(5);
  reg.gauge("faucets_busy_procs{cluster=\"turing\"}", "Busy procs").set(12.0);
  Histogram& h = reg.histogram("faucets_wait_seconds{cluster=\"turing\"}",
                               {1.0, 10.0}, "Wait time");
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);
  // A second cluster shares the base name: HELP/TYPE must appear once.
  reg.histogram("faucets_wait_seconds{cluster=\"hopper\"}", {1.0, 10.0});

  std::ostringstream out;
  write_prometheus(out, reg);
  const std::string text = out.str();

  EXPECT_NE(text.find("# HELP faucets_jobs_total All jobs"), std::string::npos);
  EXPECT_NE(text.find("# TYPE faucets_jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("faucets_jobs_total 5"), std::string::npos);
  EXPECT_NE(text.find("faucets_busy_procs{cluster=\"turing\"} 12"),
            std::string::npos);

  EXPECT_EQ(count_of(text, "# TYPE faucets_wait_seconds histogram"), 1u)
      << "TYPE is announced once per base name, not per label set";
  // Cumulative buckets with the label set merged in front of le.
  EXPECT_NE(text.find("faucets_wait_seconds_bucket{cluster=\"turing\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("faucets_wait_seconds_bucket{cluster=\"turing\",le=\"10\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("faucets_wait_seconds_bucket{cluster=\"turing\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("faucets_wait_seconds_sum{cluster=\"turing\"} 105.5"),
            std::string::npos);
  EXPECT_NE(text.find("faucets_wait_seconds_count{cluster=\"turing\"} 3"),
            std::string::npos);
}

TEST(ChromeTrace, TracksSlicesAndInstants) {
  SpanTracker spans;
  TraceBuffer trace{64};

  // One full submission: root -> rfb (2 bids) -> award -> queue -> run ->
  // complete, on cluster 0.
  const SpanId root = spans.start_span(SpanKind::kSubmission, 0.0);
  spans.set_user(root, UserId{4});
  const SpanId rfb = spans.start_span(SpanKind::kRfb, 0.1, root);
  spans.record_bid(rfb, 0.2, 0.5);
  spans.record_bid(rfb, 0.3, 0.6);
  spans.end_span(rfb, 0.4);
  const SpanId award = spans.start_span(SpanKind::kAward, 0.4, rfb);
  spans.end_span(award, 0.5);
  const SpanId queue = spans.start_span(SpanKind::kQueue, 0.5, award);
  spans.bind_job(queue, ClusterId{0}, JobId{0});
  spans.end_span(queue, 1.0);
  const SpanId run = spans.start_span(SpanKind::kRun, 1.0, queue);
  spans.end_span(run, 9.0);
  spans.instant_span(SpanKind::kComplete, 9.0, run);

  trace.record(net_event(5.0, EntityId{9}, EntityId{10}, 1,
                         DropReason::kReceiverDetached));

  ChromeTraceOptions options;
  options.cluster_names = {"turing", "hopper"};  // hopper stays idle
  std::ostringstream out;
  write_chrome_trace(out, spans, TraceView(trace), options);
  const std::string text = out.str();

  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  // One process per named cluster even when idle, plus the market process.
  EXPECT_NE(text.find("\"name\":\"market\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"cluster turing\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"cluster hopper\""), std::string::npos);
  // Job thread on the cluster track, named after the job.
  EXPECT_NE(text.find("\"name\":\"job 0\""), std::string::npos);
  // Market-side slices carry the submission tid; cluster-side carry pid 100.
  EXPECT_NE(text.find("\"name\":\"submission\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(text.find("\"pid\":100"), std::string::npos);
  // Instants for bids and the net drop.
  EXPECT_GE(count_of(text, "\"ph\":\"i\""), 3u);
  // Durations in microseconds: the run span is 8 sim-seconds.
  EXPECT_NE(text.find("\"dur\":8000000"), std::string::npos);
  // Parent links are preserved in args.
  EXPECT_NE(text.find("\"parent\":" + std::to_string(rfb.value())),
            std::string::npos);
  // Valid JSON shape: closes the array and object.
  EXPECT_NE(text.find("\n]}"), std::string::npos);
}

TEST(ChromeTrace, BidsInterleaveAtTheirIds) {
  // Two submissions whose bids interleave with awards, placements and a
  // re-bid round; B's round stays open and its last bid sets the horizon.
  // The expected text is what the writer produced when every bid was a
  // stored instant span, so the bid table must render byte for byte alike.
  SpanTracker spans;
  TraceBuffer trace{16};
  const SpanId a = spans.start_span(SpanKind::kSubmission, 0.0);
  spans.set_user(a, UserId{4});
  const SpanId b = spans.start_span(SpanKind::kSubmission, 0.05);
  spans.set_user(b, UserId{5});
  const SpanId rfb_a = spans.start_span(SpanKind::kRfb, 0.1, a);
  const SpanId rfb_b = spans.start_span(SpanKind::kRfb, 0.15, b);
  spans.record_bid(rfb_a, 0.2, 0.5);
  spans.record_bid(rfb_b, 0.25, 0.0);
  spans.record_bid(rfb_a, 0.3, 0.75);
  spans.end_span(rfb_a, 0.4);
  const SpanId award = spans.start_span(SpanKind::kAward, 0.4, rfb_a);
  spans.set_value(award, 0.75);
  spans.record_bid(rfb_b, 0.45, 1.25);
  spans.end_span(award, 0.5);
  const SpanId queue = spans.start_span(SpanKind::kQueue, 0.5, award);
  spans.bind_job(queue, ClusterId{1}, JobId{3});
  spans.end_span(queue, 1.0);
  const SpanId run = spans.start_span(SpanKind::kRun, 1.0, queue);
  spans.set_value(run, 8.0);
  spans.end_span(run, 2.0);
  spans.instant_span(SpanKind::kEvicted, 2.0, run);
  const SpanId rfb_a2 = spans.start_span(SpanKind::kRfb, 2.5, a);
  spans.record_bid(rfb_a2, 2.6, 0.9);
  spans.end_span(rfb_a2, 2.7);
  spans.instant_span(SpanKind::kUnplaced, 3.0, a);
  spans.end_span(a, 3.0);
  trace.record(net_event(5.0, EntityId{9}, EntityId{10}, 1,
                         DropReason::kReceiverDetached));
  spans.record_bid(rfb_b, 12.0, 2.0);

  ChromeTraceOptions options;
  options.cluster_names = {"turing", "hopper"};
  std::ostringstream out;
  write_chrome_trace(out, spans, TraceView(trace), options);
  const std::string expected = R"json({"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"market"}},
{"ph":"M","pid":100,"tid":0,"name":"process_name","args":{"name":"cluster turing"}},
{"ph":"M","pid":101,"tid":0,"name":"process_name","args":{"name":"cluster hopper"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"submission 0 (job 3 @ hopper)"}},
{"ph":"X","pid":1,"tid":0,"name":"submission","cat":"market","ts":0,"dur":3000000,"args":{"span":0,"user":4}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"submission 1"}},
{"ph":"X","pid":1,"tid":1,"name":"submission","cat":"market","ts":50000,"dur":11950000,"args":{"span":1,"user":5}},
{"ph":"X","pid":1,"tid":0,"name":"rfb","cat":"market","ts":100000,"dur":300000.00000000006,"args":{"span":2,"parent":0,"user":4}},
{"ph":"X","pid":1,"tid":1,"name":"rfb","cat":"market","ts":150000,"dur":11850000,"args":{"span":3,"parent":1,"user":5}},
{"ph":"i","s":"t","pid":1,"tid":0,"name":"bid","cat":"market","ts":200000,"args":{"span":4,"parent":2,"user":4,"value":0.5}},
{"ph":"i","s":"t","pid":1,"tid":1,"name":"bid","cat":"market","ts":250000,"args":{"span":5,"parent":3,"user":5}},
{"ph":"i","s":"t","pid":1,"tid":0,"name":"bid","cat":"market","ts":300000,"args":{"span":6,"parent":2,"user":4,"value":0.75}},
{"ph":"X","pid":1,"tid":0,"name":"award","cat":"market","ts":400000,"dur":99999.999999999971,"args":{"span":7,"parent":2,"user":4,"value":0.75}},
{"ph":"i","s":"t","pid":1,"tid":1,"name":"bid","cat":"market","ts":450000,"args":{"span":8,"parent":3,"user":5,"value":1.25}},
{"ph":"M","pid":101,"tid":3,"name":"thread_name","args":{"name":"job 3"}},
{"ph":"X","pid":101,"tid":3,"name":"queue","cat":"cluster","ts":500000,"dur":500000,"args":{"span":9,"parent":7,"user":4}},
{"ph":"X","pid":101,"tid":3,"name":"run","cat":"cluster","ts":1000000,"dur":1000000,"args":{"span":10,"parent":9,"user":4,"value":8}},
{"ph":"i","s":"t","pid":101,"tid":3,"name":"evicted","cat":"cluster","ts":2000000,"args":{"span":11,"parent":10,"user":4}},
{"ph":"X","pid":1,"tid":0,"name":"rfb","cat":"market","ts":2500000,"dur":200000.00000000017,"args":{"span":12,"parent":0,"user":4}},
{"ph":"i","s":"t","pid":1,"tid":0,"name":"bid","cat":"market","ts":2600000,"args":{"span":13,"parent":12,"user":4,"value":0.90000000000000002}},
{"ph":"i","s":"t","pid":1,"tid":0,"name":"unplaced","cat":"market","ts":3000000,"args":{"span":14,"parent":0,"user":4}},
{"ph":"i","s":"t","pid":1,"tid":1,"name":"bid","cat":"market","ts":12000000,"args":{"span":15,"parent":3,"user":5,"value":2}},
{"ph":"i","s":"t","pid":1,"tid":0,"name":"net_drop","cat":"net","ts":5000000,"args":{"peer":10,"reason":"receiver_detached"}}
]}
)json";
  EXPECT_EQ(out.str(), expected);
}

TEST(ChromeTrace, OpenSpansClampToHorizon) {
  SpanTracker spans;
  TraceBuffer trace{16};
  const SpanId root = spans.start_span(SpanKind::kSubmission, 1.0);
  (void)root;  // never ended: still open at export time
  trace.record(market_event(11.0, EntityId{1}, TraceEventKind::kRfbIssued,
                            RequestId{0}, BidId{}, 3.0));

  std::ostringstream out;
  write_chrome_trace(out, spans, TraceView(trace), {});
  // Horizon is 11 s, span starts at 1 s -> clamped duration 10 s.
  EXPECT_NE(out.str().find("\"dur\":10000000"), std::string::npos);
}

TEST(Jsonl, DroppedEventsAnnotateWithMetaLine) {
  TraceBuffer trace{4};
  for (int i = 0; i < 10; ++i) {
    trace.record(market_event(static_cast<double>(i), EntityId{1},
                              TraceEventKind::kBidIssued,
                              RequestId{static_cast<std::uint64_t>(i)}, BidId{0},
                              1.0));
  }
  std::ostringstream out;
  write_trace_jsonl(out, TraceView(trace));
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u + trace.size())
      << "one meta line plus one line per surviving event";
  EXPECT_NE(lines[0].find("\"meta\":\"trace\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"dropped\":6"), std::string::npos);
  EXPECT_NE(lines[0].find("\"total_recorded\":10"), std::string::npos);
}

TEST(Jsonl, NoMetaLineWithoutDrops) {
  TraceBuffer trace{16};
  trace.record(market_event(1.0, EntityId{1}, TraceEventKind::kBidIssued,
                            RequestId{0}, BidId{0}, 1.0));
  std::ostringstream out;
  write_trace_jsonl(out, TraceView(trace));
  EXPECT_EQ(out.str().find("\"meta\""), std::string::npos)
      << "lossless exports stay backwards-compatible, no meta line";
}

TEST(Prometheus, DroppedEventsExportACounter) {
  MetricsRegistry reg;
  reg.counter("faucets_jobs_total").inc(1);
  TraceBuffer trace{4};
  for (int i = 0; i < 9; ++i) {
    trace.record(market_event(static_cast<double>(i), EntityId{1},
                              TraceEventKind::kBidIssued,
                              RequestId{static_cast<std::uint64_t>(i)}, BidId{0},
                              1.0));
  }
  const TraceView view(trace);
  std::ostringstream out;
  write_prometheus(out, reg, &view);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE faucets_trace_dropped_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("faucets_trace_dropped_total 5"), std::string::npos);

  // Without drops (or without a trace at all) the metric is absent.
  const TraceView quiet(TraceBuffer{16});
  std::ostringstream out2;
  write_prometheus(out2, reg, &quiet);
  EXPECT_EQ(out2.str().find("faucets_trace_dropped_total"), std::string::npos);
  std::ostringstream out3;
  write_prometheus(out3, reg);
  EXPECT_EQ(out3.str().find("faucets_trace_dropped_total"), std::string::npos);
}

TEST(ChromeTrace, DroppedEventsAnnotateOtherData) {
  SpanTracker spans;
  TraceBuffer trace{4};
  for (int i = 0; i < 7; ++i) {
    trace.record(market_event(static_cast<double>(i), EntityId{1},
                              TraceEventKind::kBidIssued,
                              RequestId{static_cast<std::uint64_t>(i)}, BidId{0},
                              1.0));
  }
  std::ostringstream out;
  write_chrome_trace(out, spans, TraceView(trace), {});
  EXPECT_NE(out.str().find("\"otherData\":{\"trace_dropped\":3}"),
            std::string::npos);
}

TEST(ChromeTrace, EmptyInputsProduceValidSkeleton) {
  SpanTracker spans;
  TraceBuffer trace{1};
  std::ostringstream out;
  write_chrome_trace(out, spans, TraceView(trace), {});
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"market\""), std::string::npos);
  EXPECT_NE(text.find("]}"), std::string::npos);
}

}  // namespace
}  // namespace faucets::obs
