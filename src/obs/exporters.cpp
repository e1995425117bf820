#include "src/obs/exporters.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/obs/metrics.hpp"
#include "src/obs/spans.hpp"
#include "src/obs/trace.hpp"

namespace faucets::obs {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

template <typename Tag>
std::string json_id(Id<Tag> id) {
  return id.valid() ? std::to_string(id.value()) : "null";
}

}  // namespace

// ----------------------------------------------------------------- JSONL

void write_trace_event_jsonl(std::ostream& os, const TraceEvent& ev) {
  os << "{\"t\":" << json_number(ev.time) << ",\"entity\":"
     << json_id(ev.entity) << ",\"kind\":\"" << to_string(ev.kind) << '"';
  switch (payload_of(ev.kind)) {
    case TracePayload::kJob:
      os << ",\"cluster\":" << json_id(ev.payload.job.cluster)
         << ",\"job\":" << json_id(ev.payload.job.job)
         << ",\"user\":" << json_id(ev.payload.job.user)
         << ",\"procs\":" << ev.payload.job.procs;
      break;
    case TracePayload::kMarket:
      os << ",\"request\":" << json_id(ev.payload.market.request)
         << ",\"bid\":" << json_id(ev.payload.market.bid)
         << ",\"price\":" << json_number(ev.payload.market.price);
      break;
    case TracePayload::kNet:
      os << ",\"peer\":" << json_id(ev.payload.net.peer)
         << ",\"message_kind\":" << static_cast<int>(ev.payload.net.message_kind)
         << ",\"reason\":\"" << to_string(ev.payload.net.reason) << '"';
      break;
    case TracePayload::kAuth:
      os << ",\"user\":" << json_id(ev.payload.auth.user)
         << ",\"request\":" << json_id(ev.payload.auth.request);
      break;
    case TracePayload::kAlert:
      os << ",\"monitor\":\""
         << to_string(static_cast<MonitorKind>(ev.payload.alert.monitor))
         << "\",\"observed\":" << json_number(ev.payload.alert.observed)
         << ",\"threshold\":" << json_number(ev.payload.alert.threshold);
      break;
  }
  os << "}\n";
}

void write_trace_jsonl(std::ostream& os, const TraceView& trace) {
  if (trace.dropped() > 0) {
    os << "{\"meta\":\"trace\",\"dropped\":" << trace.dropped()
       << ",\"total_recorded\":" << trace.total_recorded() << "}\n";
  }
  trace.for_each([&](const TraceEvent& ev) { write_trace_event_jsonl(os, ev); });
}

// ------------------------------------------------------------- Prometheus

namespace {

/// Split `foo_total{cluster="x"}` into base name and label block.
void split_labels(const std::string& name, std::string& base, std::string& labels) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) {
    base = name;
    labels.clear();
  } else {
    base = name.substr(0, brace);
    labels = name.substr(brace + 1, name.size() - brace - 2);  // strip { }
  }
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsRegistry& metrics,
                      const TraceView* trace) {
  std::unordered_set<std::string> typed;  // base names already announced
  metrics.for_each([&](const MetricsRegistry::Entry& e) {
    std::string base;
    std::string labels;
    split_labels(e.name, base, labels);
    if (typed.insert(base).second) {
      if (!e.help.empty()) os << "# HELP " << base << ' ' << e.help << '\n';
      os << "# TYPE " << base << ' ';
      switch (e.type) {
        case MetricsRegistry::Type::kCounter: os << "counter\n"; break;
        case MetricsRegistry::Type::kGauge: os << "gauge\n"; break;
        case MetricsRegistry::Type::kHistogram: os << "histogram\n"; break;
      }
    }
    switch (e.type) {
      case MetricsRegistry::Type::kCounter:
        os << e.name << ' ' << e.counter->value() << '\n';
        break;
      case MetricsRegistry::Type::kGauge:
        os << e.name << ' ' << json_number(e.gauge->value()) << '\n';
        break;
      case MetricsRegistry::Type::kHistogram: {
        const Histogram& h = *e.histogram;
        const auto label_join = [&](const std::string& le) {
          std::string out = base + "_bucket{";
          if (!labels.empty()) out += labels + ",";
          out += "le=\"" + le + "\"}";
          return out;
        };
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cum += h.buckets()[i];
          os << label_join(json_number(h.bounds()[i])) << ' ' << cum << '\n';
        }
        os << label_join("+Inf") << ' ' << h.count() << '\n';
        const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
        os << base << "_sum" << suffix << ' ' << json_number(h.sum()) << '\n';
        os << base << "_count" << suffix << ' ' << h.count() << '\n';
        break;
      }
    }
  });
  write_prometheus_trace_dropped(os, trace != nullptr ? trace->dropped() : 0);
}

void write_prometheus_trace_dropped(std::ostream& os, std::uint64_t dropped) {
  if (dropped == 0) return;
  os << "# HELP faucets_trace_dropped_total Trace events lost to the "
        "bounded ring; the exported window is truncated\n"
     << "# TYPE faucets_trace_dropped_total counter\n"
     << "faucets_trace_dropped_total " << dropped << '\n';
}

// ----------------------------------------------------------- Chrome trace

namespace {

constexpr std::int64_t kMarketPid = 1;
constexpr std::int64_t kClusterPidBase = 100;
/// Trace microseconds per simulated second.
constexpr double kUsPerSimSecond = 1e6;

struct ChromeWriter {
  std::ostream& os;
  bool first = true;

  void open(std::uint64_t dropped) {
    os << "{\"displayTimeUnit\":\"ms\",";
    if (dropped > 0) os << "\"otherData\":{\"trace_dropped\":" << dropped << "},";
    os << "\"traceEvents\":[\n";
  }
  void close() { os << "\n]}\n"; }

  std::ostream& begin_event() {
    if (!first) os << ",\n";
    first = false;
    return os;
  }

  void metadata(std::int64_t pid, std::int64_t tid, const char* what,
                const std::string& name) {
    begin_event() << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
                  << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
                  << json_escape(name) << "\"}}";
  }

  void slice(std::int64_t pid, std::int64_t tid, const std::string& name,
             const char* cat, double ts_us, double dur_us,
             const std::string& args_json) {
    begin_event() << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
                  << ",\"name\":\"" << json_escape(name) << "\",\"cat\":\"" << cat
                  << "\",\"ts\":" << json_number(ts_us)
                  << ",\"dur\":" << json_number(std::max(0.0, dur_us))
                  << ",\"args\":{" << args_json << "}}";
  }

  void instant(std::int64_t pid, std::int64_t tid, const std::string& name,
               const char* cat, double ts_us, const std::string& args_json) {
    begin_event() << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
                  << ",\"tid\":" << tid << ",\"name\":\"" << json_escape(name)
                  << "\",\"cat\":\"" << cat << "\",\"ts\":" << json_number(ts_us)
                  << ",\"args\":{" << args_json << "}}";
  }
};

/// Cluster-side spans render on the cluster's process track; everything else
/// renders on the market process under the submission's root span.
bool on_cluster_track(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQueue:
    case SpanKind::kRun:
    case SpanKind::kReconfig:
    case SpanKind::kComplete:
    case SpanKind::kEvicted:
    case SpanKind::kFailed:
      return true;
    default:
      return false;
  }
}

std::string cluster_display_name(const ChromeTraceOptions& options, ClusterId id) {
  const auto idx = static_cast<std::size_t>(id.value());
  if (idx < options.cluster_names.size()) return options.cluster_names[idx];
  return "cluster-" + std::to_string(id.value());
}

}  // namespace

void write_chrome_trace(std::ostream& os, const SpanTracker& spans,
                        const TraceView& trace,
                        const ChromeTraceOptions& options) {
  ChromeWriter w{os};
  w.open(trace.dropped());

  // Open spans (a job still running when the sim stopped) are clamped to the
  // latest timestamp anywhere in the bundle so Perfetto shows a finite slice.
  double horizon = 0.0;
  for (const Span& s : spans.spans()) {
    horizon = std::max(horizon, std::max(s.start, s.end));
  }
  for (const BidRecord& b : spans.bids()) horizon = std::max(horizon, b.time);
  trace.for_each([&](const TraceEvent& ev) { horizon = std::max(horizon, ev.time); });

  // Process tracks. Every named cluster gets a track even when idle, so a
  // trace of N clusters always shows N cluster processes.
  w.metadata(kMarketPid, 0, "process_name", "market");
  std::unordered_set<std::uint64_t> cluster_tracks;
  for (std::size_t i = 0; i < options.cluster_names.size(); ++i) {
    w.metadata(kClusterPidBase + static_cast<std::int64_t>(i), 0, "process_name",
               "cluster " + options.cluster_names[i]);
    cluster_tracks.insert(i);
  }

  // root_of[i]: id of the submission root above span i (tid on market track).
  std::vector<std::uint64_t> root_of(spans.size());
  std::unordered_set<std::uint64_t> named_job_threads;   // (pid<<32)|tid keys
  std::unordered_set<std::uint64_t> named_market_threads;

  // Every id in order; a bid is the instant kBid span it records.
  spans.for_each([&](const Span& s) {
    const auto i = static_cast<std::size_t>(s.id.value());
    root_of[i] = s.parent.valid() && s.parent.value() < i
                     ? root_of[static_cast<std::size_t>(s.parent.value())]
                     : i;
    const bool cluster_side = on_cluster_track(s.kind) && s.cluster.valid();
    std::int64_t pid;
    std::int64_t tid;
    if (cluster_side) {
      pid = kClusterPidBase + static_cast<std::int64_t>(s.cluster.value());
      tid = static_cast<std::int64_t>(s.job.value());
      if (cluster_tracks.insert(s.cluster.value()).second) {
        w.metadata(pid, 0, "process_name",
                   "cluster " + cluster_display_name(options, s.cluster));
      }
      const std::uint64_t key = (s.cluster.value() << 32) | s.job.value();
      if (named_job_threads.insert(key).second) {
        w.metadata(pid, tid, "thread_name", "job " + std::to_string(s.job.value()));
      }
    } else {
      pid = kMarketPid;
      tid = static_cast<std::int64_t>(root_of[i]);
      if (named_market_threads.insert(root_of[i]).second) {
        std::string name = "submission " + std::to_string(root_of[i]);
        if (s.job.valid() && s.cluster.valid()) {
          name += " (job " + std::to_string(s.job.value()) + " @ " +
                  cluster_display_name(options, s.cluster) + ")";
        }
        w.metadata(pid, tid, "thread_name", name);
      }
    }

    std::string args = "\"span\":" + std::to_string(s.id.value());
    if (s.parent.valid()) args += ",\"parent\":" + std::to_string(s.parent.value());
    if (s.user.valid()) args += ",\"user\":" + std::to_string(s.user.value());
    if (s.value != 0.0) args += ",\"value\":" + json_number(s.value);

    const std::string name(to_string(s.kind));
    const char* cat = cluster_side ? "cluster" : "market";
    if (s.instant()) {
      w.instant(pid, tid, name, cat, s.start * kUsPerSimSecond, args);
    } else {
      const double end = s.open() ? horizon : s.end;
      w.slice(pid, tid, name, cat, s.start * kUsPerSimSecond,
              (end - s.start) * kUsPerSimSecond, args);
    }
  });

  // Notable point events from the trace ring that have no span of their own.
  trace.for_each([&](const TraceEvent& ev) {
    if (ev.kind == TraceEventKind::kNetDrop) {
      const std::string args =
          "\"peer\":" + json_id(ev.payload.net.peer) + ",\"reason\":\"" +
          std::string(to_string(ev.payload.net.reason)) + '"';
      w.instant(kMarketPid, 0, "net_drop", "net", ev.time * kUsPerSimSecond, args);
    }
  });

  w.close();
}

}  // namespace faucets::obs
