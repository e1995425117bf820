// faucets_sweep: batch parameter-study driver (DESIGN.md §9).
//
// Expands the [sweep] section of a scenario file into a cartesian run grid,
// runs every cell from scratch on --threads workers that take the next run
// from a shared cursor (results bit-identical at any --threads value),
// prints the replicate-aggregated table, and optionally gates the aggregate
// against a committed regression baseline.
//
//   faucets_sweep --grid ci/sweep_gate.ini --threads 8
//                 --out results.jsonl --baseline ci/sweep_baseline.json
//   faucets_sweep --grid grid.ini --write-baseline baseline.json
//
// Exit status: 0 ok, 1 usage/config error, 2 regression-gate violation.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/live/http.hpp"
#include "src/sweep/sweep.hpp"
#include "src/util/table.hpp"

using namespace faucets;

namespace {

struct Options {
  std::optional<std::string> grid_file;
  std::size_t threads = std::thread::hardware_concurrency() == 0
                            ? 1
                            : std::thread::hardware_concurrency();
  std::optional<std::string> out;             // ordered JSONL artifact
  std::optional<std::string> stream;          // completion-order JSONL stream
  std::optional<std::string> baseline;        // gate against this file
  std::optional<std::string> write_baseline;  // snapshot aggregate here
  double tolerance = 0.05;
  bool quiet = false;
  bool profile = false;  // append host-time prof_* columns per run
  std::optional<std::string> serve;  // fleet /progress port ("0" = ephemeral)
};

void usage(std::ostream& os) {
  os << "usage: faucets_sweep [--grid] FILE.ini [options]\n"
        "  --grid FILE.ini         scenario + [sweep] section to expand\n"
        "  --threads N             worker threads (default: hardware)\n"
        "  --out FILE.jsonl        per-run results, run-id order (byte-stable)\n"
        "  --stream FILE.jsonl     per-run results, completion order\n"
        "  --baseline FILE.json    fail (exit 2) on metric drift vs baseline\n"
        "  --write-baseline FILE.json  snapshot this aggregate as baseline\n"
        "  --tolerance FRAC        relative band for --write-baseline (default 0.05)\n"
        "  --profile               run points under the host-time profiler and\n"
        "                          append prof_wall_ms, prof_events and\n"
        "                          prof_events_per_sec (host-time: not\n"
        "                          byte-stable across machines)\n"
        "  --serve[=PORT]          fleet-level /progress + /healthz on\n"
        "                          127.0.0.1 (bare --serve picks a port and\n"
        "                          prints it)\n"
        "  --quiet                 suppress the aggregate table\n";
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--grid") {
      opt.grid_file = value();
    } else if (arg == "--threads") {
      opt.threads = static_cast<std::size_t>(std::stoul(value()));
      if (opt.threads == 0) opt.threads = 1;
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--stream") {
      opt.stream = value();
    } else if (arg == "--baseline") {
      opt.baseline = value();
    } else if (arg == "--write-baseline") {
      opt.write_baseline = value();
    } else if (arg == "--tolerance") {
      opt.tolerance = std::stod(value());
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--profile") {
      opt.profile = true;
    } else if (arg == "--serve") {
      opt.serve = "0";
    } else if (arg.rfind("--serve=", 0) == 0) {
      opt.serve = arg.substr(std::string("--serve=").size());
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] != '-' && !opt.grid_file) {
      opt.grid_file = arg;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!opt.grid_file) throw std::invalid_argument("no sweep grid file given");
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void print_aggregate(std::ostream& os, sweep::SweepMode mode,
                     const std::vector<sweep::AggregateRow>& rows) {
  const bool cluster = mode == sweep::SweepMode::kCluster;
  std::vector<std::string> headers{"point", "n"};
  const std::vector<std::string> metric_names =
      cluster ? std::vector<std::string>{"utilization", "mean_response",
                                         "mean_bounded_slowdown", "total_payoff"}
              : std::vector<std::string>{"utilization", "jobs_completed",
                                         "jobs_unplaced", "total_spent",
                                         "client_payoff"};
  for (const auto& name : metric_names) headers.push_back(name + " (±95%)");
  Table table{headers};
  for (const auto& row : rows) {
    auto& r = table.row().cell(row.point_key).cell(row.replicates);
    for (const auto& name : metric_names) {
      const sweep::MetricSummary* m = row.metric(name);
      if (m == nullptr) {
        r.cell("-");
        continue;
      }
      std::ostringstream cell;
      cell.precision(4);
      cell << m->mean();
      if (row.replicates > 1) {
        cell.precision(2);
        cell << " ±" << m->ci95();
      }
      r.cell(cell.str());
    }
  }
  table.print(os);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "faucets_sweep: " << e.what() << "\n\n";
    usage(std::cerr);
    return 1;
  }

  try {
    const auto spec = sweep::SweepSpec::parse_string(read_file(*opt.grid_file));
    const sweep::SweepRunner runner(spec);

    std::ofstream stream_file;
    std::optional<sweep::JsonlSink> sink;
    if (opt.stream) {
      stream_file.open(*opt.stream);
      if (!stream_file) throw std::invalid_argument("cannot write '" + *opt.stream + "'");
      sink.emplace(&stream_file);
    }

    sweep::SweepOptions run_options;
    run_options.threads = opt.threads;
    run_options.sink = sink ? &*sink : nullptr;
    run_options.profile = opt.profile;

    const auto t0 = std::chrono::steady_clock::now();

    // --serve: fleet-level progress over the whole run grid, reusing the
    // live plane's embedded HTTP server. Workers bump an atomic per
    // completed run; the endpoint renders completed/total and a
    // completion-rate ETA.
    faucets::obs::live::HttpServer server;
    std::atomic<std::size_t> fleet_completed{0};
    std::atomic<std::size_t> fleet_total{0};
    if (opt.serve) {
      const long port = std::stol(*opt.serve);
      if (port < 0 || port > 65535) {
        throw std::invalid_argument("--serve port must be in [0, 65535]");
      }
      run_options.on_progress = [&fleet_completed, &fleet_total](
                                    std::size_t completed, std::size_t total) {
        fleet_completed.store(completed, std::memory_order_relaxed);
        fleet_total.store(total, std::memory_order_relaxed);
      };
      const bool ok = server.start(
          static_cast<std::uint16_t>(port),
          [&, t0](const std::string& path) -> faucets::obs::live::HttpResponse {
            const std::size_t completed =
                fleet_completed.load(std::memory_order_relaxed);
            const std::size_t total =
                fleet_total.load(std::memory_order_relaxed);
            if (path == "/healthz") {
              return {200, "application/json; charset=utf-8",
                      "{\"schema\":\"faucets.sweep.healthz.v1\","
                      "\"status\":\"ok\"}\n"};
            }
            if (path == "/progress") {
              const double elapsed =
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
              std::ostringstream body;
              body << "{\"schema\":\"faucets.sweep.progress.v1\""
                   << ",\"runs_completed\":" << completed
                   << ",\"runs_total\":" << total
                   << ",\"elapsed_seconds\":" << elapsed
                   << ",\"runs_per_second\":"
                   << (elapsed > 0.0 ? static_cast<double>(completed) / elapsed
                                     : 0.0)
                   << ",\"eta_seconds\":";
              if (completed > 0 && total > completed) {
                body << elapsed * static_cast<double>(total - completed) /
                            static_cast<double>(completed);
              } else {
                body << "null";
              }
              body << "}\n";
              return {200, "application/json; charset=utf-8", body.str()};
            }
            return {404, "text/plain; charset=utf-8",
                    "not found; try /progress /healthz\n"};
          });
      if (!ok) throw std::runtime_error("--serve: cannot bind the port");
      std::cout << "fleet monitoring on http://127.0.0.1:" << server.port()
                << " (/progress /healthz)\n";
    }

    const auto results = runner.run(run_options);
    server.stop();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    if (opt.out) {
      std::ofstream out(*opt.out);
      if (!out) throw std::invalid_argument("cannot write '" + *opt.out + "'");
      sweep::write_ordered(out, results);
    }

    const auto rows = sweep::aggregate(results);
    if (!opt.quiet) {
      print_aggregate(std::cout, spec.mode(), rows);
      std::cout << "\n" << results.size() << " runs on " << opt.threads
                << " threads in " << seconds << " s ("
                << (seconds > 0.0 ? static_cast<double>(results.size()) / seconds : 0.0)
                << " runs/s)\n";
    }

    if (opt.write_baseline) {
      std::ofstream out(*opt.write_baseline);
      if (!out) {
        throw std::invalid_argument("cannot write '" + *opt.write_baseline + "'");
      }
      out << sweep::Baseline::from_aggregate(rows, opt.tolerance).to_json();
      std::cout << "baseline written to " << *opt.write_baseline << "\n";
    }

    if (opt.baseline) {
      const auto baseline = sweep::Baseline::parse(read_file(*opt.baseline));
      const auto violations = sweep::check_gate(baseline, rows);
      if (!violations.empty()) {
        std::cerr << "REGRESSION GATE FAILED (" << violations.size()
                  << " violation" << (violations.size() == 1 ? "" : "s") << "):\n";
        for (const auto& v : violations) std::cerr << "  " << v.message << "\n";
        return 2;
      }
      std::cout << "regression gate passed (" << baseline.points().size()
                << " points vs " << *opt.baseline << ")\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "faucets_sweep: " << e.what() << "\n";
    return 1;
  }
}
