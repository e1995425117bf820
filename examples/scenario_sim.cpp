// Command-line grid simulator: run any scenario file through the full
// Faucets market (the command-line client surface of §2), optionally
// exporting the observability layer's state afterwards:
//
//   ./examples/scenario_sim my_grid.ini
//   ./examples/scenario_sim            # runs the built-in demo scenario
//   ./examples/scenario_sim --trace-jsonl trace.jsonl
//                           --metrics metrics.prom
//                           --chrome-trace trace.json   # open in Perfetto
//
// Telemetry reports (see DESIGN.md §10):
//
//   ./examples/scenario_sim --report grid.html         # self-contained HTML
//                           --phases-csv phases.csv    # per-job decomposition
//                           --series-csv series.csv    # sampled time series
//                           --sample-interval 5        # snapshot cadence, s
//
// Chaos testing: the scenario's [faults] section holds the fault plan
// (loss, jitter, a crash and restart, a partition; see
// src/core/scenario.hpp), and the command line only bounds the run:
//
//   ./examples/scenario_sim chaos.ini --until 36000   # hard stop, seconds
//
// Durable state + checkpoint/restore (DESIGN.md §14):
//
//   ./examples/scenario_sim --store-dir runs/store    # WAL + snapshots
//                           --checkpoint-at 1800      # pause time, seconds
//                           --checkpoint grid.ckpt    # checkpoint file
//   ./examples/scenario_sim --restore grid.ckpt       # resume: replays the
//                           # pinned scenario and --until from t = 0,
//                           # PROVES the state matches at the checkpoint
//                           # instant, then continues to completion.
//
// Host-time profiling (DESIGN.md §12):
//
//   ./examples/scenario_sim --profile                 # writes profile.json
//   ./examples/scenario_sim --profile=perf/run.json   # + run.prom
//
// Every run ends with the grid's audit (DESIGN.md §16): when an invariant
// failed, scenario_sim writes the requested artifacts, names the failing
// term on stderr and exits 2.
//
// Live monitoring (DESIGN.md §15):
//
//   ./examples/scenario_sim --serve                   # ephemeral port,
//                                                     #   printed on stdout
//   ./examples/scenario_sim --serve=9464              # fixed port
//     curl localhost:9464/healthz                     # monitor verdicts
//     curl localhost:9464/progress                    # sim time, jobs, ETA
//   ./examples/scenario_sim --progress                # stderr ticker
//                           --no-progress             # (auto-on for TTYs)
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "src/sim/engine.hpp"

#include "src/core/scenario.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/report.hpp"
#include "src/store/checkpoint.hpp"
#include "src/util/config.hpp"

namespace {

constexpr const char* kDemoScenario = R"ini(
# Demo: a small pay-per-use grid with mixed scheduling and bidding policies.
[grid]
billing = dollars
users = 8
evaluator = least-cost
brokered = true
seed = 2004

[cluster]
name = turing
procs = 512
cost = 0.0008
strategy = payoff
bidgen = utilization

[cluster]
name = hopper
procs = 256
cost = 0.0005
strategy = equipartition
bidgen = baseline

[cluster]
name = lovelace
procs = 1024
cost = 0.0012
speed = 1.5
strategy = payoff
bidgen = futures

[workload]
jobs = 150
load = 0.75
)ini";

struct Options {
  std::optional<std::string> scenario_file;
  std::optional<std::string> trace_jsonl;
  std::optional<std::string> metrics;
  std::optional<std::string> chrome_trace;
  std::optional<std::string> report;
  std::optional<std::string> phases_csv;
  std::optional<std::string> series_csv;
  std::optional<double> sample_interval;
  std::optional<double> until;
  std::optional<std::string> report_json;
  std::optional<std::string> profile;  // profile.json path
  std::optional<std::string> store_dir;
  std::optional<double> checkpoint_at;       // sim seconds
  std::optional<std::string> checkpoint;     // checkpoint file to write
  std::optional<std::string> restore;        // checkpoint file to resume from
  std::optional<long> serve;                 // live monitoring port (0 = ephemeral)
  bool progress = false;                     // force the stderr ticker on
  bool no_progress = false;                  // force it off
};

/// Accepts both `--flag value` and `--flag=value`; a numeric `out` takes
/// only a value that is all number.
template <typename T>
bool take_flag(const std::string& arg, int argc, char** argv, int& i,
               const std::string& flag, std::optional<T>& out) {
  std::string value;
  if (arg == flag) {
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    value = argv[++i];
  } else if (arg.rfind(flag + "=", 0) == 0) {
    value = arg.substr(flag.size() + 1);
  } else {
    return false;
  }
  if constexpr (std::is_same_v<T, std::string>) {
    out = std::move(value);
  } else {
    out = faucets::parse_number<T>(value, flag);
  }
  return true;
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (take_flag(arg, argc, argv, i, "--trace-jsonl", opts.trace_jsonl)) continue;
    if (take_flag(arg, argc, argv, i, "--metrics", opts.metrics)) continue;
    if (take_flag(arg, argc, argv, i, "--chrome-trace", opts.chrome_trace)) continue;
    if (take_flag(arg, argc, argv, i, "--report", opts.report)) continue;
    if (take_flag(arg, argc, argv, i, "--phases-csv", opts.phases_csv)) continue;
    if (take_flag(arg, argc, argv, i, "--series-csv", opts.series_csv)) continue;
    if (take_flag(arg, argc, argv, i, "--sample-interval", opts.sample_interval)) continue;
    if (take_flag(arg, argc, argv, i, "--until", opts.until)) continue;
    if (take_flag(arg, argc, argv, i, "--report-json", opts.report_json)) continue;
    if (take_flag(arg, argc, argv, i, "--store-dir", opts.store_dir)) continue;
    if (take_flag(arg, argc, argv, i, "--checkpoint-at", opts.checkpoint_at)) continue;
    if (take_flag(arg, argc, argv, i, "--checkpoint", opts.checkpoint)) continue;
    if (take_flag(arg, argc, argv, i, "--restore", opts.restore)) continue;
    // --profile is the one flag whose value is optional: bare --profile
    // defaults to profile.json in the working directory.
    if (arg == "--profile") {
      opts.profile = "profile.json";
      continue;
    }
    if (arg.rfind("--profile=", 0) == 0) {
      opts.profile = arg.substr(std::string("--profile=").size());
      continue;
    }
    // --serve's value is optional too: bare --serve binds an ephemeral port
    // (printed on stdout so scripts can scrape it).
    if (arg == "--serve") {
      opts.serve = 0;
      continue;
    }
    if (arg.rfind("--serve=", 0) == 0) {
      opts.serve = faucets::parse_number<long>(arg.substr(std::string("--serve=").size()),
                                               "--serve");
      continue;
    }
    if (arg == "--progress") {
      opts.progress = true;
      continue;
    }
    if (arg == "--no-progress") {
      opts.no_progress = true;
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown option " + arg);
    }
    opts.scenario_file = arg;
  }
  return opts;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::invalid_argument("cannot open output file " + path);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parse_args(argc, argv);

    // The simulation is defined by (scenario text, --until): live runs
    // collect both from the command line; --restore reads the exact pair a
    // checkpoint pinned and replays it.
    std::string scenario_text;
    double until = faucets::sim::Engine::kForever;
    std::optional<faucets::store::Checkpoint> restore_ckpt;
    if (opts.restore) {
      if (opts.scenario_file || opts.until || opts.checkpoint_at) {
        throw std::invalid_argument(
            "--restore replays the checkpointed scenario and --until; drop "
            "the scenario file, --until and --checkpoint-at");
      }
      restore_ckpt = faucets::store::Checkpoint::read_file(*opts.restore);
      scenario_text = restore_ckpt->scenario_text;
      until = restore_ckpt->until;
    } else {
      if (opts.scenario_file) {
        std::ifstream file{*opts.scenario_file};
        if (!file) {
          throw std::invalid_argument("cannot open scenario file " +
                                      *opts.scenario_file);
        }
        std::ostringstream text;
        text << file.rdbuf();
        scenario_text = text.str();
      } else {
        std::cout << "(no scenario file given; running the built-in demo)\n\n";
        scenario_text = kDemoScenario;
      }
      if (opts.until) until = *opts.until;
    }

    faucets::core::Scenario scenario =
        faucets::core::Scenario::parse_string(scenario_text);
    // The store directory is host-side persistence, not part of the
    // simulation: it never goes into a checkpoint.
    if (opts.store_dir) scenario.grid.store.dir = *opts.store_dir;

    // Live monitoring is host-side observation of the run, never part of a
    // checkpoint — artifacts are byte-identical either way.
    if (opts.serve) {
      if (*opts.serve < 0 || *opts.serve > 65535) {
        throw std::invalid_argument("--serve port must be in [0, 65535]");
      }
      scenario.grid.live.serve = true;
      scenario.grid.live.port = static_cast<std::uint16_t>(*opts.serve);
    }
    // The progress ticker defaults on when stderr is an interactive
    // terminal; --progress / --no-progress override in either direction.
    if (opts.progress) {
      scenario.grid.live.progress = true;
    } else if (opts.no_progress) {
      scenario.grid.live.progress = false;
    } else if (::isatty(::fileno(stderr)) == 1) {
      scenario.grid.live.progress = true;
    }

    if (opts.profile) scenario.grid.profile.enabled = true;

    // Reports want time-series charts, so turn sampling on whenever any
    // telemetry output is requested (explicit --sample-interval wins).
    if (opts.sample_interval) {
      scenario.grid.telemetry.sample_interval = *opts.sample_interval;
    } else if (opts.report || opts.series_csv) {
      scenario.grid.telemetry.sample_interval = 5.0;
    }

    std::cout << "Simulating " << scenario.clusters.size() << " Compute Servers ("
              << scenario.total_procs() << " processors), ";
    if (scenario.trace) {
      std::cout << "streaming trace " << scenario.trace->path;
      if (scenario.trace->options.time_compression != 1.0) {
        std::cout << " at " << scenario.trace->options.time_compression
                  << "x compression";
      }
      const std::size_t clones = scenario.trace->options.user_multiplier *
                                 scenario.trace->options.cluster_multiplier;
      if (clones > 1) std::cout << ", " << clones << " clones per job";
    } else {
      std::cout << scenario.workload.job_count << " jobs";
    }
    std::cout << "...\n\n";
    auto grid = scenario.make_grid();
    if (grid->live() != nullptr && grid->live()->serving()) {
      // Flushed eagerly: CI parses this line from a redirected pipe while
      // the run is still in flight.
      std::cout << "live monitoring on http://127.0.0.1:"
                << grid->live()->port()
                << " (/metrics /healthz /progress /traces/recent)"
                << std::endl;
    }

    // Checkpointing pauses the run at the first consistent boundary past
    // the requested instant, captures the progress fingerprint, and lets
    // the run continue — the uninterrupted artifacts double as the
    // byte-identity reference for a later --restore.
    bool pause_reached = false;
    std::string restore_error;
    if (opts.checkpoint_at) {
      const double at = *opts.checkpoint_at;
      const std::string path = opts.checkpoint.value_or("grid.ckpt");
      grid->set_pause_hook(at, [&, at, path] {
        pause_reached = true;
        faucets::store::Checkpoint ckpt;
        ckpt.scenario_text = scenario_text;
        ckpt.until = until;
        faucets::core::fill_checkpoint(ckpt, *grid, at);
        ckpt.write_file(path);
        std::cout << "checkpoint written to " << path << " at t=" << at << "\n";
        return true;
      });
    } else if (restore_ckpt) {
      grid->set_pause_hook(restore_ckpt->sim_time, [&] {
        pause_reached = true;
        restore_error = faucets::core::verify_checkpoint(*restore_ckpt, *grid);
        if (!restore_error.empty()) return false;  // abandon the divergent run
        std::cout << "restore verified at t=" << restore_ckpt->sim_time
                  << "; continuing\n";
        return true;
      });
    }

    const auto source = scenario.make_source();
    const auto report = grid->run(*source, until);
    if ((opts.checkpoint_at || restore_ckpt) && !pause_reached) {
      throw std::runtime_error(
          "the run ended before the checkpoint instant was reached");
    }
    if (!restore_error.empty()) {
      throw std::runtime_error("restore verification failed: " + restore_error);
    }
    faucets::core::print_report(std::cout, report);

    if (opts.report_json) {
      auto out = open_out(*opts.report_json);
      faucets::core::write_report_json(out, report);
      std::cout << "wrote report JSON to " << *opts.report_json << "\n";
    }
    if (opts.profile) {
      // --profile[=path] writes the JSON summary to `path` and the sibling
      // Prometheus artifact next to it, named after its stem.
      std::string stem = *opts.profile;
      const std::string suffix = ".json";
      if (stem.size() > suffix.size() &&
          stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
        stem.resize(stem.size() - suffix.size());
      }
      const faucets::obs::Profiler& prof = *grid->profiler();
      auto json = open_out(*opts.profile);
      prof.write_json(json);
      auto prom = open_out(stem + ".prom");
      faucets::obs::write_prometheus(prom, prof.metrics());
      std::cout << "wrote host-time profile to " << *opts.profile << " (+ "
                << stem << ".prom)\n";
    }
    // One time-ordered copy of the trace ring feeds every trace writer.
    const faucets::obs::TraceView trace = grid->merged_trace();
    if (opts.trace_jsonl) {
      auto out = open_out(*opts.trace_jsonl);
      faucets::obs::write_trace_jsonl(out, trace);
      std::cout << "wrote typed trace to " << *opts.trace_jsonl << "\n";
    }
    if (opts.metrics) {
      auto out = open_out(*opts.metrics);
      faucets::obs::write_prometheus(out, grid->merged_metrics());
      std::cout << "wrote metrics to " << *opts.metrics << "\n";
    }
    if (opts.report) {
      auto out = open_out(*opts.report);
      const faucets::core::GridTelemetry tel = grid->telemetry();
      faucets::obs::ReportOptions ropts;
      if (opts.scenario_file) ropts.title = "Faucets: " + *opts.scenario_file;
      // Monitors that fired during the run land in the report's Alerts
      // table; a clean run contributes nothing, keeping the HTML identical
      // with the plane on or off.
      if (grid->live() != nullptr) {
        const auto states = grid->live()->monitor_states();
        for (std::size_t m = 0; m < states.size(); ++m) {
          const auto& s = states[m];
          if (s.alerts == 0) continue;
          faucets::obs::AlertRow row;
          row.monitor = faucets::obs::to_string(
              static_cast<faucets::obs::MonitorKind>(m));
          row.count = s.alerts;
          row.first_sim_time = s.first_sim_time;
          row.last_sim_time = s.last_sim_time;
          row.last_observed = s.last_observed;
          row.threshold = s.threshold;
          ropts.alerts.push_back(std::move(row));
        }
      }
      faucets::obs::write_html_report(out, grid->sampler(), tel.analysis,
                                      tel.users, tel.clusters, &trace, ropts);
      std::cout << "wrote HTML report to " << *opts.report << "\n";
    }
    if (opts.phases_csv) {
      auto out = open_out(*opts.phases_csv);
      faucets::obs::write_phases_csv(out, grid->telemetry().analysis);
      std::cout << "wrote phase decomposition to " << *opts.phases_csv << "\n";
    }
    if (opts.series_csv) {
      auto out = open_out(*opts.series_csv);
      faucets::obs::write_series_csv(out, grid->sampler());
      std::cout << "wrote sampled series to " << *opts.series_csv << "\n";
    }
    if (opts.chrome_trace) {
      auto out = open_out(*opts.chrome_trace);
      faucets::obs::ChromeTraceOptions chrome;
      for (const auto& c : scenario.clusters) {
        chrome.cluster_names.push_back(c.machine.name);
      }
      faucets::obs::write_chrome_trace(out, grid->merged_spans(), trace, chrome);
      std::cout << "wrote Chrome trace to " << *opts.chrome_trace
                << " (load it at https://ui.perfetto.dev)\n";
    }
    // Every run is gated on the grid's end-of-run audit, after the
    // artifacts are written so a failing run can still be inspected.
    const faucets::obs::live::Audit& audit = grid->audit();
    if (const auto term = audit.first_failure()) {
      std::cerr << "error: audit failed: " << faucets::obs::to_string(*term)
                << " observed " << audit.observed(*term) << ", threshold "
                << faucets::obs::live::Audit::threshold(*term) << "\n";
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
