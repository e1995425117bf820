// Experiment E15 (DESIGN.md §13): streaming trace replay at production
// volume — jobs/sec admitted and peak RSS, streaming vs preload.
//
// The tentpole claim is a memory bound: SwfStreamSource holds a fixed
// reorder window no matter how long the trace is, while preloading holds
// the whole request vector. ru_maxrss is a per-process high-water mark, so
// each (mode, size) cell runs in its own child process: the parent re-execs
// itself with --child and reads the child's peak RSS from wait4 rusage.
// Grid cells measure jobs/sec admitted through the full market; drain
// cells move the workload through the source API alone and carry the
// memory-flatness assert (grid-side per-job telemetry grows with job count
// in both modes and would drown the vector in the RSS signal).
//
//   ./bench/bench_replay [--records N] [--out BENCH_replay.json]
//
// Default 200k records (~139 days of arrivals at one job per minute) keeps
// the eight cells under a minute on a laptop. The binary exits non-zero if
// streaming RSS grows with trace length like preload does (the regression
// this benchmark exists to catch); throughput comparisons are left to
// ci/run.sh, which applies them only on hosts with >= 8 hardware threads.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/job/swf.hpp"
#include "src/util/table.hpp"

using namespace faucets;

namespace {

std::string trace_file_path() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") +
         "/faucets_bench_replay_" + std::to_string(getpid()) + ".swf";
}

/// Deterministic synthetic month+ trace: one arrival per minute, 16 users,
/// power-of-two sizes 4..32, runtimes 600..2400 s. Offered load on the
/// 6x128-proc benchmark grid is ~0.5, so the market keeps up and the run
/// measures admission throughput, not queue pathology.
void write_trace(const std::string& path, std::size_t records) {
  std::ofstream out{path};
  out << "; bench_replay synthetic trace (" << records << " records)\n";
  for (std::size_t i = 0; i < records; ++i) {
    out << i + 1 << ' ' << i * 60 << " 0 " << 600 + (i % 4) * 600
        << " -1 -1 -1 " << (4 << (i % 4)) << ' ' << 600 + (i % 7) * 300
        << " -1 1 " << 1 + i % 16 << " 1 1 1 1 -1 -1\n";
  }
}

std::string grid_ini(const std::string& trace_path, std::size_t max_jobs) {
  std::ostringstream ini;
  ini << "[grid]\n"
         "users = 16\n"
         "seed = 4242\n"
         "evaluator = least-cost\n\n";
  for (int i = 0; i < 6; ++i) {
    ini << "[cluster]\nname = r" << i << "\nprocs = 128\ncost = "
        << 0.0006 + (i % 3) * 0.0002 << "\nstrategy = "
        << (i % 2 == 0 ? "payoff" : "fcfs") << "\nbidgen = baseline\n\n";
  }
  ini << "[trace]\nfile = " << trace_path << "\nmax_jobs = " << max_jobs
      << "\nmalleability = 0.5\ndeadline_fraction = 0.5\n";
  return ini.str();
}

// --- child: one (mode, size) cell in its own process -----------------------
//
// Grid cells ("stream"/"preload") run the full market simulation and
// measure jobs/sec admitted. Drain cells ("drain-stream"/"drain-preload")
// only move the workload through the source API and isolate the memory
// claim: per-job simulation state (telemetry rings, spans, metrics) grows
// with job count in BOTH grid modes and would otherwise drown the request
// vector in the RSS signal.

int run_child(const std::string& mode, const std::string& trace_path,
              std::size_t max_jobs, const std::string& out_path) {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::size_t demux_high_water = 0;
  std::size_t swf_window = 0;

  const auto start = std::chrono::steady_clock::now();
  if (mode == "drain-stream") {
    job::SwfOptions options;
    options.max_jobs = max_jobs;
    auto source = job::SwfStreamSource::open(trace_path, options);
    double checksum = 0.0;
    while (!source->exhausted()) {
      checksum += source->next().submit_time;
      ++submitted;
    }
    completed = submitted;
    swf_window = source->window_high_water();
    if (checksum < 0.0) return 1;  // keep the pulls observable
  } else if (mode == "drain-preload") {
    job::SwfOptions options;
    options.max_jobs = max_jobs;
    auto source = job::SwfStreamSource::open(trace_path, options);
    const auto requests = job::collect(*source);
    submitted = completed = requests.size();
    swf_window = source->window_high_water();
  } else {
    core::Scenario scenario =
        core::Scenario::parse_string(grid_ini(trace_path, max_jobs));
    auto grid = scenario.make_grid();
    core::GridReport report;
    if (mode == "stream") {
      auto source = scenario.make_source();
      report = grid->run(*source, 1e12);
      if (const auto* swf =
              dynamic_cast<job::SwfStreamSource*>(source.get())) {
        swf_window = swf->window_high_water();
      }
    } else {
      report = grid->run(scenario.make_requests(), 1e12);
    }
    submitted = report.jobs_submitted;
    completed = report.jobs_completed;
    demux_high_water = grid->workload_high_water();
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  std::ofstream out{out_path};
  out << "submitted=" << submitted << "\n"
      << "completed=" << completed << "\n"
      << "wall_ms=" << wall_ms << "\n"
      << "demux_high_water=" << demux_high_water << "\n"
      << "swf_window_high_water=" << swf_window << "\n";
  return out.good() ? 0 : 1;
}

// --- parent: spawn cells, read rusage --------------------------------------

struct Cell {
  std::string mode;
  std::size_t max_jobs = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  double wall_ms = 0.0;
  std::size_t demux_high_water = 0;
  std::size_t swf_window_high_water = 0;
  long max_rss_kb = 0;

  [[nodiscard]] double jobs_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(submitted) / (wall_ms / 1000.0)
                         : 0.0;
  }
};

Cell spawn_cell(const char* self, const std::string& mode,
                const std::string& trace_path, std::size_t max_jobs) {
  const std::string child_out =
      trace_path + "." + mode + "." + std::to_string(max_jobs) + ".txt";
  const std::string jobs_arg = std::to_string(max_jobs);

  const pid_t pid = fork();
  if (pid < 0) {
    std::cerr << "fork failed\n";
    std::exit(3);
  }
  if (pid == 0) {
    execl(self, self, "--child", mode.c_str(), "--trace", trace_path.c_str(),
          "--max-jobs", jobs_arg.c_str(), "--child-out", child_out.c_str(),
          static_cast<char*>(nullptr));
    std::cerr << "execl failed\n";
    std::_Exit(3);
  }

  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::cerr << "child " << mode << "/" << max_jobs << " failed\n";
    std::exit(3);
  }

  Cell cell;
  cell.mode = mode;
  cell.max_jobs = max_jobs;
  cell.max_rss_kb = usage.ru_maxrss;  // kilobytes on Linux
  std::ifstream in{child_out};
  for (std::string line; std::getline(in, line);) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "submitted") cell.submitted = std::stoull(value);
    if (key == "completed") cell.completed = std::stoull(value);
    if (key == "wall_ms") cell.wall_ms = std::stod(value);
    if (key == "demux_high_water") cell.demux_high_water = std::stoul(value);
    if (key == "swf_window_high_water") {
      cell.swf_window_high_water = std::stoul(value);
    }
  }
  std::remove(child_out.c_str());
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t records = 200000;
  std::string out_path;
  std::string child_mode;
  std::string child_trace;
  std::string child_out;
  std::size_t child_jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--records" && i + 1 < argc) {
      records = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--child" && i + 1 < argc) {
      child_mode = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      child_trace = argv[++i];
    } else if (arg == "--max-jobs" && i + 1 < argc) {
      child_jobs = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--child-out" && i + 1 < argc) {
      child_out = argv[++i];
    } else {
      std::cerr << "usage: bench_replay [--records N] [--out FILE]\n";
      return 1;
    }
  }
  if (!child_mode.empty()) {
    return run_child(child_mode, child_trace, child_jobs, child_out);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t grid_small = records / 16;
  const std::size_t grid_large = records / 4;
  const std::size_t drain_small = records / 4;
  std::cout << "=== E15: streaming trace replay (" << records
            << "-record trace, grid cells at " << grid_small << "/"
            << grid_large << " jobs, drain cells at " << drain_small << "/"
            << records << ", " << hw << " hardware threads) ===\n";

  const std::string trace_path = trace_file_path();
  write_trace(trace_path, records);

  std::vector<Cell> cells;
  for (const std::size_t jobs : {grid_small, grid_large}) {
    for (const char* mode : {"stream", "preload"}) {
      cells.push_back(spawn_cell(argv[0], mode, trace_path, jobs));
    }
  }
  for (const std::size_t jobs : {drain_small, records}) {
    for (const char* mode : {"drain-stream", "drain-preload"}) {
      cells.push_back(spawn_cell(argv[0], mode, trace_path, jobs));
    }
  }
  std::remove(trace_path.c_str());

  Table t{{"mode", "jobs", "admitted/s", "wall ms", "peak RSS MB",
           "demux buf", "swf window"}};
  for (const Cell& c : cells) {
    t.row()
        .cell(c.mode)
        .cell(static_cast<std::uint64_t>(c.max_jobs))
        .cell(c.jobs_per_sec(), 0)
        .cell(c.wall_ms, 1)
        .cell(static_cast<double>(c.max_rss_kb) / 1024.0, 1)
        .cell(static_cast<std::uint64_t>(c.demux_high_water))
        .cell(static_cast<std::uint64_t>(c.swf_window_high_water));
  }
  t.print(std::cout);

  // The two grid modes must admit the same jobs (tests/core prove
  // byte-identical artifacts; this is the cheap cross-process echo).
  std::map<std::size_t, std::map<std::string, const Cell*>> by_size;
  for (const Cell& c : cells) by_size[c.max_jobs][c.mode] = &c;
  for (const std::size_t jobs : {grid_small, grid_large}) {
    const auto& modes = by_size.at(jobs);
    if (modes.at("stream")->submitted != modes.at("preload")->submitted) {
      std::cerr << "FAIL: stream admitted " << modes.at("stream")->submitted
                << " jobs but preload admitted "
                << modes.at("preload")->submitted << " at size " << jobs << "\n";
      return 2;
    }
  }

  // Memory flatness, on the drain cells where the workload is the only
  // thing that scales: growing the trace 4x grows drain-preload RSS by the
  // request vector, and drain-stream RSS must not follow. Generous noise
  // slack, but well under the preload growth it exists to catch.
  const long stream_delta = by_size[records]["drain-stream"]->max_rss_kb -
                            by_size[drain_small]["drain-stream"]->max_rss_kb;
  const long preload_delta = by_size[records]["drain-preload"]->max_rss_kb -
                             by_size[drain_small]["drain-preload"]->max_rss_kb;
  std::cout << "drain RSS growth " << drain_small << " -> " << records
            << " jobs: stream " << stream_delta << " KB, preload "
            << preload_delta << " KB\n";
  if (preload_delta > 8 * 1024) {
    const long bound = preload_delta * 35 / 100 + 4 * 1024;
    if (stream_delta > bound) {
      std::cerr << "FAIL: streaming RSS grew " << stream_delta
                << " KB with trace length (bound " << bound
                << " KB) — the read-ahead window is no longer bounded\n";
      return 2;
    }
    std::cout << "streaming RSS flat (bound " << bound << " KB)\n";
  } else {
    std::cout << "preload growth too small to compare (scale --records up)\n";
  }

  if (!out_path.empty()) {
    std::ofstream out{out_path};
    out << "{\n"
        << "  \"benchmark\": \"bench_replay (E15: streaming trace replay at "
           "production volume)\",\n"
        << "  \"schema_version\": 1,\n"
        << "  \"workload\": \"" << records
        << "-record synthetic month trace through a 6-cluster market grid; "
           "stream (SwfStreamSource) vs preload (collected vector) at two "
           "sizes, one child process per cell for honest ru_maxrss\",\n"
        << "  \"hardware_concurrency\": " << hw << ",\n"
        << "  \"stream_rss_delta_kb\": " << stream_delta << ",\n"
        << "  \"preload_rss_delta_kb\": " << preload_delta << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"mode\": \"" << c.mode << "\", \"max_jobs\": " << c.max_jobs
          << ", \"submitted\": " << c.submitted
          << ", \"completed\": " << c.completed << ", \"wall_ms\": "
          << static_cast<std::uint64_t>(c.wall_ms + 0.5)
          << ", \"jobs_admitted_per_sec\": "
          << static_cast<std::uint64_t>(c.jobs_per_sec() + 0.5)
          << ", \"max_rss_kb\": " << c.max_rss_kb
          << ", \"demux_high_water\": " << c.demux_high_water
          << ", \"swf_window_high_water\": " << c.swf_window_high_water << "}"
          << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"build\": \"release-bench (-O3 -DNDEBUG)\",\n"
        << "  \"source\": \"ci/run.sh\"\n"
        << "}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
