#include "src/sweep/result.hpp"

#include "src/obs/exporters.hpp"
#include "src/sweep/jsonio.hpp"

namespace faucets::sweep {

std::vector<std::pair<std::string, double>> grid_metrics(const core::GridReport& report) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(12);
  out.emplace_back("jobs_submitted", static_cast<double>(report.jobs_submitted));
  out.emplace_back("jobs_completed", static_cast<double>(report.jobs_completed));
  out.emplace_back("jobs_unplaced", static_cast<double>(report.jobs_unplaced));
  out.emplace_back("utilization", report.grid_utilization_weighted());
  out.emplace_back("total_spent", report.total_spent);
  out.emplace_back("client_payoff", report.total_client_payoff);
  out.emplace_back("mean_award_latency", report.mean_award_latency);
  out.emplace_back("messages", static_cast<double>(report.messages));
  out.emplace_back("makespan", report.makespan);
  out.emplace_back("migrations", static_cast<double>(report.migrations));
  out.emplace_back("watchdog_restarts", static_cast<double>(report.watchdog_restarts));
  // Mean exclusive-phase decomposition across finished submissions; the
  // columns are deterministic functions of the span tree, so sweep rows stay
  // byte-identical across thread counts.
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    out.emplace_back(
        "phase_" + std::string(obs::to_string(static_cast<obs::Phase>(p))),
        report.phase_mean_seconds[p]);
  }
  return out;
}

std::vector<std::pair<std::string, double>> cluster_metrics(
    const core::ClusterRunResult& result) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(10);
  out.emplace_back("utilization", result.utilization);
  out.emplace_back("completed", static_cast<double>(result.completed));
  out.emplace_back("rejected", static_cast<double>(result.rejected));
  out.emplace_back("mean_response", result.mean_response);
  out.emplace_back("p95_response", result.p95_response);
  out.emplace_back("mean_bounded_slowdown", result.mean_bounded_slowdown);
  out.emplace_back("total_payoff", result.total_payoff);
  out.emplace_back("deadline_misses", static_cast<double>(result.deadline_misses));
  out.emplace_back("makespan", result.makespan);
  out.emplace_back("reconfigs_per_job", result.reconfigs_per_job);
  return out;
}

RunResult make_result(const RunPoint& point, SweepMode mode,
                      std::vector<std::pair<std::string, double>> metrics) {
  RunResult out;
  out.run_id = point.run_id;
  out.point_index = point.point_index;
  out.replicate = point.replicate;
  out.seed = point.seed;
  out.point_key = point.key();
  out.metrics = std::move(metrics);

  std::string& line = out.jsonl;
  line.reserve(256);
  line += "{\"run\":" + std::to_string(point.run_id);
  line += ",\"point\":" + std::to_string(point.point_index);
  line += ",\"replicate\":" + std::to_string(point.replicate);
  line += ",\"seed\":" + std::to_string(point.seed);
  line += ",\"axes\":{\"scheduler\":\"" + obs::json_escape(point.scheduler) + "\"";
  if (mode == SweepMode::kGrid) {
    line += ",\"bidgen\":\"" + obs::json_escape(point.bidgen) + "\"";
    line += ",\"evaluator\":\"" + obs::json_escape(point.evaluator) + "\"";
  }
  line += ",\"load\":" + format_double(point.load);
  if (mode == SweepMode::kGrid) {
    line += ",\"loss\":" + format_double(point.loss);
  }
  if (point.time_compression > 0.0) {
    // Trace-replay axes only appear on trace sweeps, so every pre-trace
    // sweep's JSONL stays byte-identical.
    line += ",\"time_compression\":" + format_double(point.time_compression);
    line += ",\"user_multiplier\":" + std::to_string(point.user_multiplier);
  }
  line += "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    if (!first) line += ',';
    first = false;
    line += '"' + obs::json_escape(name) + "\":" + format_double(value);
  }
  line += "}}";
  return out;
}

}  // namespace faucets::sweep
