// AppSpector — the Job Monitoring component (§2). "AppSpector server
// connects to the job through a network connection and buffers the display
// data so that multiple clients can monitor the job simultaneously. [...]
// One section of this display is application specific and the other section
// generic, providing the processor utilization/throughput of the
// application on the Compute Server."
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/faucets/protocol.hpp"
#include "src/obs/analyzer.hpp"
#include "src/sim/network.hpp"

namespace faucets {

class AppSpector final : public sim::Entity {
 public:
  explicit AppSpector(sim::SimContext& ctx, std::size_t display_buffer_lines = 64);

  void on_message(const sim::Message& msg) override;

  struct JobView {
    ClusterId cluster;
    UserId user;
    std::string application;
    std::string state = "registered";
    int procs = 0;
    double progress = 0.0;
    double utilization = 0.0;
    std::deque<std::string> display;  // buffered application output
    std::uint64_t updates = 0;
  };

  [[nodiscard]] std::size_t monitored_jobs() const noexcept { return jobs_.size(); }
  [[nodiscard]] const JobView* find(ClusterId cluster, JobId job) const;
  [[nodiscard]] std::uint64_t watch_requests() const noexcept { return watch_requests_; }

  /// The job's lifecycle as structured rows (kind, interval, value), drawn
  /// from the observability layer's span tracker (RFB → bids → award →
  /// queue/run → reconfigs → terminal state), oldest first. Empty if the job
  /// was never bound to a span tree. The analyzer's phase decomposition
  /// reads the same rows, so the monitoring view and the accounting agree
  /// by construction.
  [[nodiscard]] std::vector<obs::TimelineRow> job_timeline_rows(ClusterId cluster,
                                                                JobId job) const;

  /// The rows of job_timeline_rows() formatted for a terminal, one line per
  /// span (obs::format_timeline_row).
  [[nodiscard]] std::vector<std::string> job_timeline(ClusterId cluster, JobId job) const;

 private:
  struct Key {
    ClusterId cluster;
    JobId job;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<ClusterId>{}(k.cluster) * 1000003u ^ std::hash<JobId>{}(k.job);
    }
  };

  std::size_t buffer_lines_;
  std::unordered_map<Key, JobView, KeyHash> jobs_;
  std::uint64_t watch_requests_ = 0;
};

}  // namespace faucets
