// WorkloadSource: the pull-based job supply API (DESIGN.md §13).
//
// §5.4 runs the simulation "over patterns of job submissions under study".
// Every pattern — synthetic generator, replayed SWF trace, hand-built
// vector — enters the system through this one interface: the consumer
// peeks the next submit time, arms a timer, and pulls exactly one request
// when it fires. Nothing holds the whole workload in memory; a month-long
// trace streams off disk through a bounded read-ahead window.
//
// Contract:
//  - Sources yield requests in nondecreasing submit_time order.
//  - peek_next_submit_time() returns the next request's submit time, or
//    kNoMoreJobs (+inf) once the source is exhausted. Peeking may read
//    ahead (pump a parser, fill a reorder window) but never skips a job.
//  - next() is only valid while exhausted() is false.
//  - peek/next/exhausted are non-const: lazy sources pump on demand.
#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <vector>

#include "src/job/workload.hpp"

namespace faucets::job {

class WorkloadSource {
 public:
  /// peek_next_submit_time()'s "no more jobs" sentinel.
  static constexpr double kNoMoreJobs = std::numeric_limits<double>::infinity();

  virtual ~WorkloadSource() = default;

  [[nodiscard]] virtual double peek_next_submit_time() = 0;
  [[nodiscard]] virtual JobRequest next() = 0;
  [[nodiscard]] virtual bool exhausted() = 0;
};

/// Drain a source into a vector (the preload path: tests, small tools, and
/// the load_swf compatibility wrapper). `max_jobs` = 0 takes everything.
[[nodiscard]] std::vector<JobRequest> collect(WorkloadSource& source,
                                              std::size_t max_jobs = 0);

/// Adapter over an in-memory vector. Kept for tests and small examples;
/// the vector is stably sorted by submit time on construction so callers
/// may hand over requests in any order.
class VectorSource final : public WorkloadSource {
 public:
  explicit VectorSource(std::vector<JobRequest> requests);

  [[nodiscard]] double peek_next_submit_time() override;
  [[nodiscard]] JobRequest next() override;
  [[nodiscard]] bool exhausted() override;

 private:
  std::vector<JobRequest> requests_;
  std::size_t index_ = 0;
};

/// Streaming view of the synthetic generator: one job is materialized at a
/// time, in exactly the order and with exactly the RNG draws of
/// WorkloadGenerator::generate() — collect(GeneratorSource{p, s}) is
/// byte-for-byte WorkloadGenerator{p, s}.generate().
class GeneratorSource final : public WorkloadSource {
 public:
  explicit GeneratorSource(WorkloadParams params, std::uint64_t seed = 42);

  [[nodiscard]] double peek_next_submit_time() override;
  [[nodiscard]] JobRequest next() override;
  [[nodiscard]] bool exhausted() override;

 private:
  void fill();

  WorkloadGenerator generator_;
  JobRequest slot_;
  bool slot_full_ = false;
};

/// Routes one shared source across the per-user clients: requests go to
/// lane user_index % lanes, each lane is itself a WorkloadSource feeding
/// one client's submission-timer chain. A lane that runs dry pulls the
/// shared source inline, buffering other users' requests it passes over
/// in their own lanes (DESIGN.md §13).
///
/// Read-ahead is bounded by routing skew: a user that never submits again
/// forces the demux to buffer other users' jobs while scanning for its
/// next one, so a degenerate single-user trace degrades to O(jobs)
/// buffering (see DESIGN.md §13).
class WorkloadDemux {
 public:
  WorkloadDemux(WorkloadSource& source, std::size_t lanes);

  [[nodiscard]] WorkloadSource& lane(std::size_t index) {
    return lanes_[index];
  }
  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }

  /// Ensure every lane is nonempty or the source is exhausted, so clients
  /// can arm their first timer. Call before the run starts.
  void prime();

  [[nodiscard]] bool source_exhausted() const noexcept { return done_; }
  /// Requests currently buffered across all lanes / the run's high-water
  /// mark (maintained on every push and pop; the memory-bound counters
  /// BENCH_replay reports).
  [[nodiscard]] std::size_t buffered() const noexcept { return buffered_count_; }
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

 private:
  class Lane final : public WorkloadSource {
   public:
    [[nodiscard]] double peek_next_submit_time() override;
    [[nodiscard]] JobRequest next() override;
    [[nodiscard]] bool exhausted() override;

   private:
    friend class WorkloadDemux;
    WorkloadDemux* owner_ = nullptr;
    std::deque<JobRequest> buffer_;
  };

  /// Pull one request from the shared source into its lane. False once the
  /// source is exhausted.
  bool pull_one();
  /// Pull until `lane` is nonempty or the source is exhausted.
  void pull_for(Lane& lane);

  WorkloadSource* source_;
  bool done_ = false;
  std::size_t buffered_count_ = 0;
  std::size_t high_water_ = 0;
  std::vector<Lane> lanes_;
};

}  // namespace faucets::job
