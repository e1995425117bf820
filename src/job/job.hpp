// Job model: state machine plus the adaptive-job runtime mechanics
// (shrink/expand with reconfiguration cost) described in §4 of the paper.
// A Job runs on one Compute Server only: an evicted job is checkpointed
// there, and its owner sends the work left back to the market as a reduced
// contract (QosContract::reduced_by).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/qos/contract.hpp"
#include "src/util/ids.hpp"

namespace faucets::job {

enum class JobState {
  kCreated,     // constructed, not yet submitted
  kQueued,      // in the server's queue, no processors yet
  kRunning,     // progressing on >= min_procs processors
  kCheckpointed,  // evicted with its progress saved; never runs again
  kCompleted,
  kFailed,
};

[[nodiscard]] std::string_view to_string(JobState state) noexcept;

/// Runtime cost of malleability. The paper notes shrink/expand overheads
/// must be justified by phases lasting minutes. A checkpoint costs no stall
/// here: it costs time on the wire, through `JobEvicted::checkpoint_mb`.
struct AdaptiveCosts {
  double reconfig_seconds = 1.0;  // wall-clock stall on shrink/expand
};

/// A job instance inside the simulation. Work accounting: `remaining_work`
/// is in processor-seconds at perfect efficiency on a speed-1 machine;
/// progress between events is rate(procs) * speed * elapsed.
class Job {
 public:
  Job(JobId id, UserId owner, qos::QosContract contract, double submit_time);

  [[nodiscard]] JobId id() const noexcept { return id_; }
  [[nodiscard]] UserId owner() const noexcept { return owner_; }
  [[nodiscard]] const qos::QosContract& contract() const noexcept { return contract_; }
  [[nodiscard]] JobState state() const noexcept { return state_; }
  [[nodiscard]] double submit_time() const noexcept { return submit_time_; }
  [[nodiscard]] double start_time() const noexcept { return start_time_; }
  [[nodiscard]] double finish_time() const noexcept { return finish_time_; }
  [[nodiscard]] int procs() const noexcept { return procs_; }
  [[nodiscard]] double remaining_work() const noexcept { return remaining_work_; }
  [[nodiscard]] double total_work() const noexcept { return contract_.total_work(); }
  [[nodiscard]] int reconfig_count() const noexcept { return reconfig_count_; }

  // --- lifecycle transitions (validated; misuse is a logic error) --------
  void mark_queued();
  void mark_failed(double time);

  /// Start running on `procs` processors of a machine with `speed_factor`.
  void start(double time, int procs, double speed_factor,
             const AdaptiveCosts& costs = {});

  /// Account progress up to `time` with the current allocation.
  void advance_to(double time);

  /// Change allocation at `time` (shrink or expand). Applies the
  /// reconfiguration stall. New allocation may be 0 (vacate to queue).
  void reallocate(double time, int new_procs);

  /// Checkpoint at `time`: progress is retained, processors released.
  void checkpoint(double time);

  /// Mark completion at `time`. Remaining work must be ~0.
  void complete(double time);

  /// Absolute time at which the job finishes if the current allocation
  /// persists. Returns +infinity when it holds no processors.
  [[nodiscard]] double projected_finish(double now) const noexcept;

  /// Wall-clock needed to finish `remaining_work` on `procs` of this
  /// machine, including a pending reconfiguration stall if procs differs
  /// from the current allocation.
  [[nodiscard]] double time_to_finish_on(int procs) const noexcept;

  /// Fraction of total work done as of `now`, including progress earned
  /// since the last bookkeeping event (what AppSpector displays).
  [[nodiscard]] double progress_at(double now) const noexcept;

  // --- phase structure (§2.1) ---------------------------------------------
  /// True when the contract declares phases; execution then follows each
  /// phase's own efficiency model in order.
  [[nodiscard]] bool phased() const noexcept { return !phase_remaining_.empty(); }
  /// Index of the phase currently executing (0 for single-phase jobs).
  [[nodiscard]] std::size_t current_phase() const noexcept { return phase_; }
  /// Work left in the current phase.
  [[nodiscard]] double phase_remaining() const noexcept {
    return phased() ? phase_remaining_[phase_] : remaining_work_;
  }
  /// Next scheduling-relevant instant at the current allocation: the end of
  /// the current phase (when the scheduler should re-evaluate — the paper
  /// notes performance parameters shift between phases) or completion.
  [[nodiscard]] double next_event_time(double now) const noexcept;

  // --- derived metrics ----------------------------------------------------
  [[nodiscard]] double response_time() const noexcept { return finish_time_ - submit_time_; }
  [[nodiscard]] double wait_time() const noexcept { return start_time_ - submit_time_; }
  /// Bounded slowdown with the conventional 10 s threshold.
  [[nodiscard]] double bounded_slowdown() const noexcept;
  /// Payoff actually earned given the recorded finish time.
  [[nodiscard]] double earned_payoff() const noexcept;

 private:
  void transition(JobState next);

  /// Rate (work per second) of phase `phase` on `procs` of this machine.
  [[nodiscard]] double rate_for(std::size_t phase, int procs) const noexcept;
  /// Simulate execution of the phased copies from the last bookkeeping
  /// point to `now` without mutating the job.
  void phased_state_at(double now, std::vector<double>& rem,
                       std::size_t& phase) const noexcept;

  JobId id_;
  UserId owner_;
  qos::QosContract contract_;
  JobState state_ = JobState::kCreated;

  double submit_time_ = 0.0;
  double start_time_ = -1.0;
  double finish_time_ = -1.0;

  int procs_ = 0;
  double speed_factor_ = 1.0;
  double remaining_work_ = 0.0;
  double stall_until_ = 0.0;  // reconfiguration stall: no progress before this
  double last_update_ = 0.0;
  AdaptiveCosts costs_;
  int reconfig_count_ = 0;
  std::size_t phase_ = 0;
  std::vector<double> phase_remaining_;  // empty = no phase structure
};

}  // namespace faucets::job
