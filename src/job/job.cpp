#include "src/job/job.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace faucets::job {

namespace {
constexpr double kEpsWork = 1e-6;
constexpr double kInf = 1e300;
}  // namespace

std::string_view to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kCreated: return "created";
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCheckpointed: return "checkpointed";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

Job::Job(JobId id, UserId owner, qos::QosContract contract, double submit_time)
    : id_(id),
      owner_(owner),
      contract_(std::move(contract)),
      submit_time_(submit_time),
      remaining_work_(contract_.work),
      last_update_(submit_time) {}

double Job::work_left_at(double now, double rate) const noexcept {
  const double from = std::max(last_update_, stall_until_);
  if (now <= from) return remaining_work_;
  return std::max(0.0, remaining_work_ - rate * (now - from));
}

void Job::transition(JobState next) { state_ = next; }

void Job::mark_queued() { transition(JobState::kQueued); }

void Job::mark_failed(double time) {
  procs_ = 0;
  finish_time_ = time;
  transition(JobState::kFailed);
}

void Job::start(double time, int procs, double speed_factor,
                const AdaptiveCosts& costs) {
  if (procs < contract_.min_procs) {
    throw std::invalid_argument("Job::start: fewer processors than contract minimum");
  }
  costs_ = costs;
  speed_factor_ = speed_factor;
  procs_ = std::min(procs, contract_.max_procs);
  start_time_ = time;
  last_update_ = time;
  stall_until_ = time;  // no startup stall; staging is modeled by the daemon
  transition(JobState::kRunning);
}

void Job::advance_to(double time) {
  // Progress up to last_update_ is already booked.
  if (state_ == JobState::kRunning && procs_ > 0 && time > last_update_) {
    remaining_work_ = work_left_at(time, rate_on(procs_));
  }
  last_update_ = std::max(last_update_, time);
}

void Job::reallocate(double time, int new_procs) {
  advance_to(time);
  if (new_procs == procs_) return;
  ++reconfig_count_;
  if (new_procs <= 0) {
    procs_ = 0;
    transition(JobState::kQueued);
    return;
  }
  procs_ = std::clamp(new_procs, contract_.min_procs, contract_.max_procs);
  stall_until_ = time + costs_.reconfig_seconds;
  transition(JobState::kRunning);
}

void Job::checkpoint(double time) {
  advance_to(time);
  procs_ = 0;
  transition(JobState::kCheckpointed);
}

void Job::complete(double time) {
  advance_to(time);
  assert(remaining_work_ <= kEpsWork * std::max(1.0, total_work()));
  remaining_work_ = 0.0;
  procs_ = 0;
  finish_time_ = time;
  transition(JobState::kCompleted);
}

double Job::projected_finish(double now) const noexcept {
  if (state_ == JobState::kCompleted) return finish_time_;
  if (procs_ <= 0) return kInf;
  const double rate = rate_on(procs_);
  if (rate <= 0.0) return kInf;
  return std::max(now, stall_until_) + work_left_at(now, rate) / rate;
}

double Job::time_to_finish_on(int procs) const noexcept {
  if (procs < contract_.min_procs) return kInf;
  const int p = std::min(procs, contract_.max_procs);
  const double stall = (p != procs_ && procs_ > 0) ? costs_.reconfig_seconds : 0.0;
  const double rate = rate_on(p);
  if (rate <= 0.0) return kInf;
  return stall + remaining_work_ / rate;
}

double Job::progress_at(double now) const noexcept {
  const double total = total_work();
  if (total <= 0.0) return 1.0;
  const bool earning = state_ == JobState::kRunning && procs_ > 0;
  const double work = earning ? work_left_at(now, rate_on(procs_)) : remaining_work_;
  return 1.0 - work / total;
}

double Job::bounded_slowdown() const noexcept {
  if (finish_time_ < 0.0) return 0.0;
  const double run = std::max(finish_time_ - start_time_, 10.0);
  return std::max(1.0, response_time() / run);
}

double Job::earned_payoff() const noexcept {
  if (state_ != JobState::kCompleted) return 0.0;
  return contract_.payoff.value_at(finish_time_);
}

}  // namespace faucets::job
