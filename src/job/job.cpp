#include "src/job/job.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
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
      remaining_work_(contract_.total_work()),
      last_update_(submit_time) {
  phase_remaining_.reserve(contract_.phases.size());
  for (const auto& phase : contract_.phases) phase_remaining_.push_back(phase.work);
}

double Job::rate_for(std::size_t phase, int procs) const noexcept {
  const auto& model = phase_remaining_.empty() ? contract_.efficiency
                                               : contract_.phases[phase].efficiency;
  return model.rate(procs) * speed_factor_;
}

void Job::phased_state_at(double now, std::vector<double>& rem,
                          std::size_t& phase) const noexcept {
  rem = phase_remaining_;
  phase = phase_;
  if (state_ != JobState::kRunning || procs_ <= 0) return;
  const double from = std::max(last_update_, stall_until_);
  double dt = now - from;
  while (dt > 0.0 && phase < rem.size()) {
    const double rate = rate_for(phase, procs_);
    if (rate <= 0.0) return;
    const double need = rem[phase] / rate;
    if (need <= dt) {
      dt -= need;
      rem[phase] = 0.0;
      ++phase;
    } else {
      rem[phase] -= rate * dt;
      dt = 0.0;
    }
  }
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
  if (state_ != JobState::kRunning || procs_ <= 0) {
    last_update_ = std::max(last_update_, time);
    return;
  }
  const double from = std::max(last_update_, stall_until_);
  if (time > from) {
    if (phased()) {
      phased_state_at(time, phase_remaining_, phase_);
      remaining_work_ = 0.0;
      for (double w : phase_remaining_) remaining_work_ += w;
    } else {
      const double rate = rate_for(0, procs_);
      remaining_work_ = std::max(0.0, remaining_work_ - rate * (time - from));
    }
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
  const double effective_start = std::max(now, stall_until_);
  if (phased()) {
    std::vector<double> rem;
    std::size_t phase = 0;
    phased_state_at(effective_start, rem, phase);
    double finish = effective_start;
    for (std::size_t p = phase; p < rem.size(); ++p) {
      const double rate = rate_for(p, procs_);
      if (rate <= 0.0) return kInf;
      finish += rem[p] / rate;
    }
    return finish;
  }
  const double rate = rate_for(0, procs_);
  if (rate <= 0.0) return kInf;
  double work = remaining_work_;
  // Progress already earned between last_update_ and now is not yet
  // subtracted from remaining_work_; account for it here.
  const double from = std::max(last_update_, stall_until_);
  if (now > from) work = std::max(0.0, work - rate * (now - from));
  return effective_start + work / rate;
}

double Job::next_event_time(double now) const noexcept {
  if (!phased()) return projected_finish(now);
  if (state_ == JobState::kCompleted) return finish_time_;
  if (procs_ <= 0) return kInf;
  const double effective_start = std::max(now, stall_until_);
  std::vector<double> rem;
  std::size_t phase = 0;
  phased_state_at(effective_start, rem, phase);
  if (phase >= rem.size()) return effective_start;  // all work done
  const double rate = rate_for(phase, procs_);
  if (rate <= 0.0) return kInf;
  return effective_start + rem[phase] / rate;
}

double Job::time_to_finish_on(int procs) const noexcept {
  if (procs < contract_.min_procs) return kInf;
  const int p = std::min(procs, contract_.max_procs);
  const double stall = (p != procs_ && procs_ > 0) ? costs_.reconfig_seconds : 0.0;
  if (phased()) {
    double total = stall;
    for (std::size_t ph = phase_; ph < phase_remaining_.size(); ++ph) {
      const double rate = rate_for(ph, p);
      if (rate <= 0.0) return kInf;
      total += phase_remaining_[ph] / rate;
    }
    return total;
  }
  const double rate = rate_for(0, p);
  if (rate <= 0.0) return kInf;
  return stall + remaining_work_ / rate;
}

double Job::progress_at(double now) const noexcept {
  const double total = total_work();
  if (total <= 0.0) return 1.0;
  double work = remaining_work_;
  if (state_ == JobState::kRunning && procs_ > 0) {
    if (phased()) {
      std::vector<double> rem;
      std::size_t phase = 0;
      phased_state_at(now, rem, phase);
      work = 0.0;
      for (double w : rem) work += w;
    } else {
      const double rate = rate_for(0, procs_);
      const double from = std::max(last_update_, stall_until_);
      if (now > from) work = std::max(0.0, work - rate * (now - from));
    }
  }
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
