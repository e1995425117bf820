#include "src/cluster/server.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace faucets::cluster {

namespace {
constexpr double kInf = 1e300;
/// Relative tolerance for "the job is done".
constexpr double kDoneTolerance = 1e-6;

std::string labelled(const std::string& base, const std::string& cluster) {
  return base + "{cluster=\"" + cluster + "\"}";
}

/// Where job `id` is, or belongs, in a list kept in id order.
std::vector<job::Job*>::iterator id_position(std::vector<job::Job*>& jobs, JobId id) {
  return std::lower_bound(jobs.begin(), jobs.end(), id,
                          [](const job::Job* j, JobId value) { return j->id() < value; });
}

void insert_by_id(std::vector<job::Job*>& jobs, job::Job* j) {
  jobs.insert(id_position(jobs, j->id()), j);
}

void erase_by_id(std::vector<job::Job*>& jobs, JobId id) {
  const auto it = id_position(jobs, id);
  if (it != jobs.end() && (*it)->id() == id) jobs.erase(it);
}
}  // namespace

ClusterManager::ClusterManager(sim::SimContext& ctx, MachineSpec machine,
                               std::unique_ptr<sched::Strategy> strategy,
                               job::AdaptiveCosts costs, ClusterId id)
    : ctx_(&ctx),
      machine_(std::move(machine)),
      strategy_(std::move(strategy)),
      costs_(costs),
      id_(id),
      metrics_(machine_.total_procs) {
  if (!strategy_) throw std::invalid_argument("ClusterManager needs a strategy");
  auto& reg = ctx_->metrics();
  completed_ctr_ = &reg.counter(labelled("faucets_cm_jobs_completed_total", machine_.name),
                                "Jobs finished on this Compute Server");
  rejected_ctr_ = &reg.counter(labelled("faucets_cm_jobs_rejected_total", machine_.name),
                               "Submissions refused at admission");
  busy_gauge_ = &reg.gauge(labelled("faucets_cm_busy_procs", machine_.name),
                           "Processors currently allocated to jobs");
  wait_hist_ = &reg.histogram(labelled("faucets_job_wait_seconds", machine_.name),
                              obs::exponential_buckets(1.0, 2.0, 16),
                              "Queue wait time of completed jobs");
  slowdown_hist_ = &reg.histogram(labelled("faucets_job_slowdown", machine_.name),
                                  obs::exponential_buckets(1.0, 1.5, 16),
                                  "Bounded slowdown of completed jobs");
  occupancy_hist_ = &reg.histogram(labelled("faucets_cm_occupancy", machine_.name),
                                   obs::linear_buckets(0.05, 0.05, 20),
                                   "Fraction of processors busy, sampled at "
                                   "every allocation change");
  metrics_.record_busy(ctx_->now(), 0);
}

void ClusterManager::emit(obs::TraceEventKind kind, JobId job, UserId user,
                          int procs) {
  ctx_->trace().record(obs::job_event(ctx_->now(), EntityId{id_.value()}, kind,
                                      id_, job, user, procs));
}

void ClusterManager::observe_busy(double now, int busy) {
  metrics_.record_busy(now, busy);
  busy_gauge_->set(busy);
  if (machine_.total_procs > 0) {
    occupancy_hist_->observe(static_cast<double>(busy) /
                             static_cast<double>(machine_.total_procs));
  }
}

void ClusterManager::close_job_spans(JobId id, obs::SpanKind kind, double now) {
  const auto it = job_spans_.find(id);
  if (it == job_spans_.end()) return;
  auto& spans = ctx_->spans();
  const SpanId open = [&] {
    if (it->second.run.valid()) {
      const obs::Span* run = spans.find(it->second.run);
      if (run != nullptr && run->open()) return it->second.run;
    }
    return it->second.queue;
  }();
  spans.end_span(open, now);
  spans.instant_span(kind, now, open);
  job_spans_.erase(it);
}

sched::SchedulerContext ClusterManager::context() const {
  return {.now = ctx_->now(), .machine = &machine_,
          .running = running_, .queued = queued_};
}

double ClusterManager::queued_work() const {
  if (!queued_work_) {
    double sum = 0.0;
    for (const job::Job* j : queued_) sum += j->remaining_work();
    queued_work_ = sum;
  }
  return *queued_work_;
}

sched::AdmissionDecision ClusterManager::query(const qos::QosContract& contract) const {
  if (!contract.valid() || !machine_.can_ever_run(contract)) {
    return sched::AdmissionDecision::rejected();
  }
  sched::SchedulerContext ctx = context();
  ctx.queued_work = queued_work();
  return strategy_->admit(ctx, contract);
}

std::optional<JobId> ClusterManager::submit(UserId owner,
                                            const qos::QosContract& contract,
                                            SpanId parent) {
  const auto decision = query(contract);
  if (!decision.accept) {
    metrics_.on_rejected();
    rejected_ctr_->inc();
    emit(obs::TraceEventKind::kJobRejected, JobId{}, owner, contract.min_procs);
    return std::nullopt;
  }
  const JobId id = job_ids_.next();
  const double now = ctx_->now();
  emit(obs::TraceEventKind::kJobAccepted, id, owner, contract.min_procs);
  auto& spans = ctx_->spans();
  JobSpans js;
  js.queue = spans.start_span(obs::SpanKind::kQueue, now, parent);
  spans.set_user(js.queue, owner);
  spans.bind_job(js.queue, id_, id);
  job_spans_.emplace(id, js);
  job::Job* j =
      jobs_.emplace(id, std::make_unique<job::Job>(id, owner, contract, now))
          .first->second.get();
  j->mark_queued();
  queued_.push_back(j);  // ids increase, so the queue stays in id order
  queued_work_.reset();
  reschedule();
  return id;
}

std::optional<ReservationId> ClusterManager::reserve(const qos::QosContract& contract,
                                                     double lease_until) {
  const auto decision = query(contract);
  if (!decision.accept) return std::nullopt;
  const ReservationId id = reservation_ids_.next();
  Reservation r;
  r.contract = contract;
  r.until = lease_until;
  r.expiry =
      ctx_->engine().schedule_at(lease_until, [this, id] { expire_reservation(id); });
  reservations_.emplace(id, std::move(r));
  return id;
}

std::optional<JobId> ClusterManager::commit_reservation(ReservationId id, UserId owner,
                                                        SpanId parent) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return std::nullopt;
  const qos::QosContract contract = it->second.contract;
  it->second.expiry.cancel();
  reservations_.erase(it);
  // submit() re-runs admission: the machine may have shrunk or filled up
  // since the reserve (e.g. a competing commit landed first).
  return submit(owner, contract, parent);
}

bool ClusterManager::release_reservation(ReservationId id) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return false;
  it->second.expiry.cancel();
  reservations_.erase(it);
  return true;
}

bool ClusterManager::leak_reservation_for_test(ReservationId id) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return false;
  it->second.expiry.cancel();
  return true;
}

void ClusterManager::release_all_reservations() {
  for (auto& [id, r] : reservations_) r.expiry.cancel();
  reservations_.clear();
}

void ClusterManager::expire_reservation(ReservationId id) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return;
  reservations_.erase(it);
  ctx_->trace().record(obs::market_event(ctx_->now(), EntityId{id_.value()},
                                         obs::TraceEventKind::kLeaseExpired,
                                         RequestId{id.value()}, BidId{}, 0.0));
  if (on_lease_expired_) on_lease_expired_(id);
}

void ClusterManager::advance_all() {
  const double now = ctx_->now();
  for (job::Job* j : running_) j->advance_to(now);
}

void ClusterManager::apply_allocations(const std::vector<sched::Allocation>& allocations) {
  const double now = ctx_->now();
  auto& spans = ctx_->spans();

  // Apply shrinks and vacates first so capacity is never exceeded, then
  // expansions and starts.
  auto apply_one = [&](const sched::Allocation& a) {
    auto it = jobs_.find(a.job);
    if (it == jobs_.end()) return;
    job::Job& j = *it->second;
    const int target =
        a.procs == 0
            ? 0
            : std::clamp(a.procs, j.contract().min_procs, j.contract().max_procs);
    if (target == j.procs()) return;

    JobSpans& js = job_spans_[a.job];
    const bool was_running = j.procs() > 0;
    if (!was_running && target > 0) {
      if (j.start_time() < 0.0) {
        j.start(now, target, machine_.speed_factor, costs_);
        emit(obs::TraceEventKind::kJobStarted, a.job, j.owner(), target);
      } else {
        j.reallocate(now, target);
        emit(obs::TraceEventKind::kJobResumed, a.job, j.owner(), target);
      }
      spans.end_span(js.queue, now);
      js.run = spans.start_span(obs::SpanKind::kRun, now, js.queue);
      spans.set_value(js.run, target);
      erase_by_id(queued_, a.job);
      queued_work_.reset();
      insert_by_id(running_, &j);
    } else if (was_running && target == 0) {
      j.reallocate(now, 0);
      erase_by_id(running_, a.job);
      insert_by_id(queued_, &j);
      queued_work_.reset();
      emit(obs::TraceEventKind::kJobVacated, a.job, j.owner(), 0);
      spans.end_span(js.run, now);
      js.queue = spans.start_span(obs::SpanKind::kQueue, now, js.run);
      js.run = SpanId{};
    } else if (was_running) {
      const bool shrink = target < j.procs();
      j.reallocate(now, target);
      emit(shrink ? obs::TraceEventKind::kJobShrunk : obs::TraceEventKind::kJobExpanded,
           a.job, j.owner(), target);
      spans.instant_span(obs::SpanKind::kReconfig, now, js.run, target);
    }
  };

  for (const auto& a : allocations) {
    const auto it = jobs_.find(a.job);
    if (it == jobs_.end()) continue;
    if (a.procs < it->second->procs()) apply_one(a);
  }
  for (const auto& a : allocations) {
    const auto it = jobs_.find(a.job);
    if (it == jobs_.end()) continue;
    if (a.procs > it->second->procs()) apply_one(a);
  }

  const int busy = busy_procs();
  if (busy > machine_.total_procs) {
    throw std::logic_error("strategy over-committed the machine: " +
                           std::to_string(busy) + " > " +
                           std::to_string(machine_.total_procs));
  }
  observe_busy(now, busy);
}

void ClusterManager::reschedule() {
  if (rescheduling_) return;  // strategies may trigger nested updates
  rescheduling_ = true;
  advance_all();
  const auto allocations = strategy_->schedule(context());
  apply_allocations(allocations);
  rescheduling_ = false;
  arm_completion_timer();
}

void ClusterManager::arm_completion_timer() {
  completion_timer_.cancel();
  double next = kInf;
  for (const job::Job* j : running_) {
    next = std::min(next, j->projected_finish(ctx_->now()));
  }
  if (next >= kInf) return;
  completion_timer_ =
      ctx_->engine().schedule_at(next, [this] { handle_completions(); });
}

void ClusterManager::handle_completions() {
  advance_all();
  const double now = ctx_->now();
  std::vector<JobId> done;
  for (const job::Job* j : running_) {
    if (j->remaining_work() <= kDoneTolerance * std::max(1.0, j->total_work())) {
      done.push_back(j->id());
    }
  }
  for (JobId id : done) {
    job::Job& j = *jobs_.at(id);
    j.complete(now);
    erase_by_id(running_, id);
    metrics_.on_completed(j);
    completed_ctr_->inc();
    wait_hist_->observe(j.wait_time());
    slowdown_hist_->observe(j.bounded_slowdown());
    emit(obs::TraceEventKind::kJobCompleted, id, j.owner(), j.procs());
    close_job_spans(id, obs::SpanKind::kComplete, now);
    if (on_complete_) on_complete_(j);
  }
  observe_busy(now, busy_procs());
  reschedule();
}

std::optional<ClusterManager::Evicted> ClusterManager::evict_job(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  job::Job& j = *it->second;
  if (j.state() == job::JobState::kCompleted ||
      j.state() == job::JobState::kFailed) {
    return std::nullopt;
  }
  const double now = ctx_->now();
  if (j.state() == job::JobState::kRunning) {
    j.checkpoint(now);
  }
  Evicted out;
  out.job = id;
  out.owner = j.owner();
  out.contract = j.contract();
  out.completed_work = j.total_work() - j.remaining_work();
  emit(obs::TraceEventKind::kJobEvicted, id, j.owner(), j.procs());
  close_job_spans(id, obs::SpanKind::kEvicted, now);
  erase_by_id(running_, id);
  erase_by_id(queued_, id);
  queued_work_.reset();
  jobs_.erase(it);
  observe_busy(now, busy_procs());
  reschedule();
  return out;
}

std::vector<ClusterManager::Evicted> ClusterManager::evict_all() {
  // Each eviction reschedules, so snapshot the ids first.
  std::vector<JobId> ids;
  ids.reserve(running_.size() + queued_.size());
  for (const job::Job* j : running_) ids.push_back(j->id());
  for (const job::Job* j : queued_) ids.push_back(j->id());
  std::vector<Evicted> out;
  for (JobId id : ids) {
    if (auto e = evict_job(id)) out.push_back(std::move(*e));
  }
  completion_timer_.cancel();
  return out;
}

void ClusterManager::halt() {
  completion_timer_.cancel();
  const double now = ctx_->now();
  for (const auto* list : {&running_, &queued_}) {
    for (job::Job* j : *list) {
      j->mark_failed(now);
      metrics_.on_failed();
      emit(obs::TraceEventKind::kJobFailed, j->id(), j->owner(), 0);
      close_job_spans(j->id(), obs::SpanKind::kFailed, now);
    }
  }
  running_.clear();
  queued_.clear();
  queued_work_.reset();
  release_all_reservations();
  observe_busy(now, 0);
  on_complete_ = nullptr;
  on_lease_expired_ = nullptr;
}

int ClusterManager::busy_procs() const noexcept {
  int n = 0;
  for (const job::Job* j : running_) n += j->procs();
  return n;
}

double ClusterManager::projected_utilization(double from, double to) const {
  if (to <= from || machine_.total_procs <= 0) return 0.0;
  double proc_seconds = 0.0;
  for (const job::Job* j : running_) {
    const double finish = std::min(j->projected_finish(from), to);
    if (finish > from) proc_seconds += j->procs() * (finish - from);
  }
  // Queued jobs will occupy at least min_procs for their minimal runtime.
  for (const job::Job* j : queued_) {
    const double runtime = j->time_to_finish_on(j->contract().min_procs);
    const double span = std::min(runtime, to - from);
    if (span > 0.0 && runtime < kInf) proc_seconds += j->contract().min_procs * span;
  }
  // Reserved-but-uncommitted capacity counts too, so concurrent bidders see
  // the held lease priced into the utilization signal.
  for (const auto& [rid, r] : reservations_) {
    const double runtime =
        r.contract.estimated_runtime(r.contract.min_procs, machine_.speed_factor);
    const double span = std::min(runtime, to - from);
    if (span > 0.0) proc_seconds += r.contract.min_procs * span;
  }
  const double capacity = static_cast<double>(machine_.total_procs) * (to - from);
  return std::min(1.0, proc_seconds / capacity);
}

const job::Job* ClusterManager::find_job(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

}  // namespace faucets::cluster
