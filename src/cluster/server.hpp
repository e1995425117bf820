// ClusterManager: the "Adaptive Queueing System aka Scheduler aka Cluster
// Manager (CM)" of the paper's component list (§2). It owns the jobs on one
// Compute Server, consults a pluggable scheduling strategy, and drives job
// progress through the discrete-event engine.
//
// The CM is usable standalone (scheduler experiments E1-E4) and behind a
// FaucetsDaemon in the full market (E5-E8). Every lifecycle transition is
// emitted as a typed trace event and mirrored into queue/run spans, so one
// job's history is queryable from ctx.spans() without string parsing.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cluster/machine.hpp"
#include "src/job/job.hpp"
#include "src/sched/metrics.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sim/context.hpp"
#include "src/sim/engine.hpp"
#include "src/util/ids.hpp"

namespace faucets::cluster {

class ClusterManager {
 public:
  ClusterManager(sim::SimContext& ctx, MachineSpec machine,
                 std::unique_ptr<sched::Strategy> strategy,
                 job::AdaptiveCosts costs = {}, ClusterId id = ClusterId{0});

  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  // --- submission ---------------------------------------------------------
  /// Non-committing admission query; backs bid generation. The CM queries
  /// its database of running/scheduled jobs to decide (§2).
  [[nodiscard]] sched::AdmissionDecision query(const qos::QosContract& contract) const;

  /// Submit a job now. Returns its id if admitted, nullopt if refused.
  /// `parent` (when valid) is the causal span the queue span hangs off —
  /// the daemon passes the client's award span so the whole submit → bid →
  /// award → schedule chain links up.
  std::optional<JobId> submit(UserId owner, const qos::QosContract& contract,
                              SpanId parent = {});

  /// Invoked with every job that completes (the daemon uses this to notify
  /// the client and AppSpector).
  void set_completion_callback(std::function<void(const job::Job&)> cb) {
    on_complete_ = std::move(cb);
  }

  // --- two-phase award reservations (§5.2 deferred commit) -----------------
  /// Reserve capacity for a winning bid: admission is checked now and the
  /// contract is held until `lease_until` (absolute sim time). If no commit
  /// arrives by then the lease expires, the capacity returns to the market,
  /// and the lease-expired callback fires. Reserved work is visible to
  /// projected_utilization so subsequent bids price the held capacity in.
  [[nodiscard]] std::optional<ReservationId> reserve(const qos::QosContract& contract,
                                                     double lease_until);

  /// Turn a reservation into a real job. Admission is re-checked (the
  /// machine may have changed since the reserve); on refusal the
  /// reservation is consumed and nullopt returned, so the awarder re-bids.
  std::optional<JobId> commit_reservation(ReservationId id, UserId owner,
                                          SpanId parent = {});

  /// Abort a reservation (client gave up, or the award went elsewhere).
  /// Returns false when the id is unknown or already expired. Idempotent.
  bool release_reservation(ReservationId id);

  /// Drop every outstanding lease (daemon crash/shutdown path).
  void release_all_reservations();

  [[nodiscard]] std::size_t active_reservations() const noexcept {
    return reservations_.size();
  }

  /// Reservations whose lease expired more than `grace` sim-seconds ago but
  /// are still held. Zero on a healthy CM — expire_reservation() erases the
  /// entry the moment its lease runs out — so the live monitor treats any
  /// positive count as a leak.
  [[nodiscard]] std::size_t leaked_reservations(double now, double grace) const noexcept {
    std::size_t n = 0;
    for (const auto& [id, r] : reservations_) {
      if (r.until + grace < now) ++n;
    }
    return n;
  }

  /// Chaos seam: cancel `id`'s expiry timer while keeping the lease held,
  /// reproducing the lost-expiry failure mode the lease-leak monitor exists
  /// to catch. Returns false when the id is unknown. Test-only.
  bool leak_reservation_for_test(ReservationId id);

  /// Fires when a lease expires without a commit (the daemon uses this to
  /// forget the associated bid bookkeeping).
  void set_lease_expired_callback(std::function<void(ReservationId)> cb) {
    on_lease_expired_ = std::move(cb);
  }

  // --- checkpoint / eviction (§3, §4.1) ------------------------------------
  /// What survives an eviction: enough to resubmit the job elsewhere.
  struct Evicted {
    JobId job;
    UserId owner;
    qos::QosContract contract;
    double completed_work = 0.0;  // processor-seconds already done
  };

  /// Checkpoint one job and remove it from this Compute Server. Returns
  /// nullopt if the job is unknown or already finished.
  std::optional<Evicted> evict_job(JobId id);

  /// Drain the machine: checkpoint every running job and drop the queue.
  /// Used when a Compute Server is taken down (§3: "when the machine is
  /// about to be taken down, checkpointing the job and moving it to
  /// another machine").
  std::vector<Evicted> evict_all();

  /// Hard failure: every live job is lost with no checkpoint and no
  /// callback. The machine stops executing (its event timer is cancelled).
  void halt();

  // --- state for bidding and monitoring ------------------------------------
  [[nodiscard]] const MachineSpec& machine() const noexcept { return machine_; }
  [[nodiscard]] ClusterId id() const noexcept { return id_; }
  [[nodiscard]] int busy_procs() const noexcept;
  [[nodiscard]] std::size_t running_count() const noexcept { return running_.size(); }
  [[nodiscard]] std::size_t queued_count() const noexcept { return queued_.size(); }

  /// Fraction of capacity committed on average between `from` and `to`,
  /// projected from the current jobs — the signal the paper's
  /// utilization-interpolated bid generator consumes (§5.2).
  [[nodiscard]] double projected_utilization(double from, double to) const;

  [[nodiscard]] const job::Job* find_job(JobId id) const;
  /// Live jobs in submit (id) order. The views are invalidated by the next
  /// submission, allocation change, completion or eviction.
  [[nodiscard]] std::span<const job::Job* const> running_jobs() const noexcept {
    return running_;
  }
  [[nodiscard]] std::span<const job::Job* const> queued_jobs() const noexcept {
    return queued_;
  }

  [[nodiscard]] sched::MetricsCollector& metrics() noexcept { return metrics_; }
  [[nodiscard]] const sched::MetricsCollector& metrics() const noexcept { return metrics_; }

  /// Close the metrics window (call once when the experiment ends).
  void finish_metrics() { metrics_.finish(ctx_->now()); }

  [[nodiscard]] const sched::Strategy& strategy() const noexcept { return *strategy_; }

 private:
  /// The open queue/run spans of one live job.
  struct JobSpans {
    SpanId queue;
    SpanId run;
  };

  /// One outstanding capacity lease of the two-phase award.
  struct Reservation {
    qos::QosContract contract;
    double until = 0.0;
    sim::EventHandle expiry;
  };

  void expire_reservation(ReservationId id);

  /// Remaining work of the queued jobs, summed in queue order (memoized).
  [[nodiscard]] double queued_work() const;

  void reschedule();
  void apply_allocations(const std::vector<sched::Allocation>& allocations);
  void arm_completion_timer();
  void handle_completions();
  [[nodiscard]] sched::SchedulerContext context() const;
  void advance_all();

  void emit(obs::TraceEventKind kind, JobId job, UserId user, int procs);
  void observe_busy(double now, int busy);
  /// Close whichever of the job's spans is open and append a terminal
  /// instant of `kind` under it.
  void close_job_spans(JobId id, obs::SpanKind kind, double now);

  sim::SimContext* ctx_;
  MachineSpec machine_;
  std::unique_ptr<sched::Strategy> strategy_;
  job::AdaptiveCosts costs_;
  ClusterId id_;

  IdGenerator<JobId> job_ids_;
  std::unordered_map<JobId, std::unique_ptr<job::Job>> jobs_;
  std::vector<job::Job*> running_;  // owned by jobs_; submit (id) order
  std::vector<job::Job*> queued_;   // owned by jobs_; submit (id) order
  /// queued_work()'s memo, reset by every change to queued_. Queued jobs
  /// make no progress, so the sum changes only when the queue does.
  mutable std::optional<double> queued_work_;
  std::unordered_map<JobId, JobSpans> job_spans_;
  sched::MetricsCollector metrics_;
  sim::EventHandle completion_timer_;
  std::function<void(const job::Job&)> on_complete_;
  IdGenerator<ReservationId> reservation_ids_;
  std::unordered_map<ReservationId, Reservation> reservations_;
  std::function<void(ReservationId)> on_lease_expired_;
  bool rescheduling_ = false;

  // Registry instruments (labelled with this cluster's machine name),
  // resolved once at construction.
  obs::Counter* completed_ctr_;
  obs::Counter* rejected_ctr_;
  obs::Gauge* busy_gauge_;
  obs::Histogram* wait_hist_;
  obs::Histogram* slowdown_hist_;
  obs::Histogram* occupancy_hist_;
};

}  // namespace faucets::cluster
