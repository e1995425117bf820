// AppSpector monitoring (paper §2): watch a running job through the
// AppSpector server the way the GUI client does — late-joining watchers get
// the buffered display data.
//
//   ./examples/appspector_monitor
#include <iostream>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"

using namespace faucets;

namespace {

/// A bare-bones watcher entity standing in for a second browser session.
class Watcher final : public sim::Entity {
 public:
  Watcher(sim::SimContext& ctx, EntityId appspector)
      : sim::Entity("watcher", ctx), network_(&ctx.network()), as_(appspector) {
    network_->attach(*this);
  }

  void watch(ClusterId cluster, JobId job) {
    auto msg = std::make_unique<proto::WatchJob>();
    msg->cluster = cluster;
    msg->job = job;
    network_->send(*this, as_, std::move(msg));
  }

  void on_message(const sim::Message& msg) override {
    if (msg.kind() != sim::MessageKind::kWatchReply) return;
    const auto& reply = sim::message_cast<proto::WatchReply>(msg);
    std::cout << "[t=" << now() << "s] watcher sees job " << reply.job
              << ": state=" << reply.state << " procs=" << reply.procs
              << " progress=" << static_cast<int>(reply.progress * 100)
              << "%\n";
    for (const auto& line : reply.display_buffer) {
      std::cout << "    buffered> " << line << "\n";
    }
  }

 private:
  sim::Network* network_;
  EntityId as_;
};

}  // namespace

int main() {
  core::ClusterSetup setup;
  setup.machine.name = "monitored";
  setup.machine.total_procs = 128;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };

  core::GridConfig config;
  config.daemon.monitor_interval = 60.0;  // periodic AppSpector pushes
  core::GridSystem grid(config, {std::move(setup)}, 1);
  grid.central().register_application("namd");

  Watcher watcher{grid.context(), grid.appspector().id()};

  // One long job: 128 procs x 600 s.
  job::JobRequest req;
  req.submit_time = 0.0;
  req.contract = qos::make_contract(16, 128, 128.0 * 600.0, 1.0, 0.9);
  req.contract.environment.application = "namd";
  req.contract.payoff = qos::PayoffFunction::flat(25.0);

  // Poll the job from the watcher a few times during the run.
  for (double t : {120.0, 360.0, 580.0}) {
    grid.engine().schedule_at(t, [&watcher] { watcher.watch(ClusterId{0}, JobId{0}); });
  }

  const auto report = grid.run({req});
  std::cout << "\njob completed=" << report.jobs_completed
            << ", AppSpector monitored " << grid.appspector().monitored_jobs()
            << " job(s), served " << grid.appspector().watch_requests()
            << " watch requests\n";

  // The span timeline: the job's full causal history (submission → RFB →
  // bids → award → queue → run → completion) straight from the
  // observability layer, no log parsing required.
  std::cout << "\nlifecycle spans for job 0:\n";
  for (const auto& line : grid.appspector().job_timeline(ClusterId{0}, JobId{0})) {
    std::cout << "  " << line << "\n";
  }
  return 0;
}
