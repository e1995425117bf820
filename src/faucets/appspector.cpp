#include "src/faucets/appspector.hpp"

#include <sstream>

#include "src/obs/analyzer.hpp"
#include "src/sim/context.hpp"

namespace faucets {

AppSpector::AppSpector(sim::SimContext& ctx, std::size_t display_buffer_lines)
    : sim::Entity("appspector", ctx),
      buffer_lines_(display_buffer_lines) {
  network().attach(*this);
}

const AppSpector::JobView* AppSpector::find(ClusterId cluster, JobId job) const {
  auto it = jobs_.find(Key{cluster, job});
  return it == jobs_.end() ? nullptr : &it->second;
}

std::vector<obs::TimelineRow> AppSpector::job_timeline_rows(ClusterId cluster,
                                                            JobId job) const {
  return context().spans().for_job(cluster, job);
}

std::vector<std::string> AppSpector::job_timeline(ClusterId cluster, JobId job) const {
  std::vector<std::string> out;
  for (const obs::TimelineRow& row : job_timeline_rows(cluster, job)) {
    out.push_back(obs::format_timeline_row(row));
  }
  return out;
}

void AppSpector::on_message(const sim::Message& msg) {
  switch (msg.kind()) {
    case sim::MessageKind::kMonitorRegister: {
      const auto& reg = sim::message_cast<proto::RegisterJobMonitor>(msg);
      JobView view;
      view.cluster = reg.cluster;
      view.user = reg.user;
      view.application = reg.application;
      jobs_[Key{reg.cluster, reg.job}] = std::move(view);
      break;
    }
    case sim::MessageKind::kMonitorUpdate: {
      const auto& update = sim::message_cast<proto::JobStatusUpdate>(msg);
      auto it = jobs_.find(Key{update.cluster, update.job});
      if (it == jobs_.end()) return;
      JobView& view = it->second;
      view.state = update.state;
      view.procs = update.procs;
      view.progress = update.progress;
      view.utilization = update.utilization;
      ++view.updates;
      std::ostringstream line;
      line << "[" << now() << "] " << update.state << " procs=" << update.procs
           << " progress=" << update.progress;
      if (!update.display.empty()) line << " | " << update.display;
      view.display.push_back(line.str());
      while (view.display.size() > buffer_lines_) view.display.pop_front();
      break;
    }
    case sim::MessageKind::kWatch: {
      const auto& watch = sim::message_cast<proto::WatchJob>(msg);
      ++watch_requests_;
      auto reply = std::make_unique<proto::WatchReply>();
      reply->job = watch.job;
      if (const JobView* view = find(watch.cluster, watch.job)) {
        reply->known = true;
        reply->state = view->state;
        reply->procs = view->procs;
        reply->progress = view->progress;
        reply->display_buffer.assign(view->display.begin(), view->display.end());
      }
      network().send(*this, watch.from, std::move(reply));
      break;
    }
    default:
      break;
  }
}

}  // namespace faucets
