#include "src/job/source.hpp"

#include <algorithm>
#include <utility>

namespace faucets::job {

std::vector<JobRequest> collect(WorkloadSource& source, std::size_t max_jobs) {
  std::vector<JobRequest> out;
  while (!source.exhausted()) {
    out.push_back(source.next());
    if (max_jobs > 0 && out.size() >= max_jobs) break;
  }
  return out;
}

// --- VectorSource ----------------------------------------------------------

VectorSource::VectorSource(std::vector<JobRequest> requests)
    : requests_(std::move(requests)) {
  std::stable_sort(requests_.begin(), requests_.end(),
                   [](const JobRequest& a, const JobRequest& b) {
                     return a.submit_time < b.submit_time;
                   });
}

double VectorSource::peek_next_submit_time() {
  return index_ < requests_.size() ? requests_[index_].submit_time : kNoMoreJobs;
}

JobRequest VectorSource::next() { return std::move(requests_[index_++]); }

bool VectorSource::exhausted() { return index_ >= requests_.size(); }

// --- GeneratorSource -------------------------------------------------------

GeneratorSource::GeneratorSource(WorkloadParams params, std::uint64_t seed)
    : generator_(params, seed) {}

void GeneratorSource::fill() {
  if (!slot_full_ && !generator_.exhausted()) {
    slot_ = generator_.next();
    slot_full_ = true;
  }
}

double GeneratorSource::peek_next_submit_time() {
  fill();
  return slot_full_ ? slot_.submit_time : kNoMoreJobs;
}

JobRequest GeneratorSource::next() {
  fill();
  slot_full_ = false;
  return std::move(slot_);
}

bool GeneratorSource::exhausted() {
  fill();
  return !slot_full_;
}

// --- WorkloadDemux ---------------------------------------------------------

WorkloadDemux::WorkloadDemux(WorkloadSource& source, std::size_t lanes)
    : source_(&source) {
  lanes_.resize(std::max<std::size_t>(1, lanes));
  for (auto& lane : lanes_) lane.owner_ = this;
}

bool WorkloadDemux::pull_one() {
  if (done_) return false;
  if (source_->exhausted()) {
    done_ = true;
    return false;
  }
  JobRequest req = source_->next();
  Lane& lane = lanes_[req.user_index % lanes_.size()];
  lane.buffer_.push_back(std::move(req));
  high_water_ = std::max(high_water_, ++buffered_count_);
  if (source_->exhausted()) done_ = true;
  return true;
}

void WorkloadDemux::pull_for(Lane& lane) {
  while (lane.buffer_.empty() && pull_one()) {
  }
}

void WorkloadDemux::prime() {
  for (auto& lane : lanes_) pull_for(lane);
}

double WorkloadDemux::Lane::peek_next_submit_time() {
  if (buffer_.empty()) owner_->pull_for(*this);
  return buffer_.empty() ? kNoMoreJobs : buffer_.front().submit_time;
}

JobRequest WorkloadDemux::Lane::next() {
  if (buffer_.empty()) owner_->pull_for(*this);
  JobRequest out = std::move(buffer_.front());
  buffer_.pop_front();
  --owner_->buffered_count_;
  return out;
}

bool WorkloadDemux::Lane::exhausted() {
  if (buffer_.empty()) owner_->pull_for(*this);
  return buffer_.empty() && owner_->done_;
}

}  // namespace faucets::job
