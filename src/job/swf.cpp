#include "src/job/swf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace faucets::job {

namespace {

// SWF field indices (0-based) per the Parallel Workloads Archive spec.
constexpr std::size_t kSubmitTime = 1;
constexpr std::size_t kRunTime = 3;
constexpr std::size_t kAllocatedProcs = 4;
constexpr std::size_t kRequestedProcs = 7;
constexpr std::size_t kRequestedTime = 8;
constexpr std::size_t kUserId = 11;
constexpr std::size_t kFieldCount = 18;

}  // namespace

SwfStreamSource::SwfStreamSource(std::istream& in, SwfOptions options)
    : in_(&in),
      opt_(options),
      seeds_(options.seed),
      clones_(std::max<std::size_t>(1, options.user_multiplier)) {
  if (opt_.time_compression <= 0.0) {
    throw std::invalid_argument("swf: time_compression must be positive");
  }
  line_.reserve(512);
  window_.reserve(std::max<std::size_t>(opt_.read_ahead, clones_));
}

SwfStreamSource::SwfStreamSource(std::unique_ptr<std::istream> owned,
                                 SwfOptions options)
    : SwfStreamSource(*owned, options) {
  owned_ = std::move(owned);
}

std::unique_ptr<SwfStreamSource> SwfStreamSource::open(const std::string& path,
                                                       SwfOptions options) {
  auto file = std::make_unique<std::ifstream>(path);
  if (!file->is_open()) {
    throw std::invalid_argument("swf: cannot open trace file '" + path + "'");
  }
  return std::unique_ptr<SwfStreamSource>(
      new SwfStreamSource(std::move(file), options));
}

void SwfStreamSource::push_item(Item item) {
  window_.push_back(std::move(item));
  const auto is_later = [](const Item& a, const Item& b) {
    if (a.req.submit_time != b.req.submit_time) {
      return a.req.submit_time > b.req.submit_time;
    }
    return a.order > b.order;
  };
  std::push_heap(window_.begin(), window_.end(), is_later);
  high_water_ = std::max(high_water_, window_.size());
}

SwfStreamSource::Item SwfStreamSource::pop_item() {
  const auto is_later = [](const Item& a, const Item& b) {
    if (a.req.submit_time != b.req.submit_time) {
      return a.req.submit_time > b.req.submit_time;
    }
    return a.order > b.order;
  };
  std::pop_heap(window_.begin(), window_.end(), is_later);
  Item out = std::move(window_.back());
  window_.pop_back();
  return out;
}

void SwfStreamSource::push_clones(double submit, double runtime, int procs,
                                  std::size_t user) {
  const std::size_t line_key = parsed_lines_++;
  for (std::size_t k = 0; k < clones_; ++k) {
    // One RNG per (record, clone), derived from the seed alone: adding
    // clones or capping max_jobs never moves an existing clone's draws, so
    // scaled replays stay CRN-paired with the raw trace (clone 0).
    Rng rng(seeds_.at(line_key, k));
    double t = submit;
    if (k > 0) t += rng.uniform(0.0, opt_.clone_jitter);

    int p = procs;
    if (opt_.shaping.procs_cap > 0) p = std::min(p, opt_.shaping.procs_cap);
    const double work = static_cast<double>(p) * runtime;

    int min_procs = p;
    int max_procs = p;
    if (opt_.shaping.malleability > 0.0) {
      min_procs = std::max(1, static_cast<int>(std::floor(
                                  p / (1.0 + opt_.shaping.malleability))));
      max_procs = std::max(
          min_procs,
          static_cast<int>(std::ceil(p * (1.0 + opt_.shaping.malleability))));
      if (opt_.shaping.procs_cap > 0) {
        max_procs = std::min(max_procs, opt_.shaping.procs_cap);
        min_procs = std::min(min_procs, max_procs);
      }
    }

    Item item;
    item.req.submit_time = t;
    item.req.contract = qos::make_contract(min_procs, max_procs, work, 0.95, 0.8);
    apply_shaping(opt_.shaping, t,
                  item.req.contract.estimated_runtime(max_procs), work, rng,
                  item.req.contract);
    item.req.user_index = user * clones_ + k;
    item.req.home_cluster =
        item.req.user_index % std::max<std::size_t>(1, opt_.cluster_count);
    item.order =
        static_cast<std::uint64_t>(line_key) * clones_ + k;
    push_item(std::move(item));
  }
}

bool SwfStreamSource::read_line() {
  if (!std::getline(*in_, line_)) return false;
  ++line_number_;

  // Parse up to 18 whitespace-separated numeric fields, stopping at a ';'
  // comment. Short lines are legal: missing trailing fields read as the
  // SWF's -1 "unknown" sentinel. A non-numeric token is a hard error.
  double fields[kFieldCount];
  for (auto& f : fields) f = -1.0;
  std::size_t count = 0;
  const char* p = line_.c_str();
  while (*p != '\0' && *p != ';' && count < kFieldCount) {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
    if (*p == '\0' || *p == ';') break;
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || (*end != '\0' && *end != ' ' && *end != '\t' &&
                     *end != '\r' && *end != ';')) {
      throw std::invalid_argument("swf line " + std::to_string(line_number_) +
                                  ": cannot parse field " +
                                  std::to_string(count + 1) + " near '" +
                                  std::string(p, std::min<std::size_t>(
                                                     16, std::strlen(p))) +
                                  "'");
    }
    fields[count++] = v;
    p = end;
  }
  if (count == 0) return true;  // blank or pure comment

  const double submit_raw = fields[kSubmitTime];
  // Prefer the request over the allocation (the request is what a user
  // would submit to the grid); fall back per SWF's -1 convention.
  double procs = fields[kRequestedProcs];
  if (procs <= 0.0) procs = fields[kAllocatedProcs];
  double runtime = fields[kRequestedTime];
  if (runtime <= 0.0) runtime = fields[kRunTime];
  if (procs <= 0.0 || runtime <= 0.0 || submit_raw < 0.0) {
    ++skipped_;  // unusable record
    return true;
  }

  double submit = submit_raw / opt_.time_compression;
  if (submit < raw_last_ - opt_.sort_window) {
    // Disordered beyond the tolerated window: pull the record forward so
    // the emitted stream stays sorted, and count the repair.
    submit = std::max(raw_last_ - opt_.sort_window, last_emitted_);
    ++clamped_;
  }
  raw_last_ = std::max(raw_last_, submit);

  const double user_field = fields[kUserId];
  const std::size_t user =
      user_field > 0.0 ? static_cast<std::size_t>(user_field) : 0;
  push_clones(submit, runtime, static_cast<int>(std::lround(procs)), user);
  return true;
}

void SwfStreamSource::pump() {
  if (finished_) return;
  while (!input_done_ &&
         (window_.empty() ||
          top().req.submit_time > raw_last_ - opt_.sort_window)) {
    if (!read_line()) input_done_ = true;
  }
  if (window_.empty() && input_done_) finished_ = true;
}

void SwfStreamSource::finish() {
  window_.clear();
  input_done_ = true;
  finished_ = true;
}

double SwfStreamSource::peek_next_submit_time() {
  pump();
  return finished_ ? kNoMoreJobs : top().req.submit_time;
}

JobRequest SwfStreamSource::next() {
  pump();
  Item item = pop_item();
  if (item.req.submit_time < last_emitted_) {
    item.req.submit_time = last_emitted_;
    ++clamped_;
  } else {
    last_emitted_ = item.req.submit_time;
  }
  ++emitted_;
  if (opt_.max_jobs > 0 && emitted_ >= opt_.max_jobs) finish();
  if (window_.empty() && input_done_) finished_ = true;
  return std::move(item.req);
}

bool SwfStreamSource::exhausted() {
  pump();
  return finished_;
}

std::vector<JobRequest> load_swf(std::istream& in, const SwfOptions& options) {
  SwfStreamSource source(in, options);
  return collect(source);
}

std::vector<JobRequest> load_swf_string(const std::string& text,
                                        const SwfOptions& options) {
  std::istringstream stream{text};
  return load_swf(stream, options);
}

}  // namespace faucets::job
