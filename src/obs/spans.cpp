#include "src/obs/spans.hpp"

#include <algorithm>
#include <unordered_set>

namespace faucets::obs {

std::vector<const Span*> SpanTracker::for_job(ClusterId cluster, JobId job) const {
  // Unbound spans carry an invalid job, so without this guard an invalid
  // query would match them.
  if (!job.valid()) return {};
  // Children inherit their parent's identity at start_span() and bind_job()
  // back-fills ancestors, so one identity scan plus ancestor chains covers
  // the whole submission tree.
  std::unordered_set<std::uint64_t> seen;
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.cluster != cluster || s.job != job) continue;
    for (const Span* cur = &s; cur != nullptr; cur = find(cur->parent)) {
      if (!seen.insert(cur->id.value()).second) break;
      out.push_back(cur);
      if (!cur->parent.valid()) break;
    }
  }
  std::sort(out.begin(), out.end(), [](const Span* a, const Span* b) {
    if (a->start != b->start) return a->start < b->start;
    return a->id < b->id;
  });
  return out;
}

}  // namespace faucets::obs
