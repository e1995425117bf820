#include "src/obs/spans.hpp"

#include <unordered_set>

namespace faucets::obs {

std::vector<TimelineRow> SpanTracker::for_job(ClusterId cluster, JobId job) const {
  // Unbound spans carry an invalid job, so without this guard an invalid
  // query would match them.
  if (!job.valid()) return {};
  // Children inherit their parent's identity at start_span() and bind_job()
  // back-fills ancestors, so one identity scan plus ancestor chains covers
  // the whole submission tree.
  std::unordered_set<std::uint64_t> seen;
  std::vector<TimelineRow> out;
  for_each([&](const Span& s) {
    if (s.cluster != cluster || s.job != job) return;
    if (!seen.insert(s.id.value()).second) return;
    out.push_back(to_row(s));
    if (!s.parent.valid()) return;
    for (const Span* cur = find(s.parent); cur != nullptr; cur = find(cur->parent)) {
      if (!seen.insert(cur->id.value()).second) break;
      out.push_back(to_row(*cur));
      if (!cur->parent.valid()) break;
    }
  });
  sort_rows(out);
  return out;
}

}  // namespace faucets::obs
