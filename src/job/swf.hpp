// Standard Workload Format (SWF) trace replay.
//
// §5.4 runs the simulation "over patterns of job submissions under study";
// besides the synthetic generator, real supercomputer logs in the
// community-standard SWF (one line per job, 18 whitespace-separated
// fields, ';' comments — the Parallel Workloads Archive format) can be
// replayed. SWF jobs are rigid; JobShaping optionally widens each job into
// a malleable range and attaches deadline payoffs so the adaptive and
// market machinery has something to work with.
//
// SwfStreamSource is the streaming backend (DESIGN.md §13): it parses one
// line at a time off disk — no O(jobs) preload — holding only a small
// reorder window of upcoming requests, and scales a trace to production
// volume with time compression and deterministic user cloning.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "src/job/shaping.hpp"
#include "src/job/source.hpp"
#include "src/job/workload.hpp"
#include "src/util/rng.hpp"

namespace faucets::job {

struct SwfOptions {
  /// Stop after this many emitted jobs, counted after user multiplication
  /// (0 = all).
  std::size_t max_jobs = 0;

  /// Number of home clusters to spread users over.
  std::size_t cluster_count = 1;

  /// Malleability / deadline / payoff widening, shared with the synthetic
  /// generator (src/job/shaping.hpp). Trace defaults keep jobs rigid with
  /// flat payoffs of price_per_work * work.
  JobShaping shaping = trace_default_shaping();

  // --- scale knobs (DESIGN.md §13) ----------------------------------------

  /// Divide every submit time by this factor: replay a month of arrivals
  /// in a month/N of simulated time. Runtimes are untouched, so the
  /// offered load scales up by the same factor.
  double time_compression = 1.0;

  /// Clone every trace user into this many independent users, each with
  /// its own id and arrival jitter, which multiplies the job volume; clone
  /// 0 reproduces the raw trace exactly, so scaled runs stay CRN-paired
  /// with unscaled ones.
  std::size_t user_multiplier = 1;

  /// Clones' arrivals are delayed by U[0, clone_jitter) seconds (applied
  /// after time compression), drawn per (line, clone) from `seed` via
  /// SeedSequence — independent of the multiplier count, so adding clones
  /// never moves an existing clone's draw.
  double clone_jitter = 60.0;

  /// Tolerated out-of-order raw submit times, seconds (after compression).
  /// The source holds a job back until the parser has read past its time
  /// plus this window; a raw line arriving later than that is clamped to
  /// the last emitted time (and counted). PWA traces are sorted, so the
  /// default is 0.
  double sort_window = 0.0;

  /// Seed for the per-job shaping and jitter draws.
  std::uint64_t seed = 42;

  /// Reserve this many reorder-window slots up front so the steady-state
  /// next() path does not allocate.
  std::size_t read_ahead = 4096;
};

/// Pull-based streaming SWF reader. Skips comment/empty lines and jobs
/// with missing size or runtime (negative fields per the SWF convention);
/// short lines are tolerated — missing trailing fields read as the SWF's
/// -1 "unknown" sentinel. Throws std::invalid_argument with the line
/// number on garbage tokens.
class SwfStreamSource final : public WorkloadSource {
 public:
  /// Stream from `in`, which must outlive the source.
  SwfStreamSource(std::istream& in, SwfOptions options = {});

  /// Open `path` and stream from it. Throws std::invalid_argument when the
  /// file cannot be opened.
  [[nodiscard]] static std::unique_ptr<SwfStreamSource> open(
      const std::string& path, SwfOptions options = {});

  [[nodiscard]] double peek_next_submit_time() override;
  [[nodiscard]] JobRequest next() override;
  [[nodiscard]] bool exhausted() override;

  // --- robustness / scale counters ----------------------------------------
  [[nodiscard]] std::size_t lines_read() const noexcept { return line_number_; }
  [[nodiscard]] std::size_t jobs_emitted() const noexcept { return emitted_; }
  /// Unusable records skipped (no processors, no runtime, negative submit).
  [[nodiscard]] std::size_t jobs_skipped() const noexcept { return skipped_; }
  /// Emissions clamped forward because a raw line was out of order by more
  /// than sort_window.
  [[nodiscard]] std::size_t clamped() const noexcept { return clamped_; }
  /// Largest reorder-window occupancy seen (the streaming memory bound).
  [[nodiscard]] std::size_t window_high_water() const noexcept {
    return high_water_;
  }

 private:
  struct Item {
    JobRequest req;
    std::uint64_t order = 0;  // (line, clone) emission rank for stable ties
  };

  SwfStreamSource(std::unique_ptr<std::istream> owned, SwfOptions options);

  /// Read raw lines until the window's earliest request is safe to emit
  /// (no future line can precede it) or the input ends.
  void pump();
  /// Parse one line; push its clones into the window. False at EOF.
  bool read_line();
  void push_clones(double submit, double runtime, int procs, std::size_t user);
  void finish(); // max_jobs reached or input drained: drop the window

  [[nodiscard]] const Item& top() const { return window_.front(); }
  void push_item(Item item);
  [[nodiscard]] Item pop_item();

  std::unique_ptr<std::istream> owned_;
  std::istream* in_;
  SwfOptions opt_;
  SeedSequence seeds_;
  std::size_t clones_;  // user_multiplier, at least 1

  std::string line_;
  std::vector<Item> window_;  // min-heap on (submit_time, order)
  std::size_t line_number_ = 0;
  std::size_t parsed_lines_ = 0;  // usable job records parsed (clone seed key)
  double raw_last_ = -1e300;      // last parsed submit, post-compression
  double last_emitted_ = -1e300;
  bool input_done_ = false;
  bool finished_ = false;
  std::size_t emitted_ = 0;
  std::size_t skipped_ = 0;
  std::size_t clamped_ = 0;
  std::size_t high_water_ = 0;
};

/// Preload compatibility wrapper: drain a SwfStreamSource into a vector.
[[nodiscard]] std::vector<JobRequest> load_swf(std::istream& in,
                                               const SwfOptions& options = {});

[[nodiscard]] std::vector<JobRequest> load_swf_string(const std::string& text,
                                                      const SwfOptions& options = {});

}  // namespace faucets::job
