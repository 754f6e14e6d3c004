// The sweep workloads (paper_grid, tiny_mix): untraced passes through
// the public sweep driver, a construction-only pass for set-up time,
// and a traced pass that composes each point from the layers' public
// calls the way core::run_experiment does.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "rt/runtime.hpp"
#include "spans.hpp"
#include "stats/memstats.hpp"
#include "trace/jsonv.hpp"

namespace perfbench {

/// One plan of a sweep workload: where it came from and its text, with
/// the run's seed already written into the plan's `seed` key.
struct PlanInput {
  std::string file;
  std::string text;
};

using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// The MemStats and slipstream counters by name, in a fixed order.
[[nodiscard]] Counts mem_counts(const ssomp::stats::MemStats& m);
[[nodiscard]] Counts slip_counts(const ssomp::rt::SlipRegionStats& s);

/// The simulated results of one point that a host-only change must keep
/// identical: cycles, every MemStats counter and every slip counter.
struct PointSig {
  std::uint64_t cycles = 0;
  Counts mem;
  Counts slip;
  friend bool operator==(const PointSig&, const PointSig&) = default;
};

/// One untraced pass: every plan through core::run_sweep with one job
/// and the journal on, then the journal read back and the aggregate
/// emitted, re-read and diffed.
struct SweepPass {
  double wall = 0.0;
  double driver_overhead = 0.0;  // run_sweep wall minus its points' wall
  std::vector<double> point_seconds;
  std::uint64_t refs = 0;  // simulated loads + stores + prefetches
  std::vector<std::vector<PointSig>> sigs;  // per plan, per point
};

/// One traced pass: layer counters summed over every point.
struct TracedSweep {
  double wall = 0.0;
  ssomp::stats::MemStats mem;
  ssomp::rt::SlipRegionStats slip;
  std::uint64_t emit_bytes = 0;
  std::uint64_t journal_bytes = 0;
};

class SweepWorkload {
 public:
  SweepWorkload(std::vector<PlanInput> plans, std::string work_dir);

  /// Runs one untraced pass and checks every point. The first pass's
  /// aggregates become the reference later passes must reproduce.
  SweepPass run_pass(Tally& tally);

  /// Plan parse and expand, plus Machine, Runtime and workload
  /// construction for every point; returns the seconds that took.
  [[nodiscard]] double setup_pass() const;

  /// Runs one traced pass. Each point's simulated results must equal
  /// those in `ref` (a pass of run_pass), and the aggregate must diff
  /// clean against the reference aggregate.
  TracedSweep traced_pass(Spans& spans, const SweepPass& ref, Tally& tally);

  /// Writes the reference aggregates (newline-terminated, as
  /// write_sweep_json does) under the work directory, one file per plan
  /// named after the plan; returns the file names.
  [[nodiscard]] std::vector<std::string> write_aggregates(
      const std::string& dir) const;

  [[nodiscard]] const std::vector<std::string>& plan_names() const {
    return names_;
  }

 private:
  [[nodiscard]] std::string journal_path(std::size_t plan) const;

  std::vector<PlanInput> plans_;
  std::vector<std::string> names_;
  std::string work_dir_;
  std::vector<std::string> ref_aggregates_;
  std::vector<ssomp::trace::JsonValue> ref_roots_;
};

}  // namespace perfbench
