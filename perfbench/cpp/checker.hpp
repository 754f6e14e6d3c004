// The modelcheck workload: run_checker on one fixed configuration of
// the protocol model's verification grid.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "slip/model/checker.hpp"
#include "spans.hpp"

namespace perfbench {

/// 2 CMPs, one token, LOCAL_SYNC, bench recovery, degradation on with
/// demote/probation 1,1, 3 regions of 2 barriers, watchdog armed, and a
/// persistent R-stream token loss on CMP 0 from its first insert. A
/// nonzero `seed` replaces the fault plan's default seed.
[[nodiscard]] ssomp::slip::model::ModelConfig modelcheck_config(
    std::uint64_t seed);

struct CheckerPass {
  double wall = 0.0;
  ssomp::slip::model::CheckResult result;
};

/// Model construction and run_checker, timed together. A violation or a
/// truncated search counts as a failure.
CheckerPass checker_pass(const ssomp::slip::model::ModelConfig& cfg,
                         Tally& tally);

/// Seconds for Model construction plus initial(): the median over
/// batches of one batch's time per construction.
[[nodiscard]] double checker_setup(
    const ssomp::slip::model::ModelConfig& cfg);

/// checker_pass with a span around Model construction plus initial()
/// and one around run_checker.
CheckerPass traced_checker_pass(Spans& spans,
                                const ssomp::slip::model::ModelConfig& cfg,
                                Tally& tally);

}  // namespace perfbench
