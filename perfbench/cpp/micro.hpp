// Per-operation host costs of the hot calls of three layers, measured
// on standalone objects: the memory model (mem), the event engine (sim)
// and the protocol model checker (slip/model). Each figure is the
// median over batches of one batch's nanoseconds per operation.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "slip/model/model.hpp"

namespace perfbench {

/// MemorySystem::load/store/prefetch on a standalone 8-node machine.
/// Every row checks the MemStats delta of its timed operations, so each
/// row proves it measured the outcome it is named after.
struct MemMicro {
  double l1_hit_ns = 0.0;
  double l2_hit_ns = 0.0;
  double fill_local_ns = 0.0;   // clean fill homed on the requester
  double fill_remote_ns = 0.0;  // clean fill homed on another node
  double fill_dirty_ns = 0.0;   // fill served by a third node's dirty L2
  double upgrade_ns = 0.0;      // S->M with no other sharer
  double inval_per_sharer_ns = 0.0;  // extra cost per sharer invalidated
  double prefetch_ns = 0.0;     // prefetch of a line already in the L2
};
[[nodiscard]] MemMicro measure_mem(Tally& tally);

/// Engine event dispatch, a block/wake round trip (two fiber switches)
/// and a cancelled event.
struct SimMicro {
  double event_ns = 0.0;
  double wake_resume_ns = 0.0;
  double cancel_ns = 0.0;
};
[[nodiscard]] SimMicro measure_sim();

/// The checker's per-transition work on the states of one random_walk
/// path of `cfg`: copying a state, stepping it (which runs the invariant
/// battery), listing enabled actions, the canonical encoding, and the
/// invariant battery on its own.
struct ModelMicro {
  double copy_ns = 0.0;
  double step_ns = 0.0;
  double enabled_ns = 0.0;
  double encode_ns = 0.0;
  double check_ns = 0.0;
  double encode_bytes = 0.0;  // mean encoded state size
};
[[nodiscard]] ModelMicro measure_model(
    const ssomp::slip::model::ModelConfig& cfg, std::uint64_t walk_seed,
    Tally& tally);

}  // namespace perfbench
