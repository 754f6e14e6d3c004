#include "micro.hpp"

#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mem/addrspace.hpp"
#include "mem/memsys.hpp"
#include "sim/engine.hpp"
#include "slip/model/checker.hpp"
#include "sweep.hpp"

namespace perfbench {

namespace sim = ssomp::sim;
namespace mem = ssomp::mem;
namespace model = ssomp::slip::model;

namespace {

/// Runs `body(iters)` in `batches` batches and returns the median
/// nanoseconds per operation, counting `ops_per_iter` operations per
/// iteration.
template <typename Body>
double median_ns(std::uint64_t iters, int batches, double ops_per_iter,
                 Body&& body) {
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point t0 = Clock::now();
    body(iters);
    per_op.push_back(seconds_since(t0) * 1e9 /
                     (static_cast<double>(iters) * ops_per_iter));
  }
  return median(per_op);
}

// ---- mem -----------------------------------------------------------------

constexpr int kNodes = 8;
constexpr int kRounds = 32;
constexpr sim::Addr kLineBytes = 64;
// Simulated cycles between two operations: far more than any fill takes,
// so no operation waits on the previous one's resources or merges with
// its outstanding fill.
constexpr sim::Cycles kGap = 100000;
// Cycling through four times the 1 MiB L2 misses it on every access.
constexpr std::uint64_t kBeyondL2 = 4 * (1u << 20) / kLineBytes;

/// A standalone memory system addressed by line index in the
/// application arena. CPU 2n is node n's first processor.
class MemRig {
 public:
  MemRig() : ms_(mem::MemParams{}, kNodes, 2) {}

  void pin(std::uint64_t lines, sim::NodeId home) {
    ms_.home_map().pin_range(addr(0), lines * kLineBytes, home);
  }
  void load(sim::CpuId cpu, std::uint64_t line) {
    (void)ms_.load(cpu, addr(line), tick());
  }
  void store(sim::CpuId cpu, std::uint64_t line) {
    (void)ms_.store(cpu, addr(line), tick());
  }
  void prefetch(sim::CpuId cpu, std::uint64_t line) {
    (void)ms_.prefetch(cpu, addr(line), /*exclusive=*/false, tick());
  }
  [[nodiscard]] Counts counts() const { return mem_counts(ms_.stats()); }

 private:
  static sim::Addr addr(std::uint64_t line) {
    return mem::AddrSpace::kAppBase + line * kLineBytes;
  }
  sim::Cycles tick() {
    now_ += kGap;
    return now_;
  }

  mem::MemorySystem ms_;
  sim::Cycles now_ = 0;
};

struct Row {
  double ns = 0.0;
  std::uint64_t ops = 0;
  std::map<std::string, std::uint64_t> delta;  // MemStats moves, timed part
};

/// kRounds rounds of an untimed `prep(round)` followed by a timed
/// `timed(round)` of `ops` operations.
template <typename Prep, typename Timed>
Row time_rounds(MemRig& rig, std::uint64_t ops, Prep&& prep, Timed&& timed) {
  Row row;
  std::vector<double> per_op;
  for (int k = 0; k < kRounds; ++k) {
    prep(k);
    const Counts before = rig.counts();
    const Clock::time_point t0 = Clock::now();
    timed(k);
    per_op.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
    const Counts after = rig.counts();
    for (std::size_t i = 0; i < after.size(); ++i) {
      row.delta[after[i].first] += after[i].second - before[i].second;
    }
  }
  row.ops = ops * kRounds;
  row.ns = median(per_op);
  return row;
}

/// Counts the row as one operation, failed unless every named counter
/// moved by exactly the expected amount.
void prove(Tally& tally, const char* name, const Row& row,
           std::initializer_list<std::pair<const char*, std::uint64_t>> want) {
  std::string why;
  for (const auto& [field, n] : want) {
    const auto it = row.delta.find(field);
    const std::uint64_t got = it == row.delta.end() ? 0 : it->second;
    if (got != n && why.empty()) {
      why = std::string("mem micro ") + name + ": " + field + " moved by " +
            std::to_string(got) + ", expected " + std::to_string(n);
    }
  }
  tally.check(why.empty(), why);
}

void no_prep(int) {}

}  // namespace

MemMicro measure_mem(Tally& tally) {
  MemMicro m;
  {
    // 128 lines fit the 16 KiB two-way L1 one line per set.
    MemRig rig;
    constexpr std::uint64_t kSet = 128, kOps = 65536;
    for (std::uint64_t i = 0; i < kSet; ++i) rig.load(0, i);
    const Row row = time_rounds(rig, kOps, no_prep, [&](int) {
      for (std::uint64_t i = 0; i < kOps; ++i) rig.load(0, i % kSet);
    });
    prove(tally, "l1_hit", row,
          {{"l1_hits", row.ops}, {"l2_hits", 0}, {"l2_fills", 0}});
    m.l1_hit_ns = row.ns;
  }
  {
    // 1024 lines put eight lines on every L1 set (always an L1 miss) and
    // at most one on any L2 set (always an L2 hit).
    MemRig rig;
    constexpr std::uint64_t kSet = 1024, kOps = 16384;
    for (std::uint64_t i = 0; i < kSet; ++i) rig.load(0, i);
    const Row row = time_rounds(rig, kOps, no_prep, [&](int) {
      for (std::uint64_t i = 0; i < kOps; ++i) rig.load(0, i % kSet);
    });
    prove(tally, "l2_hit", row,
          {{"l2_hits", row.ops}, {"l1_hits", 0}, {"l2_fills", 0}});
    m.l2_hit_ns = row.ns;
  }
  // Clean fills: node 0 cycles through four L2s' worth of lines homed on
  // `home`, so every load misses and evicts a clean line.
  const auto clean_fills = [&](sim::NodeId home, const char* name,
                               const char* counter) {
    MemRig rig;
    rig.pin(kBeyondL2, home);
    constexpr std::uint64_t kOps = 4096;
    for (std::uint64_t i = 0; i < kBeyondL2; ++i) rig.load(0, i);
    const Row row = time_rounds(rig, kOps, no_prep, [&](int k) {
      const std::uint64_t base = static_cast<std::uint64_t>(k) * kOps;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        rig.load(0, (base + i) % kBeyondL2);
      }
    });
    prove(tally, name, row, {{counter, row.ops}, {"l2_fills", row.ops}});
    return row.ns;
  };
  m.fill_local_ns = clean_fills(0, "fill_local", "fills_local");
  m.fill_remote_ns = clean_fills(1, "fill_remote", "fills_remote");
  {
    // Lines homed on node 2 and dirtied by node 1 before node 0 loads
    // them: every timed load is a three-party dirty fill.
    MemRig rig;
    constexpr std::uint64_t kOps = 4096;
    rig.pin(kOps, 2);
    const Row row = time_rounds(
        rig, kOps,
        [&](int) {
          for (std::uint64_t i = 0; i < kOps; ++i) rig.store(2, i);
        },
        [&](int) {
          for (std::uint64_t i = 0; i < kOps; ++i) rig.load(0, i);
        });
    prove(tally, "fill_dirty", row,
          {{"fills_dirty", row.ops}, {"l2_fills", row.ops}});
    m.fill_dirty_ns = row.ns;
  }
  {
    // Node 0 loads a fresh window of local lines, then stores to each:
    // an S->M upgrade with no other sharer to invalidate.
    MemRig rig;
    constexpr std::uint64_t kOps = 4096;
    rig.pin(kBeyondL2, 0);
    const auto base = [](int k) {
      return static_cast<std::uint64_t>(k) * kOps % kBeyondL2;
    };
    const Row row = time_rounds(
        rig, kOps,
        [&](int k) {
          for (std::uint64_t i = 0; i < kOps; ++i) rig.load(0, base(k) + i);
        },
        [&](int k) {
          for (std::uint64_t i = 0; i < kOps; ++i) rig.store(0, base(k) + i);
        });
    prove(tally, "upgrade", row,
          {{"upgrades", row.ops}, {"invalidations", 0}, {"l2_fills", 0}});
    m.upgrade_ns = row.ns;
  }
  {
    // Nodes 1..k and node 0 share each line; node 0's store upgrades it
    // and invalidates the k other copies.
    MemRig rig;
    constexpr std::uint64_t kOps = 1024;
    constexpr int kSharers = 6;
    rig.pin(kOps, 0);
    const Row row = time_rounds(
        rig, kOps,
        [&](int) {
          for (int n = 1; n <= kSharers; ++n) {
            for (std::uint64_t i = 0; i < kOps; ++i) rig.load(2 * n, i);
          }
          for (std::uint64_t i = 0; i < kOps; ++i) rig.load(0, i);
        },
        [&](int) {
          for (std::uint64_t i = 0; i < kOps; ++i) rig.store(0, i);
        });
    prove(tally, "inval_per_sharer", row,
          {{"upgrades", row.ops},
           {"invalidations", kSharers * row.ops},
           {"l2_fills", 0}});
    m.inval_per_sharer_ns = (row.ns - m.upgrade_ns) / kSharers;
  }
  {
    // A prefetch of a line already in the L2 does no coherence work; a
    // prefetch that misses is priced as the fill it starts.
    MemRig rig;
    constexpr std::uint64_t kSet = 1024, kOps = 16384;
    for (std::uint64_t i = 0; i < kSet; ++i) rig.load(0, i);
    const Row row = time_rounds(rig, kOps, no_prep, [&](int) {
      for (std::uint64_t i = 0; i < kOps; ++i) rig.prefetch(0, i % kSet);
    });
    prove(tally, "prefetch", row, {{"prefetches", row.ops}, {"l2_fills", 0}});
    m.prefetch_ns = row.ns;
  }
  return m;
}

SimMicro measure_sim() {
  constexpr int kBatches = 15;
  SimMicro s;
  {
    sim::Engine engine;
    std::uint64_t n = 0;
    constexpr std::uint64_t kBurst = 256;
    s.event_ns = median_ns(256, kBatches, kBurst, [&](std::uint64_t k) {
      for (std::uint64_t i = 0; i < k; ++i) {
        for (std::uint64_t j = 0; j < kBurst; ++j) {
          engine.schedule_after(j % 7, [&n] { ++n; });
        }
        engine.run();
      }
    });
  }
  {
    sim::Engine engine;
    sim::SimCpu& cpu = engine.add_cpu("waker");
    cpu.start([&cpu] {
      for (;;) cpu.block(sim::TimeCategory::kTokenWait);
    });
    engine.run();  // park the fiber in its first block()
    s.wake_resume_ns = median_ns(20000, kBatches, 1, [&](std::uint64_t k) {
      for (std::uint64_t i = 0; i < k; ++i) {
        cpu.wake(1);
        engine.run();
      }
    });
  }
  {
    sim::Engine engine;
    s.cancel_ns = median_ns(50000, kBatches, 1, [&](std::uint64_t k) {
      for (std::uint64_t i = 0; i < k; ++i) {
        auto h = engine.schedule_cancelable_after(1000, [] {});
        h.cancel();
        engine.run();  // drop the stale entry so the queue never grows
      }
    });
  }
  return s;
}

ModelMicro measure_model(const model::ModelConfig& cfg,
                         std::uint64_t walk_seed, Tally& tally) {
  const model::Model m(cfg);
  const model::CheckResult walk = model::random_walk(m, walk_seed);
  std::vector<model::ModelState> path{m.initial()};
  bool ok = walk.ok && !walk.schedule.empty();
  for (const model::Action& a : walk.schedule) {
    model::ModelState next = path.back();
    ok = m.step(next, a).ok && ok;
    path.push_back(std::move(next));
  }
  tally.check(ok, "model micro: the random_walk path does not replay");
  const std::vector<model::Action>& actions = walk.schedule;

  constexpr int kBatches = 15;
  constexpr std::uint64_t kReps = 40;  // path traversals per batch
  const auto per_state = static_cast<double>(path.size());
  std::uint64_t sink = 0;
  ModelMicro out;
  out.copy_ns = median_ns(kReps, kBatches, per_state, [&](std::uint64_t k) {
    for (std::uint64_t r = 0; r < k; ++r) {
      for (const model::ModelState& s : path) {
        const model::ModelState copy(s);
        sink += copy.region;
      }
    }
  });
  {
    // Stepping consumes its state, so each batch steps fresh copies made
    // outside the timed part.
    std::vector<double> per_op;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<model::ModelState> work;
      work.reserve(kReps * actions.size());
      for (std::uint64_t r = 0; r < kReps; ++r) {
        work.insert(work.end(), path.begin(), path.end() - 1);
      }
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < work.size(); ++i) {
        sink += m.step(work[i], actions[i % actions.size()]).ok ? 1 : 0;
      }
      per_op.push_back(seconds_since(t0) * 1e9 /
                       static_cast<double>(work.size()));
    }
    out.step_ns = median(per_op);
  }
  out.enabled_ns = median_ns(kReps, kBatches, per_state, [&](std::uint64_t k) {
    for (std::uint64_t r = 0; r < k; ++r) {
      for (const model::ModelState& s : path) sink += m.enabled(s).size();
    }
  });
  std::uint64_t bytes = 0;
  out.encode_ns = median_ns(kReps, kBatches, per_state, [&](std::uint64_t k) {
    for (std::uint64_t r = 0; r < k; ++r) {
      for (const model::ModelState& s : path) {
        std::string encoded;  // as the checker's hash_state does
        encoded.reserve(512);
        s.encode(encoded, cfg);
        bytes += encoded.size();
      }
    }
  });
  out.encode_bytes = static_cast<double>(bytes) /
                     (per_state * static_cast<double>(kReps * kBatches));
  out.check_ns = median_ns(kReps, kBatches, per_state, [&](std::uint64_t k) {
    for (std::uint64_t r = 0; r < k; ++r) {
      for (const model::ModelState& s : path) sink += m.check(s).ok ? 1 : 0;
    }
  });
  tally.check(sink != 0, "model micro: no work was done");
  return out;
}

}  // namespace perfbench
