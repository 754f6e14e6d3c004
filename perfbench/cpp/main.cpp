// perfbench: host-time benchmark of the ssomp simulator.
//
//   perfbench --workload paper_grid|tiny_mix|modelcheck --seed N
//             --seconds S --trace 0|1 --plans DIR --work DIR
//
// Untraced (--trace 0) it sets up several times, then repeats passes of
// the workload for S seconds and reports the end-to-end metrics. Traced
// (--trace 1) it measures the per-operation micro rows, runs untraced
// passes for half of S and traced passes (spans around every layer
// call) for the rest, and reports the per-layer metrics. Human-readable
// lines come first on stdout; the last line is a JSON report that
// perfbench/run.py checks and reduces to the benchmark's result line.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checker.hpp"
#include "micro.hpp"
#include "spans.hpp"
#include "sweep.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace model = ssomp::slip::model;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string plans;
  std::string work;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper_grid|tiny_mix|modelcheck "
               "--seed N --seconds S --trace 0|1 --plans DIR --work DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  const auto need = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) usage(std::string("missing --") + k);
    return it->second;
  };
  try {
    a.workload = need("workload");
    a.seed = std::stoull(need("seed"));
    a.seconds = std::stod(need("seconds"));
    a.trace = std::stoi(need("trace"));
  } catch (const std::exception&) {
    usage("bad numeric argument");
  }
  a.plans = need("plans");
  a.work = need("work");
  if (a.workload != "paper_grid" && a.workload != "tiny_mix" &&
      a.workload != "modelcheck") {
    usage("unknown workload " + a.workload);
  }
  if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    usage("bad --seconds or --trace");
  }
  return a;
}

std::vector<std::string> plan_files(const std::string& workload) {
  if (workload == "paper_grid") return {"paper_grid.plan"};
  if (workload == "tiny_mix") {
    return {"ci_smoke.plan", "topology_grid.plan", "recovery_grid.plan"};
  }
  return {};
}

/// The plans with `seed` written into their `seed` key.
std::vector<PlanInput> load_plans(const std::string& dir,
                                  const std::vector<std::string>& files,
                                  std::uint64_t seed) {
  std::vector<PlanInput> out;
  for (const std::string& f : files) {
    out.push_back(PlanInput{f, read_file(dir + "/" + f) + "\nseed = " +
                                   std::to_string(seed) + "\n"});
  }
  return out;
}

/// Peak resident memory of this process image. getrusage's ru_maxrss
/// would also count the parent that exec'd it, so read VmHWM instead.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// An untraced run makes at least this many passes, and measures set-up
/// at least kMinSetups times.
constexpr int kMinPasses = 3;
constexpr std::size_t kMinSetups = 15;

/// Moves the calling thread, and the threads it starts later, to the
/// next CPU the process may use, round robin. On a shared VM a vCPU's
/// speed depends on what its neighbours run, and a process left alone
/// stays on one vCPU for a whole run; rotating passes over all of them
/// makes every run sample every vCPU.
void next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static std::size_t turn = 0;
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[turn++ % cpus.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);  // best effort
}

/// Keeps calling `pass()`, each on the next CPU, until `seconds` have
/// passed since the first call and at least `min_passes` were made.
template <typename Pass>
void repeat_for(double seconds, int min_passes, Pass&& pass) {
  const Clock::time_point t0 = Clock::now();
  for (int n = 0; n < min_passes || seconds_since(t0) < seconds; ++n) {
    next_cpu();
    pass();
  }
}

struct Report {
  Metrics metrics;
  std::ostringstream extra;  // further JSON members, each led by a comma
  Tally tally;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    out += json_string(metrics[i].name) + ":{\"value\":" +
           json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

// ---- per-layer attribution --------------------------------------------

/// One priced counter of an attribution block.
struct Priced {
  const char* counter;
  double count;
  double ns;
};

/// Prints counter x ns/op against the measured total, residual shown.
/// Returns the attributed seconds.
double print_attribution(const char* title, const std::vector<Priced>& rows,
                         const char* total_name, double total_s) {
  std::printf("%s attribution (counts per pass x ns/op):\n", title);
  double attributed = 0.0;
  for (const Priced& p : rows) {
    const double s = p.count * p.ns * 1e-9;
    attributed += s;
    std::printf("  %-22s %14.0f x %9.2f ns = %10.6f s\n", p.counter, p.count,
                p.ns, s);
  }
  std::printf("  %-22s %43.6f s\n", "attributed", attributed);
  std::printf("  %-22s %43.6f s\n", total_name, total_s);
  std::printf("  %-22s %43.6f s (%.1f%% of %s)\n", "residual",
              total_s - attributed,
              total_s > 0 ? 100.0 * (total_s - attributed) / total_s : 0.0,
              total_name);
  return attributed;
}

/// Per-layer numbers of the sweep side: spans of traced sweep passes,
/// their counters, the mem and sim micro rows, and the driver overhead
/// of the untraced passes.
void sweep_layers(Report& r, const std::vector<Spans::PassSums>& passes,
                  const TracedSweep& counts, const MemMicro& mm,
                  const SimMicro& sm, double driver_overhead) {
  const auto span = [&](const char* name) {
    return median_of(passes, name, false);
  };
  const ssomp::stats::MemStats& m = counts.mem;
  const double refs = static_cast<double>(m.loads + m.stores + m.prefetches);
  r.add("mem.refs", refs, "count");
  r.add("mem.l1_hits", static_cast<double>(m.l1_hits), "count");
  r.add("mem.l2_hits", static_cast<double>(m.l2_hits), "count");
  r.add("mem.l2_fills", static_cast<double>(m.l2_fills), "count");
  r.add("mem.fills_local", static_cast<double>(m.fills_local), "count");
  r.add("mem.fills_remote", static_cast<double>(m.fills_remote_clean),
        "count");
  r.add("mem.fills_dirty", static_cast<double>(m.fills_dirty), "count");
  r.add("mem.fills_cross_cluster", static_cast<double>(m.fills_cross_cluster),
        "count");
  r.add("mem.upgrades", static_cast<double>(m.upgrades), "count");
  r.add("mem.invalidations", static_cast<double>(m.invalidations), "count");
  r.add("mem.writebacks", static_cast<double>(m.writebacks), "count");
  r.add("mem.merges", static_cast<double>(m.merges), "count");
  r.add("mem.l1_hit_ratio",
        refs > 0 ? static_cast<double>(m.l1_hits) / refs : 0.0, "ratio");
  r.add("mem.l1_hit_ns", mm.l1_hit_ns, "ns");
  r.add("mem.l2_hit_ns", mm.l2_hit_ns, "ns");
  r.add("mem.fill_local_ns", mm.fill_local_ns, "ns");
  r.add("mem.fill_remote_ns", mm.fill_remote_ns, "ns");
  r.add("mem.fill_dirty_ns", mm.fill_dirty_ns, "ns");
  r.add("mem.upgrade_ns", mm.upgrade_ns, "ns");
  r.add("mem.inval_per_sharer_ns", mm.inval_per_sharer_ns, "ns");
  r.add("mem.prefetch_ns", mm.prefetch_ns, "ns");
  r.add("mem.check_s", span("mem.check"), "s");

  const double run_s = span("rt.run");
  const double attributed = print_attribution(
      "mem",
      {{"l1_hits", static_cast<double>(m.l1_hits), mm.l1_hit_ns},
       {"l2_hits", static_cast<double>(m.l2_hits), mm.l2_hit_ns},
       {"fills_local", static_cast<double>(m.fills_local), mm.fill_local_ns},
       {"fills_remote", static_cast<double>(m.fills_remote_clean),
        mm.fill_remote_ns},
       {"fills_dirty", static_cast<double>(m.fills_dirty), mm.fill_dirty_ns},
       {"upgrades", static_cast<double>(m.upgrades), mm.upgrade_ns},
       {"invalidations", static_cast<double>(m.invalidations),
        mm.inval_per_sharer_ns},
       {"prefetches", static_cast<double>(m.prefetches), mm.prefetch_ns}},
      "rt.run_s", run_s);
  r.add("mem.attributed_s", attributed, "s");
  r.add("mem.share", run_s > 0 ? attributed / run_s : 0.0, "ratio");
  r.add("sim.event_ns", sm.event_ns, "ns");
  r.add("sim.wake_resume_ns", sm.wake_resume_ns, "ns");
  r.add("sim.cancel_ns", sm.cancel_ns, "ns");
  r.add("sim.residual_s", run_s - attributed, "s");

  r.add("machine.build_s", span("machine.build"), "s");
  r.add("rt.init_s", span("rt.init"), "s");
  r.add("apps.build_s", span("apps.build"), "s");
  r.add("rt.run_s", run_s, "s");
  r.add("apps.verify_s", span("apps.verify"), "s");
  r.add("trace.account_check_s", span("trace.account_check"), "s");

  const ssomp::rt::SlipRegionStats& s = counts.slip;
  r.add("slip.tokens_consumed", static_cast<double>(s.tokens_consumed),
        "count");
  r.add("slip.converted_stores", static_cast<double>(s.converted_stores),
        "count");
  r.add("slip.dropped_stores", static_cast<double>(s.dropped_stores), "count");
  r.add("slip.recoveries", static_cast<double>(s.recoveries), "count");
  r.add("slip.restarts", static_cast<double>(s.restarts), "count");
  r.add("slip.watchdog_trips", static_cast<double>(s.watchdog_trips), "count");

  r.add("core.plan_parse_s", span("plan.parse"), "s");
  r.add("core.plan_expand_s", span("plan.expand"), "s");
  r.add("core.driver_overhead_s", driver_overhead, "s");
  r.add("core.emit_s", span("emit"), "s");
  r.add("core.emit_bytes", static_cast<double>(counts.emit_bytes), "B");
  r.add("core.journal_append_s", span("journal.append"), "s");
  r.add("core.journal_read_s", span("journal.read"), "s");
  r.add("core.journal_bytes", static_cast<double>(counts.journal_bytes), "B");
  r.add("core.diff_s", span("diff"), "s");
}

/// Per-layer numbers of the checker side.
void model_layers(Report& r, const std::vector<Spans::PassSums>& passes,
                  const model::CheckStats& st, const ModelMicro& mm) {
  const double check_s = median_of(passes, "model.check", false);
  const auto states = static_cast<double>(st.states_visited);
  const auto transitions = static_cast<double>(st.transitions);
  r.add("model.states", states, "count");
  r.add("model.transitions", transitions, "count");
  r.add("model.max_depth", st.max_depth_seen, "count");
  r.add("model.check_s", check_s, "s");
  r.add("model.copy_ns", mm.copy_ns, "ns");
  r.add("model.step_ns", mm.step_ns, "ns");
  r.add("model.enabled_ns", mm.enabled_ns, "ns");
  r.add("model.encode_ns", mm.encode_ns, "ns");
  r.add("model.check_ns", mm.check_ns, "ns");
  r.add("model.encode_bytes", mm.encode_bytes, "B");
  // Every transition copies its source state, steps the copy (which runs
  // the invariant battery) and encodes the successor for the visited
  // set; every expanded state lists its enabled actions once.
  const double attributed = print_attribution(
      "slip/model",
      {{"transitions (copy)", transitions, mm.copy_ns},
       {"transitions (step)", transitions, mm.step_ns},
       {"transitions (encode)", transitions, mm.encode_ns},
       {"states (enabled)", states, mm.enabled_ns}},
      "model.check_s", check_s);
  r.add("model.attributed_s", attributed, "s");
  r.add("model.residual_s", check_s - attributed, "s");
}

void self_layers(Report& r, const std::vector<Spans::PassSums>& sweep,
                 const std::vector<Spans::PassSums>& checker,
                 const std::vector<Spans::PassSums>& own) {
  const auto self = [](const std::vector<Spans::PassSums>& p,
                       const char* layer) { return median_of(p, layer, true); };
  r.add("self.core_s", self(sweep, "core"), "s");
  r.add("self.machine_s", self(sweep, "machine"), "s");
  r.add("self.rt_s", self(sweep, "rt"), "s");
  r.add("self.apps_s", self(sweep, "apps"), "s");
  r.add("self.mem_s", self(sweep, "mem"), "s");
  r.add("self.trace_s", self(sweep, "trace"), "s");
  r.add("self.model_s", self(checker, "slip/model"), "s");
  r.add("self.bench_s", self(own, "bench"), "s");
}

// ---- workloads -----------------------------------------------------------

void print_env(const Args& a) {
  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, %s build, "
              "%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
}

/// `per_point[i]` holds point i's host seconds, one per pass. The p50 is
/// the median over the points of each point's trimmed mean; the tail is
/// taken over all samples pooled.
void add_point_metrics(Report& r,
                       const std::vector<std::vector<double>>& per_point) {
  std::vector<double> ms;
  std::vector<double> point_ms;
  for (const std::vector<double>& samples : per_point) {
    for (const double s : samples) ms.push_back(s * 1e3);
    point_ms.push_back(trimmed_mean(samples) * 1e3);
  }
  const Tail t = tail_of(ms);
  r.add("point_p50_ms", median(point_ms), "ms");
  r.add("point_tail_ms", t.value, "ms");
  r.extra << ",\"point_tail\":{\"percentile\":" << json_number(t.percentile)
          << ",\"samples\":" << t.samples << ",\"beyond\":" << t.beyond << "}";
}

/// The fingerprint aggregates: the reference aggregates at the default
/// seed, from `wl` itself or from one extra pass at seed 0.
void fingerprint_sweeps(Report& r, const Args& a, SweepWorkload& wl) {
  const std::string dir = a.work + "/default";
  std::filesystem::create_directories(dir);
  std::vector<std::string> files;
  if (a.seed == 0) {
    files = wl.write_aggregates(dir);
  } else {
    SweepWorkload d(load_plans(a.plans, plan_files(a.workload), 0), dir);
    (void)d.run_pass(r.tally);
    files = d.write_aggregates(dir);
  }
  r.extra << ",\"aggregates\":{";
  for (std::size_t i = 0; i < files.size(); ++i) {
    r.extra << (i != 0 ? "," : "") << json_string(wl.plan_names()[i]) << ':'
            << json_string(files[i]);
  }
  r.extra << "}";
}

void run_sweeps(Report& r, const Args& a) {
  SweepWorkload wl(load_plans(a.plans, plan_files(a.workload), a.seed),
                   a.work);
  if (a.trace == 0) {
    // Set-up samples are spread over the whole run, one after each pass,
    // so a disturbance at process start cannot dominate their median.
    (void)wl.setup_pass();  // warm-up, not counted
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<std::vector<double>> point_seconds;
    std::uint64_t refs = 0;
    repeat_for(a.seconds, kMinPasses, [&] {
      const SweepPass p = wl.run_pass(r.tally);
      walls.push_back(p.wall);
      point_seconds.resize(p.point_seconds.size());
      for (std::size_t i = 0; i < p.point_seconds.size(); ++i) {
        point_seconds[i].push_back(p.point_seconds[i]);
      }
      refs = p.refs;
      setups.push_back(wl.setup_pass());
    });
    while (setups.size() < kMinSetups) {
      next_cpu();
      setups.push_back(wl.setup_pass());
    }
    const double wall = trimmed_mean(walls);
    r.add("wall_s", wall, "s");
    r.add("setup_s", median(setups), "s");
    add_point_metrics(r, point_seconds);
    r.add("work_per_s", static_cast<double>(refs) / wall, "1/s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.extra << ",\"passes\":" << walls.size()
            << ",\"work_per_pass\":" << refs
            << ",\"work_unit\":\"simulated memory references\"";
  } else {
    const MemMicro mm = measure_mem(r.tally);
    const SimMicro sm = measure_sim();
    const ModelMicro model_micro =
        measure_model(modelcheck_config(a.seed), a.seed + 1, r.tally);

    std::vector<SweepPass> untraced;
    repeat_for(a.seconds / 2, 1,
               [&] { untraced.push_back(wl.run_pass(r.tally)); });
    std::vector<double> untraced_walls;
    std::vector<double> overheads;
    for (const SweepPass& p : untraced) {
      untraced_walls.push_back(p.wall);
      overheads.push_back(p.driver_overhead);
    }
    const SweepPass& ref = untraced.front();
    Spans spans;
    TracedSweep counts;
    std::vector<double> traced_walls;
    repeat_for(a.seconds / 2, 1, [&] {
      counts = wl.traced_pass(spans, ref, r.tally);
      traced_walls.push_back(counts.wall);
    });

    // The checker is not part of a sweep; its layer numbers come from a
    // small fixed probe so every per-layer metric is a measurement.
    Spans probe_spans;
    model::ModelConfig probe = modelcheck_config(a.seed);
    probe.regions = 1;
    CheckerPass probe_pass;
    for (int i = 0; i < 3; ++i) {
      probe_pass = traced_checker_pass(probe_spans, probe, r.tally);
    }

    const auto sweep_passes = spans.per_pass();
    const auto probe_passes = probe_spans.per_pass();
    sweep_layers(r, sweep_passes, counts, mm, sm, median(overheads));
    model_layers(r, probe_passes, probe_pass.result.stats, model_micro);
    self_layers(r, sweep_passes, probe_passes, sweep_passes);
    const double traced = median(traced_walls);
    const double plain = median(untraced_walls);
    r.add("trace.wall_s", traced, "s");
    r.add("trace.untraced_wall_s", plain, "s");
    r.add("trace.overhead_s", traced - plain, "s");
    r.add("trace.spans",
          static_cast<double>(spans.all().size()) /
              static_cast<double>(traced_walls.size()),
          "count");
    write_file(a.work + "/spans.json",
               "{\"sweep\":" + spans.to_json() +
                   ",\"checker_probe\":" + probe_spans.to_json() + "}\n");
    r.extra << ",\"passes\":" << untraced.size()
            << ",\"traced_passes\":" << traced_walls.size()
            << ",\"spans_file\":" << json_string(a.work + "/spans.json");
  }
  fingerprint_sweeps(r, a, wl);
}

void run_modelcheck(Report& r, const Args& a) {
  const model::ModelConfig cfg = modelcheck_config(a.seed);
  std::vector<model::CheckStats> all_stats;
  if (a.trace == 0) {
    std::vector<double> setups;
    std::vector<double> walls;
    repeat_for(a.seconds, kMinPasses, [&] {
      const CheckerPass p = checker_pass(cfg, r.tally);
      walls.push_back(p.wall);
      all_stats.push_back(p.result.stats);
      setups.push_back(checker_setup(cfg));
    });
    while (setups.size() < kMinSetups) {
      next_cpu();
      setups.push_back(checker_setup(cfg));
    }
    const double wall = trimmed_mean(walls);
    r.add("wall_s", wall, "s");
    r.add("setup_s", median(setups), "s");
    add_point_metrics(r, {walls});
    const auto states = static_cast<double>(all_stats.front().states_visited);
    r.add("work_per_s", states / wall, "1/s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.extra << ",\"passes\":" << walls.size()
            << ",\"work_per_pass\":" << all_stats.front().states_visited
            << ",\"work_unit\":\"checker states\"";
  } else {
    const MemMicro mm = measure_mem(r.tally);
    const SimMicro sm = measure_sim();
    const ModelMicro model_micro = measure_model(cfg, a.seed + 1, r.tally);

    std::vector<double> untraced_walls;
    repeat_for(a.seconds / 2, 1, [&] {
      const CheckerPass p = checker_pass(cfg, r.tally);
      untraced_walls.push_back(p.wall);
      all_stats.push_back(p.result.stats);
    });
    Spans spans;
    std::vector<double> traced_walls;
    model::CheckStats stats;
    repeat_for(a.seconds / 2, 1, [&] {
      const CheckerPass p = traced_checker_pass(spans, cfg, r.tally);
      traced_walls.push_back(p.wall);
      all_stats.push_back(p.result.stats);
      stats = p.result.stats;
    });

    // The sweep layers are not part of the checker; their numbers come
    // from a small fixed probe (the ci_smoke plan) so every per-layer
    // metric is a measurement.
    std::filesystem::create_directories(a.work + "/probe");
    SweepWorkload probe(load_plans(a.plans, {"ci_smoke.plan"}, a.seed),
                        a.work + "/probe");
    const SweepPass ref = probe.run_pass(r.tally);
    Spans probe_spans;
    TracedSweep counts;
    for (int i = 0; i < 3; ++i) {
      counts = probe.traced_pass(probe_spans, ref, r.tally);
    }

    const auto passes = spans.per_pass();
    const auto probe_passes = probe_spans.per_pass();
    sweep_layers(r, probe_passes, counts, mm, sm, ref.driver_overhead);
    model_layers(r, passes, stats, model_micro);
    self_layers(r, probe_passes, passes, passes);
    const double traced = median(traced_walls);
    const double plain = median(untraced_walls);
    r.add("trace.wall_s", traced, "s");
    r.add("trace.untraced_wall_s", plain, "s");
    r.add("trace.overhead_s", traced - plain, "s");
    r.add("trace.spans",
          static_cast<double>(spans.all().size()) /
              static_cast<double>(traced_walls.size()),
          "count");
    write_file(a.work + "/spans.json",
               "{\"checker\":" + spans.to_json() +
                   ",\"sweep_probe\":" + probe_spans.to_json() + "}\n");
    r.extra << ",\"passes\":" << untraced_walls.size()
            << ",\"traced_passes\":" << traced_walls.size()
            << ",\"spans_file\":" << json_string(a.work + "/spans.json");
  }
  r.extra << ",\"checker_counts\":[";
  for (std::size_t i = 0; i < all_stats.size(); ++i) {
    r.extra << (i != 0 ? "," : "") << "{\"states\":"
            << all_stats[i].states_visited
            << ",\"transitions\":" << all_stats[i].transitions
            << ",\"max_depth\":" << all_stats[i].max_depth_seen << "}";
  }
  r.extra << "]";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // glibc raises its mmap threshold the first time it frees a large
  // mmapped block, after which large blocks come from the heap and are
  // reused or trimmed depending on heap layout. Fixing the threshold at
  // its documented default keeps allocation cost independent of that
  // layout: every block above 128 KiB is mapped fresh, every time.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Args a = parse_args(argc, argv);
  print_env(a);
  Report r;
  try {
    std::filesystem::create_directories(a.work);
    if (a.workload == "modelcheck") {
      run_modelcheck(r, a);
    } else {
      run_sweeps(r, a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : r.metrics) {
    std::printf("  %-26s %18.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
              "\"build_type\":%s,\"compiler\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"reasons\":[",
              json_string(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed), a.trace,
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(PERFBENCH_COMPILER).c_str(),
              static_cast<unsigned long long>(r.tally.attempted()),
              static_cast<unsigned long long>(r.tally.failed()));
  const auto& reasons = r.tally.reasons();
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    std::printf("%s%s", i != 0 ? "," : "", json_string(reasons[i]).c_str());
  }
  std::printf("],\"metrics\":%s%s}\n", metrics_json(r.metrics).c_str(),
              r.extra.str().c_str());
  return 0;
}
