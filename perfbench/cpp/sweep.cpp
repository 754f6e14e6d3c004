#include "sweep.hpp"

#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/registry.hpp"
#include "core/diff.hpp"
#include "core/driver.hpp"
#include "core/journal.hpp"
#include "core/json.hpp"
#include "core/plan.hpp"
#include "machine/machine.hpp"
#include "stats/timeline.hpp"
#include "trace/chrome.hpp"

namespace perfbench {

namespace core = ssomp::core;
namespace sim = ssomp::sim;

Counts mem_counts(const ssomp::stats::MemStats& m) {
  using ssomp::stats::ReqClass;
  using ssomp::stats::ReqKind;
  Counts c = {
      {"loads", m.loads},
      {"stores", m.stores},
      {"prefetches", m.prefetches},
      {"l1_hits", m.l1_hits},
      {"l2_hits", m.l2_hits},
      {"l2_fills", m.l2_fills},
      {"merges", m.merges},
      {"fills_local", m.fills_local},
      {"fills_remote", m.fills_remote_clean},
      {"fills_dirty", m.fills_dirty},
      {"fills_cross_cluster", m.fills_cross_cluster},
      {"cross_cluster_stall_cycles", m.cross_cluster_stall_cycles},
      {"upgrades", m.upgrades},
      {"silent_upgrades", m.silent_upgrades},
      {"invalidations", m.invalidations},
      {"self_invalidations", m.self_invalidations},
      {"writebacks", m.writebacks},
  };
  for (int k = 0; k < ssomp::stats::kReqKindCount; ++k) {
    for (int cls = 0; cls < ssomp::stats::kReqClassCount; ++cls) {
      const auto kind = static_cast<ReqKind>(k);
      const auto rc = static_cast<ReqClass>(cls);
      c.emplace_back("req_class." + std::string(to_string(kind)) + "." +
                         std::string(to_string(rc)),
                     m.req_class.get(kind, rc));
    }
  }
  return c;
}

Counts slip_counts(const ssomp::rt::SlipRegionStats& s) {
  return {
      {"tokens_consumed", s.tokens_consumed},
      {"tokens_inserted", s.tokens_inserted},
      {"recoveries", s.recoveries},
      {"forwarded_chunks", s.forwarded_chunks},
      {"dropped_stores", s.dropped_stores},
      {"converted_stores", s.converted_stores},
      {"restarts", s.restarts},
      {"benched_barriers", s.benched_barriers},
      {"watchdog_trips", s.watchdog_trips},
      {"demotions", s.demotions},
      {"promotions", s.promotions},
  };
}

namespace {

PointSig sig_of(const core::ExperimentResult& r) {
  return PointSig{r.cycles, mem_counts(r.mem), slip_counts(r.slip)};
}

core::ExperimentPlan parse_or_throw(const PlanInput& in) {
  auto parsed = core::parse_plan(in.text);
  if (!parsed.ok) {
    throw std::runtime_error(in.file + ": " + parsed.error);
  }
  return std::move(parsed.value);
}

/// Why a finished point does not count as a success ("" when it does):
/// not ok, or verification, invariants, audit or the cycle-account
/// identity failed.
std::string point_problem(const core::RunRecord& rec) {
  if (!rec.ok()) return rec.label + ": status " + rec.error;
  const core::ExperimentResult& r = rec.result;
  if (!r.workload.verified) return rec.label + ": workload not verified";
  if (!r.invariants_ok) return rec.label + ": memory invariants failed";
  if (!r.audit_ok) return rec.label + ": slipstream audit failed";
  if (!r.cycle_account_ok) return rec.label + ": cycle-account identity";
  return "";
}

std::uint64_t refs_of(const ssomp::stats::MemStats& m) {
  return m.loads + m.stores + m.prefetches;
}

/// One point composed from public calls in run_experiment's order:
/// Machine, Runtime, workload factory, run, verify, memory invariants,
/// cycle-account identity. Each call gets a span.
core::RunRecord traced_point(Spans& spans, const core::PlanPoint& point,
                             const core::WorkloadResolver& resolver) {
  core::RunRecord rec;
  rec.label = point.label;
  const core::ExperimentConfig& config = point.config;
  const Clock::time_point t0 = Clock::now();
  {
    Spans::Scope point_span(spans, "point", "core");
    core::ExperimentResult& result = rec.result;

    std::unique_ptr<ssomp::machine::Machine> machine;
    {
      Spans::Scope s(spans, "machine.build", "machine");
      machine = std::make_unique<ssomp::machine::Machine>(config.machine);
      machine->engine().set_stop_control(
          {config.budget.max_simulated_cycles, nullptr, nullptr});
    }
    std::unique_ptr<ssomp::rt::Runtime> runtime;
    {
      Spans::Scope s(spans, "rt.init", "rt");
      runtime =
          std::make_unique<ssomp::rt::Runtime>(*machine, config.runtime);
    }
    std::unique_ptr<core::Workload> workload;
    {
      Spans::Scope s(spans, "apps.build", "apps");
      workload = resolver(point)(*runtime);
    }
    std::optional<ssomp::stats::Timeline> timeline;
    if (config.timeline_interval > 0) {
      timeline.emplace(machine->engine(), config.timeline_interval);
    }
    {
      Spans::Scope s(spans, "rt.run", "rt");
      result.cycles = runtime->run(
          [&](ssomp::rt::SerialCtx& sc) { workload->run(sc); });
    }
    if (timeline.has_value()) {
      timeline->finalize();
      result.timeline = timeline->data();
      result.timeline_csv = result.timeline.to_csv();
    }
    for (sim::CpuId c = 0; c < machine->ncpus(); ++c) {
      const sim::TimeBreakdown& b = machine->cpu(c).breakdown();
      if (b.get(sim::TimeCategory::kBusy) > 0) {
        result.team_breakdown += b;
        ++result.participating_cpus;
      }
    }
    result.mem = machine->mem().stats();
    result.slip = runtime->slip_stats();
    result.regions = runtime->region_records();
    {
      Spans::Scope s(spans, "apps.verify", "apps");
      result.workload = workload->verify();
    }
    {
      Spans::Scope s(spans, "mem.check", "mem");
      result.invariants_ok = machine->mem().check_invariants();
    }
    result.audit_ok = runtime->auditor().ok();
    result.audit_checks = runtime->auditor().checks_performed();
    result.audit_violations = runtime->auditor().violations();
    result.faults_injected = runtime->fault_injector().fired();
    for (const auto& rep : runtime->watchdog().reports()) {
      result.watchdog_reports.push_back(rep.describe());
    }
    const ssomp::trace::Instrumentation& inst = runtime->instrumentation();
    result.trace_enabled = inst.tracer().enabled();
    result.metrics_enabled = inst.metrics_on();
    if (result.trace_enabled) {
      result.trace_json = ssomp::trace::chrome_trace_json(inst.tracer());
      result.trace_counts = inst.tracer().counts();
    }
    if (result.metrics_enabled) {
      result.metrics = inst.metrics();
      result.metrics_text = inst.metrics().to_text();
    }
    result.cycle_account = runtime->cycle_account();
    if (result.mem.cross_cluster_stall_cycles > 0) {
      result.cycle_account.aux["cross_cluster_stall"] =
          static_cast<sim::Cycles>(result.mem.cross_cluster_stall_cycles);
    }
    std::vector<sim::Cycles> expected;
    expected.reserve(static_cast<std::size_t>(machine->ncpus()));
    for (sim::CpuId c = 0; c < machine->ncpus(); ++c) {
      expected.push_back(machine->cpu(c).breakdown().total());
    }
    {
      Spans::Scope s(spans, "trace.account_check", "trace");
      result.cycle_account_violations =
          result.cycle_account.check_identity(expected);
    }
    result.cycle_account_ok = result.cycle_account_violations.empty();
  }
  rec.status = core::RunStatus::kOk;
  rec.host_seconds = seconds_since(t0);
  core::RunAttempt attempt;
  attempt.status = core::RunStatus::kOk;
  attempt.workload_seed = point.workload_seed;
  attempt.host_seconds = rec.host_seconds;
  rec.attempts.push_back(attempt);
  return rec;
}

const core::SweepJsonOptions kNoHostSeconds{.host_seconds = false};

}  // namespace

SweepWorkload::SweepWorkload(std::vector<PlanInput> plans,
                             std::string work_dir)
    : plans_(std::move(plans)), work_dir_(std::move(work_dir)) {
  for (const PlanInput& in : plans_) {
    const core::ExperimentPlan plan = parse_or_throw(in);
    names_.push_back(plan.name);
  }
}

std::string SweepWorkload::journal_path(std::size_t plan) const {
  return work_dir_ + "/" + names_[plan] + ".journal";
}

SweepPass SweepWorkload::run_pass(Tally& tally) {
  SweepPass pass;
  const core::WorkloadResolver resolver = ssomp::apps::plan_resolver();
  const bool first = ref_aggregates_.empty();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<std::string>> problems(plans_.size());
  for (std::size_t p = 0; p < plans_.size(); ++p) {
    const core::ExperimentPlan plan = parse_or_throw(plans_[p]);
    core::SweepOptions opts = core::sweep_jobs(1);
    opts.journal = journal_path(p);
    const Clock::time_point s0 = Clock::now();
    const core::SweepRun run = core::run_sweep(plan, resolver, opts);
    double in_points = 0.0;
    std::vector<PointSig> sigs;
    for (const core::RunRecord& rec : run.records) {
      in_points += rec.host_seconds;
      pass.point_seconds.push_back(rec.host_seconds);
      pass.refs += refs_of(rec.result.mem);
      sigs.push_back(sig_of(rec.result));
      problems[p].push_back(point_problem(rec));
    }
    pass.driver_overhead += seconds_since(s0) - in_points;

    const core::JournalRead jr = core::read_journal(opts.journal);
    const std::string aggregate = core::sweep_to_json(run, kNoHostSeconds);
    const core::LoadedSweep loaded =
        core::load_sweep_text(aggregate, plan.name);
    if (first) {
      ref_aggregates_.push_back(aggregate);
      ref_roots_.push_back(loaded.root);
    }
    std::string plan_problem;
    if (!jr.ok || jr.records.size() != run.records.size()) {
      plan_problem = plan.name + ": journal did not read back";
    } else if (!loaded.ok) {
      plan_problem = plan.name + ": aggregate did not re-read: " + loaded.error;
    } else if (!core::diff_sweeps(ref_roots_[p], loaded.root).clean()) {
      plan_problem = plan.name + ": aggregate diff against the first pass";
    } else if (aggregate != ref_aggregates_[p]) {
      plan_problem = plan.name + ": aggregate differs from the first pass";
    }
    if (!plan_problem.empty()) {
      for (std::string& why : problems[p]) {
        if (why.empty()) why = plan_problem;
      }
    }
    pass.sigs.push_back(std::move(sigs));
  }
  pass.wall = seconds_since(t0);
  for (const auto& plan_problems : problems) {
    for (const std::string& why : plan_problems) tally.check(why.empty(), why);
  }
  return pass;
}

double SweepWorkload::setup_pass() const {
  const core::WorkloadResolver resolver = ssomp::apps::plan_resolver();
  double total = 0.0;
  for (const PlanInput& in : plans_) {
    Clock::time_point t0 = Clock::now();
    const core::ExperimentPlan plan = parse_or_throw(in);
    const std::vector<core::PlanPoint> points = plan.expand();
    total += seconds_since(t0);
    for (const core::PlanPoint& point : points) {
      t0 = Clock::now();
      ssomp::machine::Machine machine(point.config.machine);
      ssomp::rt::Runtime runtime(machine, point.config.runtime);
      std::unique_ptr<core::Workload> workload = resolver(point)(runtime);
      total += seconds_since(t0);
    }
  }
  return total;
}

TracedSweep SweepWorkload::traced_pass(Spans& spans, const SweepPass& ref,
                                       Tally& tally) {
  TracedSweep out;
  const core::WorkloadResolver resolver = ssomp::apps::plan_resolver();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::string> problems;
  {
    Spans::Scope pass_span(spans, "pass", "bench");
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      std::optional<core::ExperimentPlan> plan;
      {
        Spans::Scope s(spans, "plan.parse", "core");
        plan.emplace(parse_or_throw(plans_[p]));
      }
      core::SweepRun run;
      {
        Spans::Scope s(spans, "plan.expand", "core");
        run.points = plan->expand();
      }
      run.plan = *plan;
      run.jobs = 1;

      const std::string path = journal_path(p);
      std::ofstream journal(path, std::ios::binary | std::ios::trunc);
      {
        Spans::Scope s(spans, "journal.append", "core");
        const std::string header = core::journal_header_line(*plan);
        journal << header << '\n';
        journal.flush();
        out.journal_bytes += header.size() + 1;
      }
      for (std::size_t i = 0; i < run.points.size(); ++i) {
        core::RunRecord rec;
        try {
          rec = traced_point(spans, run.points[i], resolver);
        } catch (const std::exception& e) {
          rec.label = run.points[i].label;
          rec.status = core::RunStatus::kError;
          rec.error = e.what();
        }
        std::string why = point_problem(rec);
        if (why.empty() && (i >= ref.sigs[p].size() ||
                            sig_of(rec.result) != ref.sigs[p][i])) {
          why = rec.label + ": traced results differ from run_sweep";
        }
        problems.push_back(std::move(why));
        out.mem += rec.result.mem;
        out.slip += rec.result.slip;
        {
          Spans::Scope s(spans, "journal.append", "core");
          const std::string line = core::record_to_journal_json(rec);
          journal << line << '\n';
          journal.flush();
          out.journal_bytes += line.size() + 1;
        }
        run.records.push_back(std::move(rec));
      }
      journal.close();

      std::string aggregate;
      {
        Spans::Scope s(spans, "emit", "core");
        aggregate = core::sweep_to_json(run, kNoHostSeconds);
      }
      out.emit_bytes += aggregate.size();
      core::JournalRead jr;
      {
        Spans::Scope s(spans, "journal.read", "core");
        jr = core::read_journal(path);
      }
      bool clean = false;
      {
        Spans::Scope s(spans, "diff", "core");
        const core::LoadedSweep loaded =
            core::load_sweep_text(aggregate, plan->name);
        clean = loaded.ok && p < ref_roots_.size() &&
                core::diff_sweeps(ref_roots_[p], loaded.root).clean();
      }
      std::string plan_problem;
      if (!jr.ok || jr.records.size() != run.records.size()) {
        plan_problem = plan->name + ": traced journal did not read back";
      } else if (!clean) {
        plan_problem = plan->name + ": traced aggregate diff against run_sweep";
      }
      if (!plan_problem.empty()) {
        for (std::size_t i = problems.size() - run.records.size();
             i < problems.size(); ++i) {
          if (problems[i].empty()) problems[i] = plan_problem;
        }
      }
    }
  }
  out.wall = seconds_since(t0);
  for (const std::string& why : problems) tally.check(why.empty(), why);
  return out;
}

std::vector<std::string> SweepWorkload::write_aggregates(
    const std::string& dir) const {
  std::vector<std::string> files;
  for (std::size_t p = 0; p < ref_aggregates_.size(); ++p) {
    const std::string file = dir + "/" + names_[p] + ".json";
    write_file(file, ref_aggregates_[p] + "\n");
    files.push_back(file);
  }
  return files;
}

}  // namespace perfbench
