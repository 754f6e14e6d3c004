#include "checker.hpp"

#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace model = ssomp::slip::model;

model::ModelConfig modelcheck_config(std::uint64_t seed) {
  model::ModelConfig c;
  c.ncmp = 2;
  c.tokens = 1;
  c.sync = ssomp::slip::SyncType::kLocal;
  c.regions = 3;
  c.barriers = 2;
  c.chunks = 0;
  c.mailbox_depth = 2;
  c.divergence_threshold = 1;
  c.policy = model::Policy::kBench;
  c.restart_budget = 2;
  c.watchdog = true;
  c.degrade_enabled = true;
  c.demote_after = 1;
  c.probation = 1;
  const auto fault = ssomp::slip::parse_fault_plan("r-stream-token-loss,0,1");
  if (!fault.ok) throw std::runtime_error(fault.error);
  c.fault = fault.value;
  if (seed != 0) c.fault.seed = seed;
  return c;
}

namespace {

void judge(const model::CheckResult& r, Tally& tally) {
  std::string why;
  if (!r.ok) why = "model check violation: " + r.violation;
  if (r.truncated) why = "model check truncated";
  tally.check(why.empty(), why);
}

}  // namespace

CheckerPass checker_pass(const model::ModelConfig& cfg, Tally& tally) {
  CheckerPass pass;
  const Clock::time_point t0 = Clock::now();
  const model::Model m(cfg);
  pass.result = model::run_checker(m);
  pass.wall = seconds_since(t0);
  judge(pass.result, tally);
  return pass;
}

double checker_setup(const model::ModelConfig& cfg) {
  constexpr int kBatches = 15;
  constexpr int kPerBatch = 50;
  std::vector<double> per_op;
  std::uint64_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kPerBatch; ++i) {
      const model::Model m(cfg);
      sink += m.initial().nodes.size();
    }
    per_op.push_back(seconds_since(t0) / kPerBatch);
  }
  if (sink == 0) throw std::runtime_error("model has no nodes");
  return median(per_op);
}

CheckerPass traced_checker_pass(Spans& spans, const model::ModelConfig& cfg,
                                Tally& tally) {
  CheckerPass pass;
  const Clock::time_point t0 = Clock::now();
  {
    Spans::Scope pass_span(spans, "pass", "bench");
    std::optional<model::Model> m;
    {
      Spans::Scope s(spans, "model.build", "slip/model");
      m.emplace(cfg);
      (void)m->initial();
    }
    Spans::Scope s(spans, "model.check", "slip/model");
    pass.result = model::run_checker(*m);
  }
  pass.wall = seconds_since(t0);
  judge(pass.result, tally);
  return pass;
}

}  // namespace perfbench
