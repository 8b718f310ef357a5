// Google-benchmark microbenchmarks for the substrates: LIA solving,
// explicit state-graph construction, schema query throughput, and the
// simulator's message loop. These back the performance claims in
// EXPERIMENTS.md (fast state exploration, no hardware dependences).
#include <benchmark/benchmark.h>

#include "cs/explicit_system.h"
#include "cs/state_graph.h"
#include "frontend/registry.h"
#include "lia/solver.h"
#include "schema/checker.h"
#include "sim/simulation.h"
#include "spec/spec.h"
#include "ta/transforms.h"

namespace {

using namespace ctaver;

void BM_LiaThresholdSystem(benchmark::State& state) {
  for (auto _ : state) {
    lia::Solver s;
    lia::Var n = s.new_var("n", 1);
    lia::Var t = s.new_var("t", 0);
    lia::Var f = s.new_var("f", 0);
    lia::Var b = s.new_var("b", 0);
    using lia::Constraint;
    using lia::LinExpr;
    using util::Rational;
    s.add(Constraint::gt_int(LinExpr::term(n), LinExpr::term(t, Rational(3))));
    s.add(Constraint::ge(LinExpr::term(t), LinExpr::term(f)));
    s.add(Constraint::ge(
        LinExpr::term(b),
        LinExpr::term(t, Rational(2)) + LinExpr(Rational(1)) -
            LinExpr::term(f)));
    s.add(Constraint::le(LinExpr::term(b),
                         LinExpr::term(n) - LinExpr::term(f)));
    benchmark::DoNotOptimize(s.check());
  }
}
BENCHMARK(BM_LiaThresholdSystem);

void BM_StateGraphCc85a(benchmark::State& state) {
  protocols::ProtocolModel pm = frontend::ProtocolRegistry::with_builtins().make("CC85a");
  ta::System rd = ta::single_round(ta::nonprobabilistic(pm.system));
  for (auto _ : state) {
    cs::ExplicitSystem es(rd, {4, 1, 1}, 1);
    cs::StateGraph g(es, es.border_start_configs());
    benchmark::DoNotOptimize(g.num_states());
  }
}
BENCHMARK(BM_StateGraphCc85a);

void BM_SchemaCheckNaiveVotingInv2(benchmark::State& state) {
  protocols::ProtocolModel pm = frontend::ProtocolRegistry::with_builtins().make("NaiveVoting");
  ta::System rd = ta::single_round(ta::nonprobabilistic(pm.system));
  for (auto _ : state) {
    schema::CheckResult res = schema::check_spec(rd, spec::inv2(rd, 0));
    benchmark::DoNotOptimize(res.holds);
  }
}
BENCHMARK(BM_SchemaCheckNaiveVotingInv2);

void BM_SimulatorRandomRound(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Simulation::Setup setup;
    setup.proto = sim::Protocol::kMmr14;
    setup.n = 4;
    setup.t = 1;
    setup.inputs = {0, 0, 1};
    setup.coin_seed = ++seed;
    benchmark::DoNotOptimize(sim::run_random(setup, seed * 13, 32));
  }
}
BENCHMARK(BM_SimulatorRandomRound);

}  // namespace

BENCHMARK_MAIN();
