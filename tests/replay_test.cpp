// Tests for the counterexample concretization & replay engine (src/replay):
// schema counterexamples must replay to real, applicable schedules that
// re-establish the violated spec with the LIA solver out of the loop;
// tampered counterexamples must be rejected with a precise divergence; and
// replay-annotated reports must be byte-identical across scheduler widths.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "frontend/registry.h"
#include "replay/replay.h"
#include "schema/checker.h"
#include "spec/spec.h"
#include "ta/transforms.h"
#include "verify/pipeline.h"

namespace ctaver::replay {
namespace {

protocols::ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

/// NaiveVoting's Inv1 counterexample: the cheapest genuine CE in the corpus.
struct NaiveCe {
  ta::System rd;
  spec::Spec spec;
  schema::Counterexample ce;
};

NaiveCe naive_inv1_ce() {
  NaiveCe out;
  protocols::ProtocolModel pm = builtin("NaiveVoting");
  out.rd = ta::single_round(ta::nonprobabilistic(pm.system));
  out.spec = spec::inv1(out.rd, 0);
  schema::CheckOptions opts;
  opts.workers = 1;
  schema::CheckResult res = schema::check_spec(out.rd, out.spec, opts);
  EXPECT_FALSE(res.holds);
  EXPECT_TRUE(res.ce.has_value());
  out.ce = *res.ce;
  return out;
}

TEST(Replay, NaiveVotingInv1CeReplays) {
  NaiveCe c = naive_inv1_ce();
  // The structured schedule is populated alongside the text.
  EXPECT_EQ(c.ce.spec_name, c.spec.name);
  EXPECT_FALSE(c.ce.init.empty());
  EXPECT_FALSE(c.ce.batches.empty());

  ReplayReport r = replay_counterexample(c.rd, c.spec, c.ce);
  EXPECT_TRUE(r.schedule_ok) << r.detail;
  EXPECT_TRUE(r.violation) << r.detail;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.divergence, -1);
  EXPECT_EQ(r.steps, static_cast<long long>(r.schedule.size()));
  EXPECT_GE(r.premise_at, 0);
  EXPECT_GE(r.conclusion_at, 0);
  EXPECT_NE(r.detail.find("confirmed"), std::string::npos);
  EXPECT_FALSE(r.final_config.empty());
}

TEST(Replay, ReplayIsDeterministic) {
  NaiveCe c = naive_inv1_ce();
  ReplayReport a = replay_counterexample(c.rd, c.spec, c.ce);
  ReplayReport b = replay_counterexample(c.rd, c.spec, c.ce);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.final_config, b.final_config);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(Replay, InflatedBatchCountDiverges) {
  NaiveCe c = naive_inv1_ce();
  ASSERT_FALSE(c.ce.batches.empty());
  // More firings than there are tokens: the explicit semantics must refuse.
  c.ce.batches.front().count += 1000;
  ReplayReport r = replay_counterexample(c.rd, c.spec, c.ce);
  EXPECT_FALSE(r.schedule_ok);
  EXPECT_GE(r.divergence, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.detail.find("diverged"), std::string::npos) << r.detail;
}

TEST(Replay, TruncatedScheduleDoesNotConfirm) {
  NaiveCe c = naive_inv1_ce();
  ASSERT_FALSE(c.ce.batches.empty());
  // Drop the tail: the schedule stays applicable but the violation is gone
  // (the conclusion witness lives at the end of this counterexample).
  c.ce.batches.pop_back();
  ReplayReport r = replay_counterexample(c.rd, c.spec, c.ce);
  EXPECT_TRUE(r.schedule_ok) << r.detail;
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.detail.find("NOT confirmed"), std::string::npos) << r.detail;
}

TEST(Replay, MalformedCounterexamplesAreRejectedNotCrashed) {
  NaiveCe c = naive_inv1_ce();

  schema::Counterexample bad = c.ce;
  bad.init.clear();  // occupancy no longer sums to N(p)
  EXPECT_FALSE(replay_counterexample(c.rd, c.spec, bad).schedule_ok);

  bad = c.ce;
  bad.params.assign(bad.params.size(), 0);  // violates RC
  ReplayReport r = replay_counterexample(c.rd, c.spec, bad);
  EXPECT_FALSE(r.schedule_ok);
  EXPECT_NE(r.detail.find("malformed"), std::string::npos);

  bad = c.ce;
  bad.params.pop_back();  // wrong arity
  EXPECT_FALSE(replay_counterexample(c.rd, c.spec, bad).schedule_ok);

  bad = c.ce;
  ASSERT_FALSE(bad.batches.empty());
  bad.batches.front().rule = 999;  // unknown rule
  EXPECT_FALSE(replay_counterexample(c.rd, c.spec, bad).schedule_ok);
}

// --- pipeline integration ---------------------------------------------------

std::string render_obligations(const verify::ProtocolReport& r) {
  std::ostringstream os;
  for (const verify::PropertyResult* prop :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const verify::Obligation& o : prop->obligations) {
      os << o.name << "|" << o.holds << "|" << o.complete << "|" << o.ce
         << "|" << o.detail << "|" << o.replay << "|" << o.replay_ok << "\n";
    }
  }
  return os.str();
}

TEST(Replay, PipelineReplayIsByteIdenticalAcrossJobs) {
  verify::Options opts;
  opts.replay_ce = true;
  opts.jobs = 1;
  std::string serial =
      render_obligations(verify_protocol(builtin("NaiveVoting"), opts));
  EXPECT_NE(serial.find("confirmed"), std::string::npos);
  for (int jobs : {2, 8}) {
    opts.jobs = jobs;
    std::string parallel =
        render_obligations(verify_protocol(builtin("NaiveVoting"), opts));
    EXPECT_EQ(serial, parallel) << "jobs=" << jobs;
  }
}

TEST(Replay, Mmr14Cb2CeReplaysThroughThePipeline) {
  // The acceptance path: the CB2 counterexample the schema checker reports
  // for MMR14 must replay to a real violating schedule on the refined
  // system, LIA-free. only_obligations keeps the run focused (and exercises
  // the plan filter).
  verify::Options opts;
  opts.replay_ce = true;
  opts.run_sweeps = false;
  opts.jobs = 1;
  opts.only_obligations = {"CB2"};
  verify::ProtocolReport r = verify_protocol(builtin("MMR14"), opts);
  EXPECT_TRUE(r.agreement.obligations.empty());
  EXPECT_TRUE(r.validity.obligations.empty());
  ASSERT_EQ(r.termination.obligations.size(), 1u);
  const verify::Obligation& o = r.termination.obligations[0];
  EXPECT_EQ(o.name, "CB2");
  EXPECT_FALSE(o.holds);
  ASSERT_TRUE(o.ce_data.has_value());
  EXPECT_TRUE(o.replay_ok) << o.replay;
  EXPECT_NE(o.replay.find("confirmed"), std::string::npos);
}

TEST(Replay, ObligationNamesMatchThePlannedReports) {
  // protocols::obligation_names is the expect-block vocabulary; it must
  // stay in lockstep with the pipeline's planned slots. A zero budget makes
  // planning (and thus slot creation) the only work.
  for (const char* name : {"NaiveVoting", "Rabin83", "CC85a", "MMR14"}) {
    protocols::ProtocolModel pm = builtin(name);
    verify::Options opts;
    opts.jobs = 1;
    opts.schema.time_budget_s = 0.0;
    opts.schema.max_schemas = 0;
    verify::ProtocolReport r = verify_protocol(pm, opts);
    std::vector<std::string> planned;
    for (const verify::PropertyResult* prop :
         {&r.agreement, &r.validity, &r.termination}) {
      for (const verify::Obligation& o : prop->obligations) {
        planned.push_back(o.name);
      }
    }
    EXPECT_EQ(planned, protocols::obligation_names(pm.category)) << pm.name;
  }
}

}  // namespace
}  // namespace ctaver::replay
