// Integration tests for the verification pipeline (src/verify): category
// (A)/(B) protocols verify end-to-end; report aggregation, Table-II
// formatting and the report_text contract behave; the C1/C2' instance
// games give the expected verdicts.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "frontend/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "verify/pipeline.h"

namespace ctaver::verify {
namespace {

protocols::ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

TEST(Pipeline, Cc85aFullyVerifies) {
  ProtocolReport r = verify_protocol(builtin("CC85a"));
  EXPECT_TRUE(r.agreement.holds());
  EXPECT_TRUE(r.validity.holds());
  EXPECT_TRUE(r.termination.holds());
  EXPECT_FALSE(r.agreement.inconclusive());
  // Agreement/validity come from the parametric checker.
  for (const Obligation& o : r.agreement.obligations) {
    EXPECT_TRUE(o.parametric);
    EXPECT_TRUE(o.complete);
    EXPECT_GT(o.nschemas, 0);
  }
  // Category (B) termination: the two instance sweeps.
  ASSERT_EQ(r.termination.obligations.size(), 2u);
  EXPECT_EQ(r.termination.obligations[0].name, "C1");
  EXPECT_EQ(r.termination.obligations[1].name, "C2'");
  for (const Obligation& o : r.termination.obligations) {
    EXPECT_FALSE(o.parametric);
    EXPECT_TRUE(o.holds);
    EXPECT_NE(o.detail.find("instances"), std::string::npos);
    EXPECT_EQ(o.detail.find("FAIL"), std::string::npos);
  }
}

TEST(Pipeline, Rabin83CategoryAVerifies) {
  ProtocolReport r = verify_protocol(builtin("Rabin83"));
  EXPECT_EQ(r.category, protocols::Category::kA);
  EXPECT_TRUE(r.validity.holds());
  EXPECT_TRUE(r.termination.holds());
  // Category (A): C2 parametric (two values) + the C1 sweep.
  ASSERT_EQ(r.termination.obligations.size(), 3u);
  EXPECT_TRUE(r.termination.obligations[0].parametric);
  EXPECT_TRUE(r.termination.obligations[1].parametric);
  EXPECT_FALSE(r.termination.obligations[2].parametric);
}

TEST(Pipeline, Fmr05AndCc85bVerify) {
  for (const char* name : {"FMR05", "CC85b"}) {
    ProtocolReport r = verify_protocol(builtin(name));
    EXPECT_TRUE(r.agreement.holds()) << r.protocol;
    EXPECT_TRUE(r.validity.holds()) << r.protocol;
    EXPECT_TRUE(r.termination.holds()) << r.protocol;
  }
}

TEST(Pipeline, Ks16Verifies) {
  ProtocolReport r = verify_protocol(builtin("KS16"));
  EXPECT_TRUE(r.agreement.holds());
  EXPECT_TRUE(r.validity.holds());
  EXPECT_TRUE(r.termination.holds());
}

TEST(Pipeline, TableFormatting) {
  ProtocolReport r = verify_protocol(builtin("CC85a"));
  std::string header = table2_header();
  std::string row = table2_row(r);
  EXPECT_NE(header.find("nschemas"), std::string::npos);
  EXPECT_NE(header.find("agr-time"), std::string::npos);
  EXPECT_EQ(table2_header(/*timed=*/false).find("-time"), std::string::npos);
  EXPECT_NE(row.find("CC85a"), std::string::npos);
  EXPECT_NE(row.find("(B)"), std::string::npos);
  EXPECT_NE(row.find("verified"), std::string::npos);
}

TEST(Pipeline, BudgetLimitedVerdictIsNotCE) {
  Options opts;
  opts.schema.max_schemas = 1;  // everything inconclusive
  opts.run_sweeps = false;
  ProtocolReport r = verify_protocol(builtin("CC85a"), opts);
  EXPECT_FALSE(r.agreement.holds());
  EXPECT_FALSE(r.agreement.has_counterexample());
  EXPECT_TRUE(r.agreement.inconclusive());
  EXPECT_NE(table2_row(r).find("budget-limited"), std::string::npos);
}

TEST(Pipeline, UnplannedPropertiesReadNotChecked) {
  // only_obligations plans Validity's invariants alone. Agreement and
  // termination then have no obligation: "not checked", not a budget cut,
  // and the run still proves everything it planned.
  Options opts;
  opts.only_obligations = {"Inv2(v=0)", "Inv2(v=1)"};
  const ProtocolReport r = verify_protocol(builtin("CC85a"), opts);
  EXPECT_TRUE(r.planned_hold());
  const std::string text = report_text(r);
  EXPECT_NE(text.find("  Agreement: not checked\n"), std::string::npos);
  EXPECT_NE(text.find("  Validity: holds\n"), std::string::npos);
  EXPECT_NE(text.find("  Almost-sure termination: not checked\n"),
            std::string::npos);
  EXPECT_NE(table2_row(r).find("partial (2 not checked)"), std::string::npos);

  // Category (B) without sweeps has no termination obligation.
  Options no_sweeps;
  no_sweeps.run_sweeps = false;
  const ProtocolReport nb = verify_protocol(builtin("CC85a"), no_sweeps);
  EXPECT_TRUE(nb.planned_hold());
  EXPECT_NE(table2_row(nb).find("partial (1 not checked)"),
            std::string::npos);

  // An empty plan proves nothing.
  Options none = no_sweeps;
  none.only_obligations = {"C1"};
  const ProtocolReport empty = verify_protocol(builtin("CC85a"), none);
  EXPECT_FALSE(empty.planned_hold());
  EXPECT_NE(table2_row(empty).find("partial (3 not checked)"),
            std::string::npos);
}

TEST(Pipeline, PropertyResultAggregation) {
  PropertyResult pr;
  EXPECT_FALSE(pr.holds());  // no obligations -> nothing proved
  Obligation a;
  a.name = "x";
  a.holds = true;
  a.nschemas = 5;
  a.seconds = 0.5;
  pr.obligations.push_back(a);
  Obligation b = a;
  b.holds = false;
  b.ce = "ce";
  b.detail = "instances (3,1)=FAIL";
  b.nschemas = 7;
  pr.obligations.push_back(b);
  EXPECT_FALSE(pr.holds());
  EXPECT_TRUE(pr.has_counterexample());
  EXPECT_FALSE(pr.inconclusive());
  EXPECT_EQ(pr.nschemas(), 12);
  EXPECT_NEAR(pr.seconds(), 1.0, 1e-9);
  EXPECT_EQ(pr.failure(), "x: ce");
}

ProtocolReport naive_voting_replayed() {
  Options opts;
  opts.replay_ce = true;
  return verify_protocol(builtin("NaiveVoting"), opts);
}

TEST(Pipeline, ReportTextIgnoresTimingCacheAndSolverStats) {
  // Two copies of one report that differ only in wall-clock, cache
  // provenance, worker stats and solver counts render the same
  // report_text; the timed Table-II row still tells them apart.
  const ProtocolReport a = naive_voting_replayed();
  ProtocolReport b = a;
  for (PropertyResult* p : {&b.agreement, &b.validity, &b.termination}) {
    for (Obligation& o : p->obligations) {
      o.seconds += 1.5;
      o.cached = !o.cached;
      o.per_worker.push_back({3, 5});
      o.nqueries += 7;
      o.npivots += 11;
    }
  }
  EXPECT_EQ(report_text(a), report_text(b));
  EXPECT_NE(table2_row(a), table2_row(b));
}

TEST(Pipeline, ReportTextCoversEveryVerdictField) {
  // Each field the byte-identity checks compare shows in report_text:
  // changing any one of them changes the bytes.
  const ProtocolReport base = naive_voting_replayed();
  ASSERT_FALSE(base.agreement.obligations.at(0).replay.empty());
  ASSERT_FALSE(base.termination.obligations.at(0).detail.empty());
  using Edit = void (*)(ProtocolReport&);
  const std::pair<const char*, Edit> edits[] = {
      {"protocol", [](ProtocolReport& r) { r.protocol += "x"; }},
      {"category",
       [](ProtocolReport& r) { r.category = protocols::Category::kC; }},
      {"n_locations", [](ProtocolReport& r) { ++r.n_locations; }},
      {"n_rules", [](ProtocolReport& r) { ++r.n_rules; }},
      {"holds",
       [](ProtocolReport& r) { r.validity.obligations[0].holds = false; }},
      {"parametric",
       [](ProtocolReport& r) { r.validity.obligations[0].parametric = false; }},
      {"run_state",
       [](ProtocolReport& r) {
         r.validity.obligations[0].run_state = Obligation::RunState::kSkipped;
       }},
      {"cut_reason",
       [](ProtocolReport& r) { r.validity.obligations[0].cut_reason = "x"; }},
      {"nschemas",
       [](ProtocolReport& r) { ++r.validity.obligations[0].nschemas; }},
      {"error",
       [](ProtocolReport& r) { r.validity.obligations[0].error.emplace(); }},
      {"ce", [](ProtocolReport& r) { r.agreement.obligations[0].ce += "x"; }},
      {"replay",
       [](ProtocolReport& r) { r.agreement.obligations[0].replay += "x"; }},
      {"detail",
       [](ProtocolReport& r) { r.termination.obligations[0].detail += "x"; }},
  };
  for (const auto& [field, edit] : edits) {
    ProtocolReport r = base;
    edit(r);
    EXPECT_NE(report_text(r), report_text(base)) << field;
  }
}

TEST(Pipeline, ObservabilityIsOutOfBand) {
  // The hard contract of the obs layer: enabling metrics + tracing changes
  // no rendered report field, at every (jobs x workers) combination. Runs
  // complete well within budget here, so the renders must be byte-equal.
  const protocols::ProtocolModel pm = builtin("CC85a");
  const int widths[] = {1, 2, 8};

  auto run_grid = [&] {
    std::vector<std::string> renders;
    for (int jobs : widths) {
      for (int workers : widths) {
        Options opts;
        opts.jobs = jobs;
        opts.schema.workers = workers;
        renders.push_back(report_text(verify_protocol(pm, opts)));
      }
    }
    return renders;
  };

  obs::Registry::global().set_enabled(false);
  obs::Tracer::global().disable();
  const std::vector<std::string> plain = run_grid();

  obs::Registry::global().set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  obs::Tracer::global().enable();
  const std::vector<std::string> observed = run_grid();

  obs::Registry::global().set_enabled(false);
  obs::Tracer::global().disable();

  for (std::size_t i = 1; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], plain[0]) << "jobs x workers combo " << i;
  }
  for (std::size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(observed[i], plain[0]) << "obs-on combo " << i;
  }

  // And the observed runs actually recorded something (the test would pass
  // vacuously if the instrumentation were disconnected).
  EXPECT_GT(obs::Registry::global().counter_total(
                obs::Counter::kVerifyTasksDone),
            0u);
  EXPECT_FALSE(obs::Tracer::global().events().empty());
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
}

TEST(Pipeline, FailedObligationWithDetailOnlyIsInconclusive) {
  // Sweep obligations always carry instance tags in `detail`; a failed one
  // whose `ce` is empty must read as budget-limited, not as a refutation.
  PropertyResult pr;
  Obligation o;
  o.name = "C1";
  o.holds = false;
  o.complete = false;
  o.detail = "instances (3,1)=SKIP (5,2)=SKIP";
  pr.obligations.push_back(o);
  EXPECT_FALSE(pr.holds());
  EXPECT_FALSE(pr.has_counterexample());
  EXPECT_TRUE(pr.inconclusive());
  EXPECT_EQ(pr.failure(), "");
}

}  // namespace
}  // namespace ctaver::verify
