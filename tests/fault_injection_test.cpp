// Fault containment tests: the deterministic fault injector itself, the
// ERROR-obligation containment contract (one injected failure errors exactly
// one obligation and leaves every sibling's report fields untouched, across
// the whole (jobs, workers) matrix), the resource
// watchdogs (--max-rss-mb, --obligation-timeout), and the SIGINT-style
// interrupt path of SharedBudget.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "frontend/registry.h"
#include "schema/checker.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "verify/pipeline.h"

namespace ctaver {
namespace {

using util::FaultInjector;
using verify::Obligation;
using verify::ProtocolReport;

protocols::ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

/// The injector is process-global: every test arms inside a fixture that
/// resets on teardown, so a failing assertion cannot poison its neighbours.
class FaultInjection : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::instance().reset();
    util::clear_interrupt();
  }
};

verify::Options fast_options() {
  verify::Options opts;
  opts.schema.time_budget_s = 120.0;
  return opts;
}

std::vector<const Obligation*> all_obligations(const ProtocolReport& r) {
  std::vector<const Obligation*> out;
  for (const verify::PropertyResult* p :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const Obligation& o : p->obligations) out.push_back(&o);
  }
  return out;
}

// --- the injector itself ---------------------------------------------------

TEST_F(FaultInjection, PlanParsing) {
  FaultInjector& inj = FaultInjector::instance();
  std::string err;
  EXPECT_TRUE(inj.arm("lia.pivot:2:throw", &err)) << err;
  EXPECT_TRUE(inj.arm("cs.expand:1:cancel", &err)) << err;
  EXPECT_TRUE(inj.arm("replay.step:7:delay", &err)) << err;
  EXPECT_TRUE(FaultInjector::armed());

  EXPECT_FALSE(inj.arm("bogus.site:1:throw", &err));
  EXPECT_NE(err.find("unknown fault site"), std::string::npos) << err;
  EXPECT_NE(err.find("lia.pivot"), std::string::npos)
      << "error should list the known sites: " << err;
  EXPECT_FALSE(inj.arm("lia.pivot:0:throw", &err));
  EXPECT_FALSE(inj.arm("lia.pivot:x:throw", &err));
  EXPECT_FALSE(inj.arm("lia.pivot:1:explode", &err));
  EXPECT_NE(err.find("abort"), std::string::npos)
      << "bad-action error should list abort: " << err;
  EXPECT_FALSE(inj.arm("lia.pivot:1", &err));
  EXPECT_FALSE(inj.arm("", &err));
}

// The abort action (SIGKILL at the site — the crash-resume harness's
// trigger) parses through the same SITE:N:ACTION grammar. Only parsing is
// tested here: firing it would kill the test runner; the fork-based
// crash_resume_test exercises the kill itself.
TEST_F(FaultInjection, AbortActionParses) {
  FaultInjector& inj = FaultInjector::instance();
  std::string err;
  EXPECT_TRUE(inj.arm("schema.encode:40:abort", &err)) << err;
  EXPECT_TRUE(FaultInjector::armed());
  // Hits below the threshold are harmless no-ops, like every action.
  util::fault_point("schema.encode");
  EXPECT_EQ(inj.hits("schema.encode"), 1);
}

TEST_F(FaultInjection, SitesListsEveryCompiledFaultPoint) {
  const std::vector<std::string>& sites = FaultInjector::sites();
  for (const char* s : {"lia.pivot", "schema.encode", "schema.unit_adopt",
                        "cs.expand", "replay.step"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), s), sites.end()) << s;
  }
}

TEST_F(FaultInjection, FiresExactlyOnceOnTheNthHit) {
  FaultInjector& inj = FaultInjector::instance();
  inj.arm("cs.expand", 3, util::FaultAction::kThrow);
  util::fault_point("cs.expand");
  util::fault_point("cs.expand");
  EXPECT_THROW(util::fault_point("cs.expand"), util::InjectedFault);
  // Later hits of the same site must NOT fire again.
  util::fault_point("cs.expand");
  util::fault_point("cs.expand");
  EXPECT_EQ(inj.hits("cs.expand"), 5);
  // Unrelated sites are unaffected by the armed plan.
  util::fault_point("lia.pivot");
  EXPECT_EQ(inj.hits("lia.pivot"), 1);
}

TEST_F(FaultInjection, ResetDisarmsAndZeroes) {
  FaultInjector& inj = FaultInjector::instance();
  inj.arm("lia.pivot", 1, util::FaultAction::kCancel);
  EXPECT_THROW(util::fault_point("lia.pivot"), util::Cancelled);
  inj.reset();
  EXPECT_FALSE(FaultInjector::armed());
  util::fault_point("lia.pivot");  // disabled: no count, no action
  EXPECT_EQ(inj.hits("lia.pivot"), 0);
}

TEST_F(FaultInjection, InjectedFaultCarriesTheSite) {
  FaultInjector& inj = FaultInjector::instance();
  inj.arm("schema.encode", 1, util::FaultAction::kThrow);
  try {
    util::fault_point("schema.encode");
    FAIL() << "expected InjectedFault";
  } catch (const util::InjectedFault& f) {
    EXPECT_EQ(f.site(), "schema.encode");
    EXPECT_NE(std::string(f.what()).find("schema.encode"),
              std::string::npos);
  }
}

// --- containment under races ----------------------------------------------
//
// CC85a fully verifies at the defaults and has both parametric checks and
// the C1/C2' sweeps, so one run exercises mid-enumeration (schema.encode)
// and mid-sweep (cs.expand) injection. The contract under test: exactly one
// obligation reports the injected error, and every OTHER obligation's
// report fields match the clean run's — at every (jobs, workers) width.

void expect_field_equal(const Obligation& got, const Obligation& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.holds, want.holds) << got.name;
  EXPECT_EQ(got.parametric, want.parametric) << got.name;
  EXPECT_EQ(got.complete, want.complete) << got.name;
  EXPECT_EQ(got.nschemas, want.nschemas) << got.name;
  EXPECT_EQ(got.nqueries, want.nqueries) << got.name;
  EXPECT_EQ(got.ce, want.ce) << got.name;
  EXPECT_EQ(got.detail, want.detail) << got.name;
  EXPECT_FALSE(got.error.has_value()) << got.name;
}

void check_containment(const std::string& site, const ProtocolReport& clean) {
  for (int jobs : {1, 2, 8}) {
    for (int workers : {1, 2, 8}) {
      SCOPED_TRACE(site + " jobs=" + std::to_string(jobs) +
                   " workers=" + std::to_string(workers));
      FaultInjector::instance().reset();
      std::string err;
      ASSERT_TRUE(FaultInjector::instance().arm(site + ":1:throw", &err))
          << err;
      verify::Options opts = fast_options();
      opts.jobs = jobs;
      opts.schema.workers = workers;
      ProtocolReport r = verify::verify_protocol(builtin("CC85a"), opts);

      std::vector<const Obligation*> got = all_obligations(r);
      std::vector<const Obligation*> want = all_obligations(clean);
      ASSERT_EQ(got.size(), want.size());
      int errored = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i]->error) {
          ++errored;
          EXPECT_EQ(got[i]->error->kind, "injected-fault");
          EXPECT_EQ(got[i]->error->site, site);
          EXPECT_EQ(got[i]->run_state, Obligation::RunState::kError);
          EXPECT_FALSE(got[i]->holds);
          EXPECT_FALSE(got[i]->complete);
        } else {
          // Unaffected sibling: field-identical to the clean run.
          expect_field_equal(*got[i], *want[i]);
        }
      }
      // The count-th hit fires exactly once, so exactly one obligation
      // absorbs the fault — no matter how many tasks race the site.
      EXPECT_EQ(errored, 1);
    }
  }
}

TEST_F(FaultInjection, MidEnumerationThrowIsContainedAcrossTheMatrix) {
  ProtocolReport clean =
      verify::verify_protocol(builtin("CC85a"), fast_options());
  ASSERT_TRUE(clean.agreement.holds() && clean.validity.holds() &&
              clean.termination.holds());
  check_containment("schema.encode", clean);
}

TEST_F(FaultInjection, MidSweepThrowIsContainedAcrossTheMatrix) {
  ProtocolReport clean =
      verify::verify_protocol(builtin("CC85a"), fast_options());
  check_containment("cs.expand", clean);
}

TEST_F(FaultInjection, UnitAdoptionThrowIsContained) {
  // schema.unit_adopt only fires when a worker adopts a subtree unit.
  std::string err;
  ASSERT_TRUE(
      FaultInjector::instance().arm("schema.unit_adopt:1:throw", &err))
      << err;
  verify::Options opts = fast_options();
  opts.schema.workers = 2;
  ProtocolReport r = verify::verify_protocol(builtin("CC85a"), opts);
  int errored = 0;
  for (const Obligation* o : all_obligations(r)) {
    if (o->error) {
      ++errored;
      EXPECT_EQ(o->error->site, "schema.unit_adopt");
    }
  }
  EXPECT_EQ(errored, 1);
}

TEST_F(FaultInjection, InjectedCancelNeverFlipsAVerdict) {
  // A Cancelled escaping a unit must degrade to inconclusive — claiming
  // "complete" over an unexplored subtree would be unsound, and claiming a
  // counterexample would be a flipped verdict.
  ProtocolReport clean =
      verify::verify_protocol(builtin("CC85a"), fast_options());
  for (const std::string site :
       {"lia.pivot", "schema.encode", "cs.expand"}) {
    SCOPED_TRACE(site);
    FaultInjector::instance().reset();
    std::string err;
    ASSERT_TRUE(FaultInjector::instance().arm(site + ":1:cancel", &err))
        << err;
    ProtocolReport r =
        verify::verify_protocol(builtin("CC85a"), fast_options());
    std::vector<const Obligation*> got = all_obligations(r);
    std::vector<const Obligation*> want = all_obligations(clean);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_FALSE(got[i]->error.has_value()) << got[i]->name;
      // Either untouched, or inconclusive (never a refutation: CC85a has
      // no real counterexample for the injection to fabricate).
      if (got[i]->holds) {
        EXPECT_EQ(got[i]->holds, want[i]->holds);
      } else {
        EXPECT_TRUE(got[i]->ce.empty()) << got[i]->name;
        EXPECT_FALSE(got[i]->complete) << got[i]->name;
      }
    }
  }
}

TEST_F(FaultInjection, DelayActionIsByteNeutral) {
  std::string err;
  ASSERT_TRUE(FaultInjector::instance().arm("lia.pivot:1:delay", &err))
      << err;
  ProtocolReport r =
      verify::verify_protocol(builtin("CC85a"), fast_options());
  FaultInjector::instance().reset();
  ProtocolReport clean =
      verify::verify_protocol(builtin("CC85a"), fast_options());
  std::vector<const Obligation*> got = all_obligations(r);
  std::vector<const Obligation*> want = all_obligations(clean);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_field_equal(*got[i], *want[i]);
  }
}

// --- resource watchdogs ----------------------------------------------------

TEST_F(FaultInjection, RssGuardTripsTheBudgetWithReasonMemory) {
  // Deterministic unit-level check: the guard is throttled to 1/256 of the
  // exhaustion polls, so with a 1 MiB cap (below any realistic RSS) the
  // 256th poll must trip it.
  schema::SharedBudget budget(1'000'000, 120.0, /*max_rss_mb=*/1);
  for (int i = 0; i < 255; ++i) {
    ASSERT_FALSE(budget.exhausted()) << "poll " << i;
  }
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.reason(), schema::SharedBudget::CutReason::kMemory);
  EXPECT_STREQ(budget.reason_str(), "memory");
}

TEST_F(FaultInjection, RssWatchdogCutsTheRunToInconclusiveReasonMemory) {
  // End-to-end: the serial CC85a run makes well over 256 budget polls, so
  // a 1 MiB cap cuts it partway through. Completed-before-the-trip
  // obligations keep their verdicts; everything else degrades to
  // inconclusive attributed to "memory" — never an abort, never a
  // fabricated verdict.
  verify::Options opts = fast_options();
  opts.jobs = 1;
  opts.schema.max_rss_mb = 1;
  ProtocolReport r = verify::verify_protocol(builtin("CC85a"), opts);
  EXPECT_FALSE(r.agreement.holds() && r.validity.holds() &&
               r.termination.holds());
  bool saw_memory = false;
  for (const Obligation* o : all_obligations(r)) {
    EXPECT_FALSE(o->error.has_value()) << o->name;
    if (!o->complete) {
      EXPECT_TRUE(o->ce.empty()) << o->name;
      EXPECT_EQ(o->cut_reason, "memory") << o->name;
      saw_memory = true;
    }
  }
  EXPECT_TRUE(saw_memory);
}

TEST_F(FaultInjection, HugeRssCapSaturatesInsteadOfWrapping) {
  // 2^44 + 1 MiB is past the largest byte count a long long holds. The cap
  // must saturate there, not wrap around to 1 MiB and cut the run: CC85a
  // renders exactly as it does uncapped, with no cut reason anywhere.
  verify::Options opts = fast_options();
  opts.jobs = 1;
  ProtocolReport plain = verify::verify_protocol(builtin("CC85a"), opts);
  opts.schema.max_rss_mb = 17'592'186'044'417;
  ProtocolReport capped = verify::verify_protocol(builtin("CC85a"), opts);
  std::vector<const Obligation*> got = all_obligations(capped);
  std::vector<const Obligation*> want = all_obligations(plain);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_field_equal(*got[i], *want[i]);
    EXPECT_EQ(got[i]->cut_reason, "") << got[i]->name;
  }
}

TEST_F(FaultInjection, HugeTimeoutsSaturateInsteadOfWrapping) {
  // 1e10 s is past the nanoseconds a steady-clock duration holds. The shared
  // budget's time limit and the per-obligation deadline must saturate
  // there, not wrap into the past and cut every obligation with reason
  // "time" or "obligation-timeout": CC85a renders exactly as it does
  // without either limit.
  verify::Options opts = fast_options();
  opts.jobs = 1;
  const std::string plain =
      verify::report_text(verify::verify_protocol(builtin("CC85a"), opts));
  opts.schema.time_budget_s = 1e10;
  opts.obligation_timeout_s = 1e10;
  EXPECT_EQ(
      verify::report_text(verify::verify_protocol(builtin("CC85a"), opts)),
      plain);
  schema::SharedBudget budget(1, 1e10);
  EXPECT_FALSE(budget.exhausted());
}

TEST_F(FaultInjection, ObligationTimeoutCutsWithoutTouchingTheBudget) {
  verify::Options opts = fast_options();
  opts.obligation_timeout_s = 1e-9;  // expired the moment each task starts
  ProtocolReport r = verify::verify_protocol(builtin("CC85a"), opts);
  bool saw_timeout = false;
  for (const Obligation* o : all_obligations(r)) {
    EXPECT_FALSE(o->error.has_value()) << o->name;
    if (!o->complete) {
      EXPECT_EQ(o->cut_reason, "obligation-timeout") << o->name;
      EXPECT_TRUE(o->ce.empty()) << o->name;
      saw_timeout = true;
    }
  }
  // The parametric obligations poll the deadline before every unit, so at
  // least one of them must have been cut.
  EXPECT_TRUE(saw_timeout);
  EXPECT_FALSE(r.agreement.holds() && r.validity.holds() &&
               r.termination.holds());
}

// --- interrupt flag --------------------------------------------------------

TEST_F(FaultInjection, InterruptTripsTheBudgetWithReasonInterrupt) {
  schema::SharedBudget budget(1000, 120.0);
  EXPECT_FALSE(budget.exhausted());
  util::request_interrupt();
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.reason(), schema::SharedBudget::CutReason::kInterrupt);
  EXPECT_STREQ(budget.reason_str(), "interrupt");
  util::clear_interrupt();
  // The trip is sticky: the budget's token stays cancelled.
  EXPECT_TRUE(budget.exhausted());
}

TEST_F(FaultInjection, InterruptedRunFlushesAPartialReport) {
  util::request_interrupt();
  ProtocolReport r =
      verify::verify_protocol(builtin("CC85a"), fast_options());
  // Every obligation degrades like a budget cut; nothing throws, nothing
  // claims a verdict it did not earn.
  for (const Obligation* o : all_obligations(r)) {
    EXPECT_FALSE(o->error.has_value()) << o->name;
    EXPECT_FALSE(o->complete) << o->name;
    EXPECT_TRUE(o->ce.empty()) << o->name;
    EXPECT_EQ(o->cut_reason, "interrupt") << o->name;
  }
}

// --- error taxonomy & report faces ----------------------------------------

TEST_F(FaultInjection, Table2RowShowsTheErrorFace) {
  std::string err;
  ASSERT_TRUE(
      FaultInjector::instance().arm("schema.encode:1:throw", &err))
      << err;
  ProtocolReport r =
      verify::verify_protocol(builtin("CC85a"), fast_options());
  std::string row = verify::table2_row(r);
  EXPECT_NE(row.find("ERROR (1 contained)"), std::string::npos) << row;
  EXPECT_EQ(row.find("verified"), std::string::npos) << row;
  EXPECT_TRUE(r.agreement.has_error() || r.validity.has_error() ||
              r.termination.has_error());
}

TEST_F(FaultInjection, ErroredObligationIsNeverAProofOrRefutation) {
  std::string err;
  ASSERT_TRUE(FaultInjector::instance().arm("cs.expand:1:throw", &err))
      << err;
  ProtocolReport r =
      verify::verify_protocol(builtin("CC85a"), fast_options());
  for (const Obligation* o : all_obligations(r)) {
    if (!o->error) continue;
    EXPECT_FALSE(o->holds);
    EXPECT_FALSE(o->complete);
    EXPECT_TRUE(o->ce.empty());
    EXPECT_NE(o->detail.find("=ERROR"), std::string::npos)
        << "sweep detail should tag the errored instance: " << o->detail;
  }
}

}  // namespace
}  // namespace ctaver
