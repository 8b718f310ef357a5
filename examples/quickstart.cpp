// Quickstart: model a protocol as a threshold automaton, run the parametric
// checker, and read the verdicts.
//
// We model the naive voting protocol of the paper's Fig. 2/3 — decide v
// after seeing (n+1)/2 votes for v — and check agreement and validity for
// *all* admissible parameters at once. With Byzantine faults admitted
// (n > 2f), agreement breaks and the checker produces a concrete
// counterexample; with f = 0 it verifies.
#include <iostream>

#include "frontend/registry.h"
#include "schema/checker.h"
#include "spec/spec.h"
#include "ta/transforms.h"

int main() {
  using namespace ctaver;

  // 1. A protocol model, lowered from specs/naive_voting.cta (see that file
  //    for its locations, threshold guards and rules).
  protocols::ProtocolModel pm = frontend::ProtocolRegistry::with_builtins().make("NaiveVoting");
  std::cout << "Protocol " << pm.system.name << ": "
            << pm.system.total_locations() << " locations, "
            << pm.system.total_rules() << " rules\n";

  // 2. Reduce to the single-round system (Def. 3; and Def. 1 if the model
  //    had probabilistic coin rules).
  ta::System rd = ta::single_round(ta::nonprobabilistic(pm.system));

  // 3. Check the round invariants underlying Agreement and Validity.
  for (int v : {0, 1}) {
    spec::Spec inv1 = spec::inv1(rd, v);
    schema::CheckResult res = schema::check_spec(rd, inv1);
    std::cout << inv1.str(rd) << "\n  -> "
              << (res.holds ? "verified" : "counterexample") << " ("
              << res.nschemas << " schemas, " << res.seconds << "s)\n";
    if (res.ce) {
      std::cout << "  milestones:";
      for (const std::string& m : res.ce->milestones) std::cout << " [" << m << "]";
      std::cout << "\n  " << res.ce->text << "\n";
    }
  }
  for (int v : {0, 1}) {
    spec::Spec inv2 = spec::inv2(rd, v);
    schema::CheckResult res = schema::check_spec(rd, inv2);
    std::cout << inv2.str(rd) << "\n  -> "
              << (res.holds ? "verified" : "counterexample") << "\n";
  }

  std::cout << "\nAgreement fails because one Byzantine vote can complete "
               "both majorities;\nre-run with f = 0 (see "
               "tests/schema_checker_test.cpp) and it verifies.\n";
  return 0;
}
