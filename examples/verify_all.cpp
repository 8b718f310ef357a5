// Example: run the full verification pipeline on the paper's benchmark of
// eight common-coin randomized consensus protocols and print a Table-II
// style summary. MMR14 is expected to fail the binding condition (CB2) with
// a concrete counterexample reproducing the adaptive-adversary attack.
//
// Usage: verify_all [--fast]
//   --fast  lower schema budgets (for smoke tests)
#include <cstring>
#include <iostream>
#include <string>

#include "frontend/registry.h"
#include "verify/pipeline.h"

int main(int argc, char** argv) {
  using namespace ctaver;

  verify::Options opts;
  opts.schema.time_budget_s = 600.0;
  opts.schema.max_schemas = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      opts.schema.time_budget_s = 60.0;
      opts.schema.max_schemas = 200'000;
    }
  }

  std::cout << verify::table2_header() << "\n";
  const frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  for (const std::string& name : registry.names()) {
    if (name == "NaiveVoting") continue;  // the warm-up, not a Table-II row
    verify::ProtocolReport report =
        verify::verify_protocol(registry.make(name), opts);
    std::cout << verify::table2_row(report) << "\n";
    std::string fail = report.termination.failure();
    if (!fail.empty()) {
      std::cout << "    attack found -> " << fail << "\n";
    }
    std::cout.flush();
  }
  return 0;
}
