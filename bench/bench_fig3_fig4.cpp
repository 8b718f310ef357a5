// Regenerates Fig. 3 (threshold automaton for naive voting), Fig. 4 (the
// multi-round MMR14 automaton and its common-coin automaton) and Table I
// (the MMR14 rule table): structural statistics, the rule table, and
// Graphviz dot renderings.
#include <iostream>

#include "frontend/registry.h"
#include "ta/transforms.h"

namespace {

void print_rules(const ctaver::ta::System& sys) {
  using namespace ctaver;
  for (const ta::Automaton* a : {&sys.process, &sys.coin}) {
    for (const ta::Rule& r : a->rules) {
      std::cout << "  " << r.name << ": "
                << a->locations[static_cast<std::size_t>(r.from)].name
                << " -> ";
      for (const auto& [to, p] : r.to.outcomes) {
        std::cout << a->locations[static_cast<std::size_t>(to)].name;
        if (!r.to.is_dirac()) std::cout << "(" << p.str() << ")";
        std::cout << " ";
      }
      std::cout << "| guard: ";
      if (r.guards.empty()) {
        std::cout << "true";
      } else {
        for (std::size_t i = 0; i < r.guards.size(); ++i) {
          if (i > 0) std::cout << " && ";
          std::cout << r.guards[i].str(sys.vars, sys.env.params);
        }
      }
      std::cout << " | update: ";
      bool any = false;
      for (ta::VarId v = 0; v < static_cast<ta::VarId>(sys.vars.size());
           ++v) {
        if (r.update_of(v) > 0) {
          std::cout << sys.vars[static_cast<std::size_t>(v)].name << "++ ";
          any = true;
        }
      }
      if (!any) std::cout << "-";
      std::cout << "\n";
    }
  }
}

}  // namespace

int main() {
  using namespace ctaver;

  const frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  protocols::ProtocolModel nv = registry.make("NaiveVoting");
  std::cout << "=== Fig. 3: threshold automaton for naive voting ===\n";
  std::cout << "|L| = " << nv.system.total_locations()
            << "  |R| = " << nv.system.total_rules() << "\n";
  print_rules(nv.system);
  std::cout << "\n--- dot ---\n" << ta::to_dot(nv.system) << "\n";

  protocols::ProtocolModel m = registry.make("MMR14");
  std::cout << "=== Fig. 4 / Table I: multi-round MMR14 + common coin ===\n";
  std::cout << "|L| = " << m.system.total_locations()
            << "  |R| = " << m.system.total_rules() << "\n";
  print_rules(m.system);
  std::cout << "\n--- dot ---\n" << ta::to_dot(m.system) << "\n";
  return 0;
}
