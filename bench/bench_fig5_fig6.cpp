// Regenerates Fig. 5 (the common crusader-agreement part of category-(C)
// automata: M0/M1/M⊥ plus the six coin-based rules into E/D finals) and
// Fig. 6 (the N0/N1/N⊥ binding refinement), shown on MMR14 before and
// after ta::refine_binding, plus the built-in refinements of Miller18 and
// ABY22.
#include <iostream>

#include "frontend/registry.h"
#include "ta/transforms.h"

namespace {

void print_common_part(const ctaver::ta::System& sys,
                       const std::vector<std::string>& locs) {
  using namespace ctaver;
  const ta::Automaton& a = sys.process;
  std::vector<ta::LocId> ids;
  for (const std::string& name : locs) ids.push_back(a.find_loc(name));
  for (const ta::Rule& r : a.rules) {
    bool relevant = false;
    for (ta::LocId l : ids) {
      if (r.from == l || r.to.dirac_target() == l) relevant = true;
    }
    if (!relevant) continue;
    std::cout << "  " << r.name << ": "
              << a.locations[static_cast<std::size_t>(r.from)].name << " -> "
              << a.locations[static_cast<std::size_t>(r.to.dirac_target())]
                     .name
              << "  [";
    if (r.guards.empty()) {
      std::cout << "true";
    } else {
      for (std::size_t i = 0; i < r.guards.size(); ++i) {
        if (i > 0) std::cout << " && ";
        std::cout << r.guards[i].str(sys.vars, sys.env.params);
      }
    }
    std::cout << "]\n";
  }
}

}  // namespace

int main() {
  using namespace ctaver;

  const frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  protocols::ProtocolModel m = registry.make("MMR14");
  std::cout << "=== Fig. 5: common part (MMR14, before refinement) ===\n";
  print_common_part(m.system, {"M0", "M1", "Mbot", "E0", "E1", "D0", "D1"});

  ta::System refined = m.refined();
  std::cout << "\n=== Fig. 6: refined model (MMR14 + N0/N1/Nbot) ===\n";
  print_common_part(refined,
                    {"N0", "N1", "Nbot", "M0", "M1", "Mbot", "E0", "E1",
                     "D0", "D1"});
  std::cout << "\n--- dot (refined) ---\n" << ta::to_dot(refined) << "\n";

  for (const char* name : {"Miller18", "ABY22"}) {
    protocols::ProtocolModel pm = registry.make(name);
    std::cout << "=== built-in refinement: " << pm.name << " ===\n";
    print_common_part(pm.system, {pm.n0_loc, pm.n1_loc, pm.nbot_loc,
                                  pm.m0_loc, pm.m1_loc, pm.mbot_loc});
    std::cout << "\n";
  }
  return 0;
}
