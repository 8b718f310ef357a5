// Regenerates Table III: the LTL-X formulas checked for value 0, printed in
// the paper's EX/ALL shorthand for a representative category-(B) protocol
// (CC85a) and the refined category-(C) model (MMR14).
#include <iostream>

#include "frontend/registry.h"
#include "spec/spec.h"
#include "ta/transforms.h"

int main() {
  using namespace ctaver;

  std::cout << "Table III: properties checked for value 0\n\n";

  const frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  protocols::ProtocolModel b = registry.make("CC85a");
  ta::System rd = ta::single_round(ta::nonprobabilistic(b.system));
  std::cout << "[" << b.name << "]\n";
  std::cout << "  " << spec::inv1(rd, 0).str(rd) << "\n";
  std::cout << "  " << spec::inv2(rd, 0).str(rd) << "\n";
  std::cout << "  " << spec::c2(rd, 0).str(rd) << "\n";

  protocols::ProtocolModel c = registry.make("MMR14");
  ta::System rdr = ta::single_round(ta::nonprobabilistic(c.refined()));
  std::cout << "[" << c.name << " refined]\n";
  const char* names[] = {"CB0", "CB1", "CB2", "CB3"};
  const std::pair<const char*, const char*> args[] = {
      {"M0", "M1"}, {"M1", "M0"}, {"N0", "M1"}, {"N1", "M0"}};
  for (int i = 0; i < 4; ++i) {
    std::cout << "  "
              << spec::binding(rdr, names[i], args[i].first, args[i].second)
                     .str(rdr)
              << "\n";
  }
  spec::Spec cb4 = spec::binding(rdr, "CB4", "Nbot", "M0");
  cb4.conclusion = spec::LocSet::process(
      {rdr.process.find_loc("M0"), rdr.process.find_loc("M1")});
  std::cout << "  " << cb4.str(rdr) << "\n";
  std::cout << "\n(C1)/(C2') are discharged per Lemma 2 as forall-adversary"
               " exists-path games on explicit instances.\n";
  return 0;
}
