#include "protocols/protocols.h"

#include "ta/transforms.h"

namespace ctaver::protocols {

ta::System ProtocolModel::refined() const {
  if (mbot_rule.empty()) return system;
  return ta::refine_binding(system, mbot_rule, m0, m1);
}

const char* category_str(Category c) {
  return c == Category::kA ? "(A)" : c == Category::kB ? "(B)" : "(C)";
}

std::vector<std::string> obligation_names(Category c) {
  // Must mirror the report order of verify::verify_protocol (agreement,
  // validity, termination obligations, each in planning order);
  // replay_test.ObligationNamesMatchThePlannedReports pins the two together.
  std::vector<std::string> names = {"Inv1(v=0)", "Inv1(v=1)", "Inv2(v=0)",
                                    "Inv2(v=1)"};
  switch (c) {
    case Category::kA:
      names.insert(names.end(), {"C2(v=0)", "C2(v=1)", "C1"});
      break;
    case Category::kB:
      names.insert(names.end(), {"C1", "C2'"});
      break;
    case Category::kC:
      names.insert(names.end(), {"CB0", "CB1", "CB2", "CB3", "CB4", "C2'"});
      break;
  }
  return names;
}

}  // namespace ctaver::protocols
