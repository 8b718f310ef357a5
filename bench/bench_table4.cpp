// Regenerates Table IV: maximum numbers of schemas for ABY22 variants of
// identical size but decreasing milestone counts. Following the paper, the
// variants merge threshold guards (semantics need not be preserved — the
// study measures how the raw schema enumeration scales with milestones).
#include <iostream>

#include "frontend/registry.h"
#include "schema/checker.h"
#include "schema/guards.h"
#include "spec/spec.h"
#include "ta/transforms.h"
#include "util/strings.h"

namespace {

using namespace ctaver;

/// Collects the distinct guards of the system in first-use order.
std::vector<ta::Guard> distinct_guards(const ta::System& sys) {
  std::vector<ta::Guard> out;
  for (const ta::Automaton* a : {&sys.process, &sys.coin}) {
    for (const ta::Rule& r : a->rules) {
      for (const ta::Guard& g : r.guards) {
        if (g.lhs.empty()) continue;
        bool seen = false;
        for (const ta::Guard& h : out) seen |= h == g;
        if (!seen) out.push_back(g);
      }
    }
  }
  return out;
}

/// Variant k: the last k mergeable (non-coin) guards are replaced by the
/// first non-coin guard everywhere, reducing the milestone count by k while
/// keeping |L| and |R| unchanged.
ta::System merged_variant(const ta::System& base, int merges) {
  ta::System sys = base;
  std::vector<ta::Guard> guards = distinct_guards(sys);
  std::vector<ta::Guard> mergeable;
  for (const ta::Guard& g : guards) {
    if (!sys.is_coin_guard(g) && g.rel == ta::GuardRel::kGe) {
      mergeable.push_back(g);
    }
  }
  if (merges >= static_cast<int>(mergeable.size())) {
    merges = static_cast<int>(mergeable.size()) - 1;
  }
  const ta::Guard& target = mergeable.front();
  for (int k = 0; k < merges; ++k) {
    const ta::Guard& victim = mergeable[mergeable.size() - 1 -
                                        static_cast<std::size_t>(k)];
    for (ta::Automaton* a : {&sys.process, &sys.coin}) {
      for (ta::Rule& r : a->rules) {
        for (ta::Guard& g : r.guards) {
          if (g == victim) g = target;
        }
      }
    }
  }
  sys.name = base.name;
  if (merges > 0) {
    sys.name += '-';
    sys.name += std::to_string(merges);
  }
  return sys;
}

}  // namespace

int main() {
  std::cout << "Table IV: max schema counts for ABY22 variants with "
               "different milestone counts\n"
            << "(raw enumeration, no pruning)\n\n";
  std::cout << util::pad_right("Name", 10) << util::pad_right("Formula", 9)
            << util::pad_left("nmilestones", 12)
            << util::pad_left("max-nschemas", 16) << "\n";

  protocols::ProtocolModel pm = frontend::ProtocolRegistry::with_builtins().make("ABY22");
  ta::System refined = pm.refined();
  constexpr long long kCap = 4'000'000'000LL;

  // The base refined model has more distinct guards than the paper's ABY22
  // encoding; merge down to the paper's milestone range (10..6).
  int base_milestones = schema::count_milestones(
      ta::single_round(ta::nonprobabilistic(refined)), /*prune=*/false);

  for (const char* formula : {"CB0", "Inv2"}) {
    for (int target : {10, 9, 8, 7, 6}) {
      int merges = base_milestones - target;
      if (merges < 0) merges = 0;
      ta::System variant = merged_variant(refined, merges);
      variant.name = "ABY22@" + std::to_string(target);
      ta::System rd = ta::single_round(ta::nonprobabilistic(variant));
      spec::Spec s;
      if (std::string(formula) == "CB0") {
        s = spec::binding(rd, "CB0", pm.m0_loc, pm.m1_loc);
      } else {
        s = spec::inv2(rd, 0);
      }
      int milestones = schema::count_milestones(rd, /*prune=*/false);
      long long max_schemas =
          schema::count_schemas(rd, s, /*prune=*/false, kCap);
      std::cout << util::pad_right(variant.name, 10)
                << util::pad_right(formula, 9)
                << util::pad_left(std::to_string(milestones), 12)
                << util::pad_left(max_schemas >= kCap
                                      ? std::string("> 4*10^9")
                                      : std::to_string(max_schemas),
                                  16)
                << "\n";
    }
  }
  std::cout << "\n(The pruned enumeration the checker actually runs is "
               "orders of magnitude smaller; see bench_table2.)\n";
  return 0;
}
