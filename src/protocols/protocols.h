// The paper's benchmark: threshold-automata models of eight randomized
// consensus protocols with common coins (Sect. VI), plus the naive-voting
// warm-up of Fig. 2/3. The models themselves are the specs/*.cta files,
// which frontend::ProtocolRegistry::with_builtins() loads; this header holds
// what a lowered model carries.
//
// Every model follows the paper's conventions:
//   * shared variables count messages sent by *correct* processes;
//     Byzantine influence is folded into guards as ±f slack;
//   * the common coin is a separate probabilistic automaton (Fig. 4b):
//     border J2 → I2 → fair toss → C0/C1, publishing cc0/cc1;
//   * processes are modeled n−f at a time; N = (n−f, 1).
//
// Category (Sect. V-B):
//   (A) no decide action                        — Rabin83
//   (B) decide, binary-valued messages          — CC85(a), CC85(b), FMR05,
//                                                 KS16
//   (C) decide via binary crusader agreement    — MMR14 (attackable!),
//                                                 Miller18, ABY22
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ta/model.h"

namespace ctaver::protocols {

enum class Category { kA, kB, kC };

/// "(A)", "(B)" or "(C)", as reports and `ctaver list` print it.
const char* category_str(Category c);

/// One spec-declared expected verdict for a proof obligation (`expect CB2
/// violated;` in a .cta file). `obligation` is the canonical pipeline name
/// — one of obligation_names(category).
struct ExpectedVerdict {
  std::string obligation;
  bool violated = false;
};

/// Spec-declared attack-schedule sketch: which scripted adversary to run
/// against which executable protocol semantics (src/sim), on what system,
/// and what the run is expected to do. This is what replaced the
/// hand-hardcoded MMR14/Miller18 driver: the sketch in the .cta file drives
/// sim::run_attack.
struct AttackSketch {
  std::string script;     // adversary script family, e.g. "split_vote"
  std::string simulator;  // executable semantics: mmr14 | miller18 | aby22
  int n = 0;              // total processes (correct + Byzantine)
  int t = 0;              // fault threshold
  std::vector<int> inputs;  // correct-process inputs; ids beyond are Byzantine
  int rounds = 8;           // adversary rounds to script
  std::uint64_t seed = 7;   // common-coin seed
  bool expect_decision = false;  // expected outcome of the run
};

/// A protocol model plus the metadata the verification pipeline needs.
struct ProtocolModel {
  std::string name;
  Category category = Category::kB;
  ta::System system;  // multi-round, probabilistic

  /// Category (C): name of the single M⊥-entry rule to refine per Fig. 6
  /// (empty when the model is built pre-refined with N0/N1/N⊥ baked in),
  /// plus the message-count variables m0/m1 used by the refinement.
  std::string mbot_rule;
  ta::VarId m0 = -1;
  ta::VarId m1 = -1;

  /// Location names of the crusader-agreement output (category C).
  std::string m0_loc, m1_loc, mbot_loc;
  /// Location names of the refinement split (category C).
  std::string n0_loc, n1_loc, nbot_loc;

  /// Parameter valuations for the explicit-instance sweeps used to check
  /// the probabilistic conditions (C1)/(C2′); each must satisfy RC.
  std::vector<std::vector<long long>> sweep_params;

  /// Spec-declared expected verdicts (from a .cta file's `expect` block;
  /// empty for a model built in code), in declaration order.
  std::vector<ExpectedVerdict> expects;
  /// Spec-declared attack-schedule sketch, if any.
  std::optional<AttackSketch> attack;

  /// Returns the system with the Fig.-6 refinement applied (identity for
  /// models built pre-refined and for categories A/B).
  [[nodiscard]] ta::System refined() const;
};

/// Canonical names of the proof obligations the verification pipeline
/// discharges for a protocol of category `c`, in report order (sweep-based
/// obligations — C1/C2' — included). This is the vocabulary `expect` blocks
/// declare verdicts against; verify_pipeline_test pins the pipeline's
/// reports to this list.
std::vector<std::string> obligation_names(Category c);

}  // namespace ctaver::protocols
