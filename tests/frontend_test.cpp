// Tests for the .cta front-end (src/frontend): lexer/parser behavior, the
// semantic error paths of the lowering pass (every malformed input must
// produce a positioned diagnostic, never a crash), and the protocol
// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "frontend/lower.h"
#include "frontend/parser.h"
#include "frontend/registry.h"

namespace ctaver::frontend {
namespace {

/// A minimal spec that passes both lowering and ta::validate.
const char* kMiniSpec = R"(
protocol Mini {
  category B;
  parameters n, f;
  resilience n > 2*f;
  resilience f >= 0;
  counts processes = n - f, coins = 0;
  shared v0, v1;
  process {
    border J0 : 0;
    border J1 : 1;
    initial I0 : 0;
    initial I1 : 1;
    internal S;
    final D0 : 0 decides;
    final D1 : 1 decides;
    entry J0 -> I0;
    entry J1 -> I1;
    rule r1: I0 -> S do v0 += 1;
    rule r2: I1 -> S do v1 += 1;
    rule r3: S -> D0 when 2*v0 >= n - 2*f + 1;
    rule r4: S -> D1 when 2*v1 >= n - 2*f + 1;
    switch D0 -> J0;
    switch D1 -> J1;
  }
  sweep (3, 0), (4, 1);
}
)";

std::vector<Diagnostic> diags_of(const std::string& text) {
  try {
    load_spec_string(text, "test.cta");
  } catch (const ParseError& e) {
    EXPECT_FALSE(e.diagnostics().empty());
    return e.diagnostics();
  }
  ADD_FAILURE() << "expected a ParseError";
  return {};
}

bool has_diag(const std::vector<Diagnostic>& diags, const std::string& text) {
  for (const Diagnostic& d : diags) {
    if (d.message.find(text) != std::string::npos) return true;
  }
  return false;
}

std::string all_messages(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += d.message + "\n";
  return out;
}

// --- the happy path ---------------------------------------------------------

TEST(Frontend, MinimalSpecLowers) {
  protocols::ProtocolModel pm = load_spec_string(kMiniSpec, "mini.cta");
  EXPECT_EQ(pm.name, "Mini");
  EXPECT_EQ(pm.category, protocols::Category::kB);
  EXPECT_EQ(pm.system.process.locations.size(), 7u);
  EXPECT_EQ(pm.system.process.rules.size(), 8u);
  EXPECT_TRUE(pm.system.coin.locations.empty());
  ASSERT_EQ(pm.sweep_params.size(), 2u);
  EXPECT_EQ(pm.sweep_params[0], (std::vector<long long>{3, 0}));
}

TEST(Frontend, CommentsAndPrimedIdentifiers) {
  ast::Protocol p = parse(
      "// comment\n# another\nprotocol P { process { internal S0'; } }",
      "t.cta");
  ASSERT_EQ(p.process.locs.size(), 1u);
  EXPECT_EQ(p.process.locs[0].name, "S0'");
}

// --- syntax errors ----------------------------------------------------------

TEST(Frontend, StrayCharacterIsPositioned) {
  try {
    parse("protocol P {\n  @\n}", "t.cta");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].pos.line, 2);
    EXPECT_EQ(e.diagnostics()[0].pos.col, 3);
    EXPECT_NE(std::string(e.what()).find("t.cta:2:3"), std::string::npos);
  }
}

TEST(Frontend, MissingSemicolonIsSyntaxError) {
  EXPECT_THROW(parse("protocol P { parameters n }", "t.cta"), ParseError);
}

TEST(Frontend, ZeroDenominatorThresholdFraction) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  shared v0;
  process {
    internal A;
    internal B;
    rule r: A -> B when v0 >= (n + 1)/0;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "zero denominator in threshold fraction"))
      << all_messages(diags);
}

TEST(Frontend, ParameterFractionIsRejectedWithHint) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  shared v0;
  process {
    internal A;
    internal B;
    rule r: A -> B when v0 >= (n + 1)/2;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "scale the comparison by the denominator"))
      << all_messages(diags);
}

TEST(Frontend, NonLinearProductIsRejected) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  shared v0;
  process {
    internal A;
    internal B;
    rule r: A -> B when v0 >= n*n;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "non-linear product")) << all_messages(diags);
}

// --- semantic errors (collected, positioned) --------------------------------

TEST(Frontend, MalformedGuardOperator) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  shared v0;
  process {
    internal A;
    internal B;
    rule r: A -> B when v0 > n;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "threshold guards must use '>=' or '<'"))
      << all_messages(diags);
  EXPECT_EQ(diags[0].pos.line, 10);
}

TEST(Frontend, UndeclaredSharedVariableInGuard) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  shared v0;
  process {
    internal A;
    internal B;
    rule r: A -> B when w0 >= n;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "undeclared shared variable 'w0'"))
      << all_messages(diags);
}

TEST(Frontend, UndeclaredVariableInUpdate) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  shared v0;
  process {
    internal A;
    internal B;
    rule r: A -> B do w0 += 1;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "undeclared shared variable 'w0' in update"))
      << all_messages(diags);
}

TEST(Frontend, SidesOfGuardAreChecked) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  shared v0;
  process {
    internal A;
    internal B;
    rule r: A -> B when n >= v0;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "parameter 'n' on the message-count side"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "shared variable 'v0' on the threshold side"))
      << all_messages(diags);
}

TEST(Frontend, DuplicateLocationName) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  process {
    internal A;
    internal A;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "duplicate location 'A'"))
      << all_messages(diags);
  EXPECT_EQ(diags[0].pos.line, 8);
  EXPECT_EQ(diags[0].pos.col, 5);
}

TEST(Frontend, DuplicateParameterVariableAndRule) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n, n;
  counts processes = n, coins = 0;
  shared v0, v0;
  process {
    internal A;
    internal B;
    rule r: A -> B;
    rule r: B -> A;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "duplicate parameter 'n'"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "duplicate variable 'v0'"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "duplicate rule name 'r'"))
      << all_messages(diags);
}

TEST(Frontend, UndeclaredLocationInRule) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  process {
    internal A;
    rule r: A -> Nowhere;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "undeclared location 'Nowhere'"))
      << all_messages(diags);
}

TEST(Frontend, ZeroDenominatorProbability) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 1;
  coin cc0;
  coin {
    internal A;
    internal B;
    internal C;
    rule toss: A -> 1/0: B | 1/1: C;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "zero denominator in probability fraction"))
      << all_messages(diags);
}

TEST(Frontend, ProbabilitiesMustSumToOne) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 1;
  coin {
    internal A;
    internal B;
    internal C;
    rule toss: A -> 1/2: B | 1/3: C;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "probabilities sum to 5/6"))
      << all_messages(diags);
}

TEST(Frontend, BareOutcomeInProbabilisticRule) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 1;
  coin {
    internal A;
    internal B;
    internal C;
    rule toss: A -> 1/2: B | C;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "outcome 'C' of a probabilistic rule needs"))
      << all_messages(diags);
}

TEST(Frontend, ProbabilisticProcessRuleRejected) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  process {
    internal A;
    internal B;
    internal C;
    rule r: A -> 1/2: B | 1/2: C;
  }
}
)");
  EXPECT_TRUE(has_diag(
      diags, "probabilistic rules are only allowed in the coin automaton"))
      << all_messages(diags);
}

TEST(Frontend, MissingCategoryAndCounts) {
  auto diags = diags_of("protocol P { }");
  EXPECT_TRUE(has_diag(diags, "missing a 'category"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "missing a 'counts")) << all_messages(diags);
}

TEST(Frontend, ResilienceSanityOfSweeps) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n, f;
  resilience n > 2*f;
  counts processes = n - f, coins = 0;
  process {
    internal A;
  }
  sweep (3, 0, 7), (2, 1);
}
)");
  EXPECT_TRUE(has_diag(diags, "sweep instance has 3 values for 2 parameters"))
      << all_messages(diags);
  EXPECT_TRUE(
      has_diag(diags, "does not satisfy the resilience condition"))
      << all_messages(diags);
}

TEST(Frontend, UndeclaredParameterInResilience) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  resilience n > 3*t;
  counts processes = n, coins = 0;
  process { internal A; }
}
)");
  EXPECT_TRUE(
      has_diag(diags, "undeclared parameter 't' in a resilience condition"))
      << all_messages(diags);
}

TEST(Frontend, CategoryCNeedsCrusaderBlock) {
  auto diags = diags_of(R"(
protocol P {
  category C;
  parameters n;
  counts processes = n, coins = 0;
  process { internal A; }
}
)");
  EXPECT_TRUE(has_diag(diags, "category C protocols need a 'crusader"))
      << all_messages(diags);
}

TEST(Frontend, CrusaderNamesAreResolved) {
  auto diags = diags_of(R"(
protocol P {
  category C;
  parameters n;
  counts processes = n, coins = 0;
  shared a0;
  process { internal M0; internal M1; internal Mbot; }
  crusader {
    outputs M0, M1, Missing;
    splits N0, N1, Nbot;
    counters a0, a9;
  }
}
)");
  EXPECT_TRUE(has_diag(diags, "undeclared location 'Missing' in outputs"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "undeclared location 'N0' in splits"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "undeclared shared variable 'a9' in counters"))
      << all_messages(diags);
}

TEST(Frontend, MultipleErrorsAreCollected) {
  auto diags = diags_of(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  shared v0;
  process {
    internal A;
    internal A;
    rule r: A -> B when w0 >= n;
  }
}
)");
  EXPECT_GE(diags.size(), 3u) << all_messages(diags);
}

TEST(Frontend, StructuralViolationsBecomeParseErrors) {
  // Passes lowering but breaks the round structure (border without an
  // entry rule): ta::validate's message must surface as a ParseError, not
  // as a raw std::invalid_argument.
  EXPECT_THROW(load_spec_string(R"(
protocol P {
  category B;
  parameters n;
  counts processes = n, coins = 0;
  process {
    border J0 : 0;
    internal A;
  }
}
)",
                                "t.cta"),
               ParseError);
}

// --- expect blocks ----------------------------------------------------------

/// kMiniSpec with `extra` spliced in before the protocol's closing brace.
std::string mini_with(const std::string& extra) {
  std::string text = kMiniSpec;
  std::size_t brace = text.rfind('}');
  text.insert(brace, extra + "\n");
  return text;
}

TEST(Expect, VerdictsLowerOntoTheModel) {
  protocols::ProtocolModel pm = load_spec_string(
      mini_with("expect { Inv1(v=0) violated; C1 holds; C2' holds; }"),
      "mini.cta");
  ASSERT_EQ(pm.expects.size(), 3u);
  EXPECT_EQ(pm.expects[0].obligation, "Inv1(v=0)");
  EXPECT_TRUE(pm.expects[0].violated);
  EXPECT_EQ(pm.expects[1].obligation, "C1");
  EXPECT_FALSE(pm.expects[1].violated);
  EXPECT_EQ(pm.expects[2].obligation, "C2'");
  EXPECT_FALSE(pm.attack.has_value());
}

TEST(Expect, AttackSketchLowersOntoTheModel) {
  protocols::ProtocolModel pm = load_spec_string(
      mini_with("expect { Inv1(v=0) holds;\n"
                "  attack split_vote {\n"
                "    simulator miller18;\n"
                "    system n = 5, t = 1;\n"
                "    inputs 0, 1, 0;\n"
                "    rounds 3;\n"
                "    seed 9;\n"
                "    outcome decision;\n"
                "  }\n"
                "}"),
      "mini.cta");
  ASSERT_TRUE(pm.attack.has_value());
  EXPECT_EQ(pm.attack->script, "split_vote");
  EXPECT_EQ(pm.attack->simulator, "miller18");
  EXPECT_EQ(pm.attack->n, 5);
  EXPECT_EQ(pm.attack->t, 1);
  EXPECT_EQ(pm.attack->inputs, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(pm.attack->rounds, 3);
  EXPECT_EQ(pm.attack->seed, 9u);
  EXPECT_TRUE(pm.attack->expect_decision);
}

TEST(Expect, UnknownObligationIsDiagnosedWithVocabulary) {
  // CB2 belongs to category (C); this spec is category (B).
  auto diags = diags_of(mini_with("expect { CB2 violated; }"));
  EXPECT_TRUE(has_diag(diags, "unknown obligation 'CB2'"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "category B")) << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "C2'")) << all_messages(diags);  // vocabulary
}

TEST(Expect, DuplicateVerdictIsDiagnosed) {
  auto diags = diags_of(
      mini_with("expect { Inv1(v=0) holds; Inv1(v=0) violated; }"));
  EXPECT_TRUE(has_diag(diags, "duplicate expected verdict for 'Inv1(v=0)'"))
      << all_messages(diags);
}

TEST(Expect, BadVerdictKeywordIsPositioned) {
  try {
    parse(mini_with("expect {\n  Inv1(v=0) maybe;\n}"), "t.cta");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_NE(e.diagnostics()[0].message.find(
                  "expected verdict 'holds' or 'violated'"),
              std::string::npos);
    EXPECT_GT(e.diagnostics()[0].pos.line, 1);
  }
}

TEST(Expect, DuplicateExpectBlockIsSyntaxError) {
  EXPECT_THROW(
      parse(mini_with("expect { C1 holds; }\n  expect { C2' holds; }"),
            "t.cta"),
      ParseError);
}

TEST(Expect, MalformedAttackSketchCollectsDiagnostics) {
  auto diags = diags_of(
      mini_with("expect {\n"
                "  attack split_vote {\n"
                "    simulator z80;\n"
                "    system n = 3, t = 3;\n"
                "    inputs 0, 1;\n"
                "  }\n"
                "}"));
  EXPECT_TRUE(has_diag(diags, "unknown simulator 'z80'"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "0 <= t < n")) << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "exactly 3 correct processes"))
      << all_messages(diags);
  EXPECT_TRUE(has_diag(diags, "missing an 'outcome"))
      << all_messages(diags);
}

TEST(Expect, SplitVoteNeedsAByzantineProcess) {
  auto diags = diags_of(
      mini_with("expect {\n"
                "  attack split_vote {\n"
                "    simulator mmr14;\n"
                "    system n = 3, t = 0;\n"
                "    inputs 0, 0, 1;\n"
                "    outcome no_decision;\n"
                "  }\n"
                "}"));
  EXPECT_TRUE(has_diag(diags, "at least one Byzantine"))
      << all_messages(diags);
}

// --- registry ---------------------------------------------------------------

TEST(Registry, BuiltinsArePopulated) {
  ProtocolRegistry r = ProtocolRegistry::with_builtins();
  EXPECT_EQ(r.names().size(), 9u);
  EXPECT_TRUE(r.contains("MMR14"));
  EXPECT_EQ(r.origin("MMR14"), "builtin");
  EXPECT_EQ(r.make("Rabin83").category, protocols::Category::kA);
}

TEST(Registry, UnknownNameListsWhatIsRegistered) {
  ProtocolRegistry r = ProtocolRegistry::with_builtins();
  try {
    (void)r.make("NoSuchProtocol");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("MMR14"), std::string::npos);
  }
}

TEST(Registry, SpecFilesResolveByPath) {
  const std::string specs = builtin_spec_dir();
  ProtocolRegistry r = ProtocolRegistry::with_builtins();
  protocols::ProtocolModel pm = r.resolve(specs + "/mmr14.cta");
  EXPECT_EQ(pm.name, "MMR14");
  // Registering the file shadows the builtin under the same name.
  std::string name = r.add_file(specs + "/mmr14.cta");
  EXPECT_EQ(name, "MMR14");
  EXPECT_EQ(r.origin("MMR14"), specs + "/mmr14.cta");
  EXPECT_EQ(r.names().size(), 9u);
}

// The lowered `expect` declarations must survive the registry: a builtin
// and the same spec registered by path hand `ctaver check` the surface that
// loading the file directly gives.
TEST(Registry, ExpectationsSurviveTheRegistry) {
  const std::string path = builtin_spec_dir() + "/mmr14.cta";
  ProtocolRegistry r = ProtocolRegistry::with_builtins();
  const protocols::ProtocolModel direct = load_spec_file(path);
  for (bool by_path : {false, true}) {
    if (by_path) r.add_file(path);
    protocols::ProtocolModel pm = r.make("MMR14");
    ASSERT_EQ(pm.expects.size(), 9u) << "by_path=" << by_path;
    int violated = 0;
    for (const protocols::ExpectedVerdict& e : pm.expects) {
      if (e.violated) {
        ++violated;
        EXPECT_TRUE(e.obligation == "CB2" || e.obligation == "CB3")
            << e.obligation;
      }
    }
    EXPECT_EQ(violated, 2);
    ASSERT_TRUE(pm.attack.has_value());
    EXPECT_EQ(pm.attack->script, "split_vote");
    EXPECT_EQ(pm.attack->simulator, "mmr14");
    EXPECT_EQ(pm.attack->n, 4);
    EXPECT_EQ(pm.attack->t, 1);
    EXPECT_EQ(pm.attack->inputs, (std::vector<int>{0, 0, 1}));
    EXPECT_FALSE(pm.attack->expect_decision);

    // Direct load and registry factory agree verbatim.
    ASSERT_EQ(direct.expects.size(), pm.expects.size());
    for (std::size_t i = 0; i < direct.expects.size(); ++i) {
      EXPECT_EQ(direct.expects[i].obligation, pm.expects[i].obligation);
      EXPECT_EQ(direct.expects[i].violated, pm.expects[i].violated);
    }
  }
}

// Every builtin declares a verdict surface drawn from its category's
// obligation vocabulary (the lowering enforces this; pin it for the corpus).
TEST(Registry, AllSpecsDeclareValidSurfaces) {
  ProtocolRegistry r = ProtocolRegistry::with_builtins();
  for (const std::string& name : r.names()) {
    protocols::ProtocolModel pm = r.make(name);
    EXPECT_FALSE(pm.expects.empty()) << name;
    std::vector<std::string> vocab = protocols::obligation_names(pm.category);
    for (const protocols::ExpectedVerdict& e : pm.expects) {
      EXPECT_NE(std::find(vocab.begin(), vocab.end(), e.obligation),
                vocab.end())
          << name << ": " << e.obligation;
    }
  }
}

}  // namespace
}  // namespace ctaver::frontend
