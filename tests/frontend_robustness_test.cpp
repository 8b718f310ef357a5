// Front-end robustness under malformed input: a deterministic mutation
// corpus (truncations, byte flips, pathological nesting) over every shipped
// .cta spec. The contract is the diagnostics one from src/frontend/diag.h —
// load_spec_string either succeeds or throws ParseError carrying at least
// one positioned diagnostic; it never crashes, never throws anything else,
// and never loops. CI runs this binary under ASan/UBSan, which is what
// turns "no crash" into "no out-of-bounds read in the lexer" too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/diag.h"
#include "frontend/lower.h"
#include "frontend/registry.h"

namespace ctaver::frontend {
namespace {

std::vector<std::string> corpus_specs() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(builtin_spec_dir())) {
    if (entry.path().extension() == ".cta") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // directory order is fs-dependent
  return paths;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The robustness contract: parse the mutant and demand either success or a
/// ParseError whose every diagnostic is positioned (1-based line/col).
/// Anything else — another exception type, a crash, a sanitizer report —
/// fails the test.
void expect_contained(const std::string& text, const std::string& label) {
  try {
    load_spec_string(text, label);
  } catch (const ParseError& e) {
    EXPECT_FALSE(e.diagnostics().empty()) << label;
    for (const Diagnostic& d : e.diagnostics()) {
      EXPECT_GE(d.pos.line, 1) << label;
      EXPECT_GE(d.pos.col, 1) << label;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": escaped the diagnostics contract with "
                  << e.what();
  }
}

TEST(FrontendRobustness, CorpusIsNonEmpty) {
  EXPECT_GE(corpus_specs().size(), 8u) << "spec dir: " << builtin_spec_dir();
}

TEST(FrontendRobustness, TruncatedSpecsDiagnoseCleanly) {
  for (const std::string& path : corpus_specs()) {
    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty()) << path;
    // Cut at 16 evenly spaced points — mid-token, mid-rule, mid-block.
    for (int i = 0; i < 16; ++i) {
      std::size_t cut = text.size() * static_cast<std::size_t>(i) / 16;
      expect_contained(text.substr(0, cut),
                       path + " truncated@" + std::to_string(cut));
    }
  }
}

TEST(FrontendRobustness, ByteFlippedSpecsDiagnoseCleanly) {
  // Deterministic LCG so every run (and every CI leg) mutates the same
  // bytes; no seeding from time anywhere.
  for (const std::string& path : corpus_specs()) {
    const std::string text = slurp(path);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ text.size();
    auto next = [&state]() {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };
    for (int i = 0; i < 64; ++i) {
      std::string mutant = text;
      std::size_t pos = next() % mutant.size();
      // Flip into the full byte range: control characters, DEL, and
      // high-bit bytes must all come back as diagnostics, not crashes.
      mutant[pos] = static_cast<char>(next() & 0xff);
      expect_contained(mutant, path + " flip@" + std::to_string(pos));
    }
    // A couple of multi-byte mutations per spec.
    for (int i = 0; i < 8; ++i) {
      std::string mutant = text;
      for (int k = 0; k < 5; ++k) {
        mutant[next() % mutant.size()] = static_cast<char>(next() & 0xff);
      }
      expect_contained(mutant, path + " multiflip#" + std::to_string(i));
    }
  }
}

TEST(FrontendRobustness, DeeplyNestedExpressionsAreDepthLimited) {
  // The parser's recursion guard (kMaxExprDepth) must turn pathological
  // nesting into a positioned diagnostic instead of a stack overflow —
  // under ASan the overflow would be a hard crash.
  auto nested_spec = [](int depth) {
    std::string open(static_cast<std::size_t>(depth), '(');
    std::string close(static_cast<std::size_t>(depth), ')');
    return "protocol Deep {\n"
           "  category B;\n"
           "  parameters n, f;\n"
           "  resilience n > " +
           open + "2*f" + close +
           ";\n"
           "  counts processes = n - f, coins = 0;\n"
           "  process {\n"
           "    border J0 : 0;\n"
           "    initial I0 : 0;\n"
           "    final D0 : 0 decides;\n"
           "    entry J0 -> I0;\n"
           "    rule r1: I0 -> D0;\n"
           "    switch D0 -> J0;\n"
           "  }\n"
           "  sweep (3, 0);\n"
           "}\n";
  };
  // Shallow nesting still parses (whatever later semantic checks say, the
  // syntax must not be rejected by the guard).
  expect_contained(nested_spec(16), "nested(16)");
  // Past the guard: a diagnostic, not a stack overflow.
  for (int depth : {500, 5'000, 100'000}) {
    const std::string label = "nested(" + std::to_string(depth) + ")";
    try {
      load_spec_string(nested_spec(depth), label);
      ADD_FAILURE() << label << ": expected a depth diagnostic";
    } catch (const ParseError& e) {
      ASSERT_FALSE(e.diagnostics().empty()) << label;
      bool found = false;
      for (const Diagnostic& d : e.diagnostics()) {
        if (d.message.find("nested too deeply") != std::string::npos) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << label << ": " << e.what();
    }
  }
}

TEST(FrontendRobustness, HostileSmallInputsDiagnoseCleanly) {
  const char* cases[] = {
      "",
      "\n\n\n",
      "protocol",
      "protocol {",
      "protocol P {",
      "}",
      ")))(((",
      "protocol P { category B; parameters n; resilience n > "
      "99999999999999999999999999999;\n}",
      "protocol P \xff\xfe\xfd",
      "protocol P { process { rule r: A -> B when 1 +; } }",
      "\0protocol",  // embedded NUL (literal cut short by C semantics)
  };
  int i = 0;
  for (const char* c : cases) {
    expect_contained(c, "hostile#" + std::to_string(i++));
  }
  // An actual embedded NUL, mid-token.
  std::string nul = "protocol P { cat";
  nul.push_back('\0');
  nul += "egory B; }";
  expect_contained(nul, "hostile-nul");
}

}  // namespace
}  // namespace ctaver::frontend
