// Robustness: hostile inputs must produce Status errors, never crashes or
// hangs; runtime errors must leave the engine usable.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/rule_base.h"
#include "tests/test_util.h"

namespace sorel {
namespace {

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, LexerNeverCrashesOnRandomBytes) {
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u + 7u;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int round = 0; round < 50; ++round) {
    std::string input;
    size_t len = next() % 200;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(next() % 256));
    }
    auto result = Lex(input);  // must return, ok or error
    (void)result;
  }
}

TEST_P(FuzzSweep, ParserNeverCrashesOnTokenSoup) {
  // Random sequences of *valid* tokens stress the grammar paths.
  static const char* kAtoms[] = {"(",  ")",   "[",  "]",    "{",    "}",
                                 "p",  "-->", "<x>", "^a",  "<<",   ">>",
                                 "42", "-",   ":test", ":scalar", "foo",
                                 "<",  ">",   "=",  "<>",   "make", "foreach"};
  unsigned state = static_cast<unsigned>(GetParam()) * 40503u + 3u;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int round = 0; round < 50; ++round) {
    std::string input;
    size_t len = next() % 60;
    for (size_t i = 0; i < len; ++i) {
      input += kAtoms[next() % (sizeof(kAtoms) / sizeof(kAtoms[0]))];
      input += " ";
    }
    auto result = Parse(input);
    (void)result;
  }
}

TEST_P(FuzzSweep, TruncatedValidProgramsError) {
  std::string program =
      "(literalize player name team)"
      "(p r { [player ^name <n> ^team << A B >>] <P> } :scalar (<n>)"
      " :test ((count <P>) > 1) --> (foreach <P> descending"
      " (if (1 < 2) (remove <P>) else (write <n> (crlf)))))";
  size_t cut = static_cast<size_t>(GetParam()) * program.size() / 12;
  if (cut >= program.size()) cut = program.size() - 1;
  auto result = Parse(program.substr(0, cut));
  if (cut > 0) {
    EXPECT_FALSE(result.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 12));

TEST(RobustnessTest, DeeplyNestedExpressionsParse) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  auto program =
      Parse("(literalize m)(p r (m) --> (bind <x> " + expr + "))");
  EXPECT_TRUE(program.ok());
}

// Hostile nesting depth must come back as a ParseError, not overflow the
// parser's stack: through the engine and through the shared-base compile
// the server uses.
TEST(RobustnessTest, PathologicalNestingIsAParseError) {
  constexpr int kDepth = 200000;
  std::string expr(kDepth, '(');
  expr += "1";
  for (int i = 0; i < kDepth; ++i) expr += " + 1)";
  std::string foreach_body;
  for (int i = 0; i < kDepth; ++i) foreach_body += "(foreach <P> ";
  foreach_body += "(write x)";
  foreach_body += std::string(kDepth, ')');
  const std::string sources[] = {
      "(literalize m)(p r (m) --> (bind <x> " + expr + "))",
      "(literalize m v)(p r { [m ^v <v>] <P> } --> " + foreach_body + ")",
  };
  for (const std::string& source : sources) {
    Engine engine;
    Status loaded = engine.LoadString(source);
    EXPECT_EQ(loaded.code(), StatusCode::kParseError) << loaded.ToString();
    EXPECT_NE(loaded.ToString().find("nested too deeply"), std::string::npos)
        << loaded.ToString();
    auto base = CompiledRuleBase::Compile(source);
    ASSERT_FALSE(base.ok());
    EXPECT_EQ(base.status().code(), StatusCode::kParseError)
        << base.status().ToString();
  }
}

TEST(RobustnessTest, RuntimeErrorPropagatesAndEngineStaysUsable) {
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  // ^team is a symbol at run time; (<t> + 1) is a runtime type error.
  MustLoad(engine, std::string(kPlayerSchema) +
                       "(p bad (player ^team <t>) --> (bind <x> (<t> + 1)))"
                       "(p good (player ^name <n>) --> (write <n>))");
  MustMake(engine, "player", {{"team", engine.Sym("A")},
                              {"name", engine.Sym("ann")}});
  auto r = engine.Run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError);
  // The failed firing is consumed; the engine continues.
  auto r2 = engine.Run();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(*r2, 1);
  EXPECT_EQ(out.str(), "ann");
}

TEST(RobustnessTest, HugeSymbolsAndNumbers) {
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  std::string big_symbol(5000, 'x');
  MustLoad(engine, "(literalize m v)(startup (make m ^v " + big_symbol +
                       ") (make m ^v 9223372036854775807))");
  EXPECT_EQ(engine.wm().size(), 2u);
  auto snap = engine.wm().Snapshot();
  EXPECT_EQ(snap[1]->field(0), Value::Int(9223372036854775807LL));
}

TEST(RobustnessTest, EmptyAndCommentOnlySources) {
  Engine engine;
  EXPECT_TRUE(engine.LoadString("").ok());
  EXPECT_TRUE(engine.LoadString("; nothing here\n;; more\n").ok());
  EXPECT_TRUE(engine.LoadString("   \n\t\n").ok());
}

TEST(RobustnessTest, ManyRulesManyClasses) {
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  std::string src;
  for (int i = 0; i < 60; ++i) {
    std::string c = "cls" + std::to_string(i);
    src += "(literalize " + c + " v)";
    src += "(p r" + std::to_string(i) + " (" + c + " ^v <x>) --> "
           "(bind <y> 1))";
  }
  MustLoad(engine, src);
  for (int i = 0; i < 60; ++i) {
    MustMake(engine, "cls" + std::to_string(i), {{"v", Value::Int(i)}});
  }
  EXPECT_EQ(engine.conflict_set().size(), 60u);
  EXPECT_EQ(MustRun(engine), 60);
}

TEST(RobustnessTest, InterleavedLoadAndRun) {
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  MustLoad(engine, std::string(kPlayerSchema) +
                       "(p a (player ^team A) --> (bind <x> 1))");
  MakeFigure1Wm(engine);
  EXPECT_EQ(MustRun(engine), 2);
  MustLoad(engine, "(p b (player ^team B) --> (bind <x> 1))");
  EXPECT_EQ(MustRun(engine), 3);
  MustLoad(engine, "(p c [player ^team B ^name <n>] --> (bind <x> 1))");
  EXPECT_EQ(MustRun(engine), 1);
}

}  // namespace
}  // namespace sorel
