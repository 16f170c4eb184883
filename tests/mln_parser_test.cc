#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/datasets.h"
#include "ground/bottom_up_grounder.h"
#include "mln/model.h"
#include "mln/parser.h"
#include "util/rng.h"

namespace tuffy {
namespace {

const char* kFigure1Program =
    "// Figure 1 of the paper\n"
    "*paper(paper, url)\n"
    "*wrote(author, paper)\n"
    "*refers(paper, paper)\n"
    "cat(paper, category)\n"
    "5 cat(p, c1), cat(p, c2) => c1 = c2\n"
    "1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)\n"
    "2 cat(p1, c), refers(p1, p2) => cat(p2, c)\n"
    "paper(p, u) => EXIST x wrote(x, p).\n"
    "-1 cat(p, \"Networking\")\n";

TEST(ParserTest, ParsesFigure1Program) {
  auto result = ParseProgram(kFigure1Program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MlnProgram& p = result.value();
  EXPECT_EQ(p.num_predicates(), 4u);
  EXPECT_EQ(p.clauses().size(), 5u);
}

TEST(ParserTest, ClosedWorldFlagParsed) {
  auto result = ParseProgram(kFigure1Program);
  ASSERT_TRUE(result.ok());
  const MlnProgram& p = result.value();
  EXPECT_TRUE(p.predicate(p.FindPredicate("wrote").value()).closed_world);
  EXPECT_FALSE(p.predicate(p.FindPredicate("cat").value()).closed_world);
}

TEST(ParserTest, ImplicationBecomesClausalForm) {
  auto result = ParseProgram(
      "*r(t, t)\n"
      "q(t)\n"
      "2 q(x), r(x, y) => q(y)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  ASSERT_EQ(c.literals.size(), 3u);
  EXPECT_FALSE(c.literals[0].positive);  // body atoms negated
  EXPECT_FALSE(c.literals[1].positive);
  EXPECT_TRUE(c.literals[2].positive);  // head stays positive
  EXPECT_EQ(c.weight, 2.0);
  EXPECT_FALSE(c.hard);
  EXPECT_EQ(c.num_vars, 2);
}

TEST(ParserTest, EqualityHeadBecomesConstraint) {
  auto result = ParseProgram(
      "q(t, u)\n"
      "5 q(x, c1), q(x, c2) => c1 = c2\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  EXPECT_EQ(c.literals.size(), 2u);
  ASSERT_EQ(c.equalities.size(), 1u);
  EXPECT_TRUE(c.equalities[0].equal);
}

TEST(ParserTest, BodyInequalityFlipsPolarity) {
  // Body "x != y" is a negated disjunct: clausal form carries "x = y".
  auto result = ParseProgram(
      "q(t, t)\n"
      "1 q(x, y), x != y => q(y, x)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  ASSERT_EQ(c.equalities.size(), 1u);
  EXPECT_TRUE(c.equalities[0].equal);
}

TEST(ParserTest, HardRuleTrailingPeriod) {
  auto result = ParseProgram(
      "*p(t)\n"
      "q(t)\n"
      "p(x) => q(x).\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().clauses()[0].hard);
}

TEST(ParserTest, HardRuleWithWeightRejected) {
  auto result = ParseProgram(
      "*p(t)\n"
      "q(t)\n"
      "3 p(x) => q(x).\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, SoftRuleWithoutWeightRejected) {
  auto result = ParseProgram(
      "*p(t)\n"
      "q(t)\n"
      "p(x) => q(x)\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, NegativeWeightUnitClause) {
  auto result = ParseProgram(
      "q(t)\n"
      "-1.5 q(x)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result.value().clauses()[0].weight, -1.5);
}

TEST(ParserTest, ExistentialVariablesRecorded) {
  auto result = ParseProgram(
      "*p(t)\n"
      "w(a, t)\n"
      "p(x) => EXIST y w(y, x).\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  ASSERT_EQ(c.existential_vars.size(), 1u);
  EXPECT_TRUE(c.hard);
}

TEST(ParserTest, DisjunctionWithV) {
  auto result = ParseProgram(
      "q(t)\n"
      "r(t)\n"
      "1 q(x) v r(x)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  EXPECT_EQ(c.literals.size(), 2u);
  EXPECT_TRUE(c.literals[0].positive);
  EXPECT_TRUE(c.literals[1].positive);
}

TEST(ParserTest, NegatedLiteralInClause) {
  auto result = ParseProgram(
      "q(t)\n"
      "1 !q(x) v q(x)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().clauses()[0].literals[0].positive);
}

TEST(ParserTest, ConstantsInterned) {
  auto result = ParseProgram(
      "q(t)\n"
      "1 q(\"Apple\")\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MlnProgram& p = result.value();
  EXPECT_GE(p.symbols().Find("Apple"), 0);
  EXPECT_FALSE(p.clauses()[0].literals[0].args[0].is_var);
}

TEST(ParserTest, CapitalizedIdentifierIsConstant) {
  auto result = ParseProgram(
      "q(t)\n"
      "1 q(Foo)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().clauses()[0].literals[0].args[0].is_var);
}

TEST(ParserTest, UnknownPredicateFails) {
  auto result = ParseProgram("1 nosuch(x)\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, ArityMismatchFails) {
  auto result = ParseProgram(
      "q(t, t)\n"
      "1 q(x)\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, TypeConflictFails) {
  auto result = ParseProgram(
      "q(ta)\n"
      "r(tb)\n"
      "1 q(x), r(x) => q(x)\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, DuplicatePredicateFails) {
  auto result = ParseProgram(
      "q(t)\n"
      "q(t)\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, CommentsAndBlankLinesIgnored) {
  auto result = ParseProgram(
      "// comment\n"
      "\n"
      "# another comment\n"
      "q(t)  // trailing comment\n"
      "1 q(x)  // and here\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().clauses().size(), 1u);
}

/// `name(t, t, ...)` with `arity` arguments of type t.
std::string Declaration(const std::string& name, int arity) {
  std::string out = name + "(";
  for (int i = 0; i < arity; ++i) out += i > 0 ? ", t" : "t";
  return out + ")\n";
}

/// `!name(x, ..., x, z)`: x in every position but the last, z in it.
std::string LastPositionExistential(const std::string& name, int arity) {
  std::string out = "1 EXIST z !" + name + "(";
  for (int i = 0; i + 1 < arity; ++i) out += "x, ";
  return out + "z) v q(x)\n";
}

TEST(ParserTest, WideExistentialLiteralsRefused) {
  // Nine existential positions in one literal.
  auto nine = ParseProgram(
      Declaration("r", 9) + "q(t)\n" +
      "1 EXIST a, b, c, d, e, f, g, h, i !r(a, b, c, d, e, f, g, h, i) v "
      "q(x)\n");
  ASSERT_FALSE(nine.ok());
  EXPECT_EQ(nine.status().code(), StatusCode::kParseError);
  EXPECT_NE(nine.status().message().find("line 3"), std::string::npos)
      << nine.status().ToString();
  EXPECT_NE(nine.status().message().find("limit is 8"), std::string::npos)
      << nine.status().ToString();

  // A 33-ary closed-world predicate, existential at position 32.
  auto wide = ParseProgram("*" + Declaration("w", 33) + "q(t)\n" +
                           LastPositionExistential("w", 33));
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kParseError);
  EXPECT_NE(wide.status().message().find("line 3"), std::string::npos)
      << wide.status().ToString();
  EXPECT_NE(wide.status().message().find("limit is 32"), std::string::npos)
      << wide.status().ToString();

  // Without an existential, predicate width is not limited.
  std::string wide_rule = "1 !w(x";
  for (int i = 1; i < 33; ++i) wide_rule += ", x";
  auto universal = ParseProgram(Declaration("w", 33) + wide_rule + ")\n");
  EXPECT_TRUE(universal.ok()) << universal.status().ToString();
}

TEST(ParserTest, ClauseOfMoreThan64LiteralsRefused) {
  // Grounding flags literals in a 64-bit mask: a clause of 64 literals
  // parses, one of 65 does not.
  const auto clause_of = [](int n) {
    std::string out = "1 q(C0)";
    for (int i = 1; i < n; ++i) out += " v q(C" + std::to_string(i) + ")";
    return out + "\n";
  };
  auto at_limit = ParseProgram("q(t)\n" + clause_of(64));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit.value().clauses()[0].literals.size(), 64u);

  auto over = ParseProgram("q(t)\n" + clause_of(65));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
  EXPECT_NE(over.status().message().find("line 2"), std::string::npos)
      << over.status().ToString();
  EXPECT_NE(over.status().message().find("limit is 64"), std::string::npos)
      << over.status().ToString();

  // MlnProgram::AddClause is where the limit lives.
  MlnProgram program = at_limit.TakeValue();
  Clause wide = program.clauses()[0];
  wide.literals.push_back(wide.literals[0]);
  const Status st = program.AddClause(wide);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(program.clauses().size(), 1u);
}

/// Grounds `mln` over `evidence` bottom-up and exhaustively (no lazy
/// closure), returning the clauses.
std::vector<GroundClause> GroundAll(const std::string& mln,
                                    const std::string& evidence) {
  auto program = ParseProgram(mln);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  Status st = ParseEvidence(evidence, &p, &db);
  EXPECT_TRUE(st.ok()) << st.ToString();
  GroundingOptions opts;
  opts.lazy_closure = false;
  BottomUpGrounder grounder(p, db, opts);
  auto g = grounder.Ground();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return g.ok() ? g.value().clauses.clauses() : std::vector<GroundClause>{};
}

TEST(ParserTest, ExistentialLiteralsAtTheLimitsParseAndGround) {
  // Eight existential positions over an open-world predicate, domain
  // {A, B}: the literal expands to all 256 instances of !r, and both
  // groundings of x (q is false for each) merge into that one clause.
  std::vector<GroundClause> eight =
      GroundAll(Declaration("r", 8) + "q(t)\n" +
                    "1 EXIST a, b, c, d, e, f, g, h !r(a, b, c, d, e, f, g, "
                    "h) v q(x)\n",
                "!q(A)\n!q(B)\n");
  ASSERT_EQ(eight.size(), 1u);
  EXPECT_EQ(eight[0].lits.size(), 256u);
  EXPECT_DOUBLE_EQ(eight[0].weight, 2.0);

  // A 32-ary closed-world predicate, existential at position 31: the
  // pattern-count path. Its only instance is true, so the existential
  // disjunct is false and q(A) is left as a unit clause.
  std::string all_a = "w(A";
  for (int i = 1; i < 32; ++i) all_a += ", A";
  std::vector<GroundClause> wide =
      GroundAll("*" + Declaration("w", 32) + "q(t)\n" +
                    LastPositionExistential("w", 32),
                all_a + ")\n");
  ASSERT_EQ(wide.size(), 1u);
  ASSERT_EQ(wide[0].lits.size(), 1u);
  EXPECT_TRUE(LitPositive(wide[0].lits[0]));
}

/// One clause's content, independent of variable numbering (the parser
/// numbers variables by first appearance, and ToString prints EXIST
/// first): weight bits, hardness, existential variables by name, then
/// each literal's sign, predicate and terms (variables by name,
/// constants by symbol), then each equality.
std::string ClauseContent(const MlnProgram& p, const Clause& c) {
  auto term = [&](const Term& t) {
    return t.is_var ? "var:" + c.var_names[t.id]
                    : "const:" + p.symbols().SymbolName(t.id);
  };
  std::ostringstream out;
  out << std::hexfloat << c.weight << (c.hard ? " hard" : " soft") << " exist{";
  for (VarId v : c.existential_vars) out << c.var_names[v] << ";";
  out << "} vars=" << c.num_vars;
  for (const Literal& lit : c.literals) {
    out << " | " << (lit.positive ? "+" : "-") << p.predicate(lit.pred).name
        << "(";
    for (const Term& t : lit.args) out << term(t) << ";";
    out << ")";
  }
  for (const EqualityConstraint& eq : c.equalities) {
    out << " | " << term(eq.lhs) << (eq.equal ? " = " : " != ")
        << term(eq.rhs);
  }
  return out.str();
}

std::vector<std::string> ProgramContent(const MlnProgram& p) {
  std::vector<std::string> out;
  for (const Predicate& pred : p.predicates()) {
    std::string decl = (pred.closed_world ? "*" : "") + pred.name + "(";
    for (const std::string& t : pred.arg_types) decl += t + ";";
    out.push_back(decl + ")");
  }
  for (const Clause& c : p.clauses()) out.push_back(ClauseContent(p, c));
  return out;
}

TEST(ParserTest, ToStringRoundTripsStructure) {
  // Quoted constants that are not bare constants (a space, a lowercase
  // first letter, a `"` inside, an empty string, a sign), and weights
  // that need more than six significant digits.
  const std::string quoted =
      "*link(node, node)\n"
      "label(node, cls)\n"
      "1.23456789 link(x, y), label(x, c) => label(y, c)\n"
      "-0.123456789012 label(n, \"foo bar\")\n"
      "2 label(n, \"lower\") v label(n, 'say \"hi\"') v label(n, \"\")\n"
      "3 label(N1, _C2) v x != y v link(x, y) v label(x, \"-5\")\n"
      "100000 label(007, C) v x = \"lower\" v link(x, N1)\n"
      "label(x, c1), label(x, c2) => c1 = c2.\n"
      "0.25 label(x, c) => EXIST y link(x, y)\n";
  for (const std::string& text : {std::string(kFigure1Program), quoted}) {
    auto result = ParseProgram(text);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string printed = result.value().ToString();
    // The printed program must itself parse to the same clauses.
    auto reparsed = ParseProgram(printed);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                               << printed;
    EXPECT_EQ(ProgramContent(reparsed.value()),
              ProgramContent(result.value()))
        << printed;
    EXPECT_EQ(reparsed.value().ToString(), printed);
  }
}

TEST(ParserTest, NonFiniteWeightRefused) {
  auto result = ParseProgram("q(t)\n1e999 q(x)\n");
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, TrailingCommaRefused) {
  // An argument list is `(t1, ..., tk)`: a comma must be followed by a
  // term, and terms must be separated by commas.
  auto trailing = ParseProgram("p(t)\n1 p(x,)\n");
  ASSERT_EQ(trailing.status().code(), StatusCode::kParseError);
  EXPECT_NE(trailing.status().message().find("line 2: bad term ')' in p"),
            std::string::npos)
      << trailing.status().ToString();

  auto missing = ParseProgram("p(t, t)\n1 p(X Y)\n");
  ASSERT_EQ(missing.status().code(), StatusCode::kParseError);
  EXPECT_NE(missing.status().message().find(
                "line 2: expected ',' or ')' in argument list"),
            std::string::npos)
      << missing.status().ToString();

  auto open = ParseProgram("p(t)\n1 p(x\n");
  ASSERT_EQ(open.status().code(), StatusCode::kParseError);
  EXPECT_NE(open.status().message().find(
                "line 2: expected ',' or ')' in argument list"),
            std::string::npos)
      << open.status().ToString();
}

TEST(ParserTest, ConstantLiteralQuotesOnlyWhatWouldNotLexBack) {
  EXPECT_EQ(ConstantLiteral("Networking"), "Networking");
  EXPECT_EQ(ConstantLiteral("_x9"), "_x9");
  EXPECT_EQ(ConstantLiteral("0042"), "0042");
  EXPECT_EQ(ConstantLiteral("lower"), "\"lower\"");
  EXPECT_EQ(ConstantLiteral("foo bar"), "\"foo bar\"");
  EXPECT_EQ(ConstantLiteral(""), "\"\"");
  EXPECT_EQ(ConstantLiteral("-5"), "\"-5\"");
  EXPECT_EQ(ConstantLiteral("1.5"), "\"1.5\"");
  EXPECT_EQ(ConstantLiteral("say \"hi\""), "'say \"hi\"'");
}

// --------------------------------------------------------------- Evidence

TEST(EvidenceParserTest, ParsesPositiveAndNegative) {
  auto program = ParseProgram("*wrote(author, paper)\ncat(paper, category)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  Status st = ParseEvidence(
      "wrote(Joe, P1)\n"
      "!cat(P3, \"AI\")\n"
      "// comment\n",
      &p, &db);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(db.num_evidence(), 2u);

  GroundAtom wrote;
  wrote.pred = p.FindPredicate("wrote").value();
  wrote.args = {p.symbols().Find("Joe"), p.symbols().Find("P1")};
  EXPECT_EQ(db.Lookup(p, wrote), Truth::kTrue);

  GroundAtom cat;
  cat.pred = p.FindPredicate("cat").value();
  cat.args = {p.symbols().Find("P3"), p.symbols().Find("AI")};
  EXPECT_EQ(db.Lookup(p, cat), Truth::kFalse);
}

TEST(EvidenceParserTest, ClosedWorldDefaultsFalse) {
  auto program = ParseProgram("*wrote(author, paper)\ncat(paper, category)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  ASSERT_TRUE(ParseEvidence("wrote(Joe, P1)\n", &p, &db).ok());

  GroundAtom absent_closed;
  absent_closed.pred = p.FindPredicate("wrote").value();
  absent_closed.args = {p.symbols().Find("P1"), p.symbols().Find("Joe")};
  EXPECT_EQ(db.Lookup(p, absent_closed), Truth::kFalse);

  GroundAtom absent_open;
  absent_open.pred = p.FindPredicate("cat").value();
  absent_open.args = {p.symbols().Find("P1"), p.symbols().Find("Joe")};
  EXPECT_EQ(db.Lookup(p, absent_open), Truth::kUnknown);
}

TEST(EvidenceParserTest, UnknownPredicateFails) {
  auto program = ParseProgram("q(t)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  EXPECT_FALSE(ParseEvidence("nosuch(A)\n", &p, &db).ok());
}

TEST(EvidenceParserTest, ArityMismatchFails) {
  auto program = ParseProgram("q(t, t)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  EXPECT_FALSE(ParseEvidence("q(A)\n", &p, &db).ok());
  EXPECT_FALSE(ParseEvidence("q(A, B, C)\n", &p, &db).ok());
}

TEST(EvidenceParserTest, LaterEntriesOverwrite) {
  auto program = ParseProgram("q(t)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  ASSERT_TRUE(ParseEvidence("q(A)\n!q(A)\n", &p, &db).ok());
  GroundAtom a;
  a.pred = 0;
  a.args = {p.symbols().Find("A")};
  EXPECT_EQ(db.Lookup(p, a), Truth::kFalse);
}

TEST(EvidenceParserTest, TrailingTokensAfterAnAtomRefused) {
  auto program = ParseProgram("*wrote(author, paper)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  Status st = ParseEvidence(
      "wrote(Joe, P1) wrote(Ann, P2)\n"
      "wrote(Bob, P3) !\n",
      &p, &db);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1: trailing tokens"), std::string::npos)
      << st.ToString();

  EvidenceDb second;
  st = ParseEvidence("wrote(Joe, P1)\nwrote(Bob, P3) !\n", &p, &second);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2: trailing tokens starting at '!'"),
            std::string::npos)
      << st.ToString();

  // A comment after the atom is not a token.
  EvidenceDb commented;
  st = ParseEvidence("wrote(Joe, P1)  // first paper\n", &p, &commented);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(commented.num_evidence(), 1u);
}

TEST(EvidenceParserTest, ArgumentListNeedsCommas) {
  auto program = ParseProgram("*wrote(author, paper)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  // The rule parser's message, after the line number.
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"wrote(Joe P1)\n", "line 1: expected ',' or ')' in argument list"},
      {"wrote(Joe, P1)\nwrote(Joe, P1,)\n", "line 2: bad term ')' in wrote"},
      {"wrote(Joe, P1\n", "line 1: expected ',' or ')' in argument list"},
      {"wrote(Joe,, P1)\n", "line 1: bad term ',' in wrote"},
  };
  for (const auto& [text, message] : refused) {
    EvidenceDb db;
    const Status st = ParseEvidence(text, &p, &db);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << text;
    EXPECT_NE(st.message().find(message), std::string::npos)
        << text << st.ToString();
  }
  EvidenceDb db;
  ASSERT_TRUE(ParseEvidence("wrote(Joe , P1 )\n", &p, &db).ok());
  EXPECT_EQ(db.num_evidence(), 1u);
}

// ------------------------------------------------------------------ Fuzz

/// Evidence text printed back from the rows: one atom per line, false
/// rows then true rows per predicate, constants through ConstantLiteral.
std::string PrintEvidence(const MlnProgram& p, const EvidenceDb& db) {
  std::string out;
  for (const auto& [atom, truth] : db.entries()) {
    if (!truth) out += "!";
    out += p.predicate(atom.pred).name + "(";
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) out += ", ";
      out += ConstantLiteral(p.symbols().SymbolName(atom.args[i]));
    }
    out += ")\n";
  }
  return out;
}

/// Applies 1-3 random edits: byte flips, inserted bytes (often lexer
/// punctuation), deleted runs, truncation and duplicated lines.
std::string Mutate(std::string text, Rng* rng) {
  static const std::string kAlphabet = "(),!=>.\"' vV*-+019eEaAxX_/#\t\n";
  const int edits = 1 + static_cast<int>(rng->Uniform(3));
  for (int k = 0; k < edits; ++k) {
    const size_t pos = rng->Uniform(text.size() + 1);
    switch (rng->Uniform(5)) {
      case 0:  // flip one bit
        if (pos < text.size()) {
          text[pos] ^= static_cast<char>(1u << rng->Uniform(8));
        }
        break;
      case 1: {  // insert a byte
        const char c = rng->Uniform(2) == 0
                           ? kAlphabet[rng->Uniform(kAlphabet.size())]
                           : static_cast<char>(rng->Uniform(256));
        text.insert(text.begin() + pos, c);
        break;
      }
      case 2:  // delete a short run
        text.erase(pos, 1 + rng->Uniform(4));
        break;
      case 3:  // truncate
        text.resize(pos);
        break;
      case 4: {  // duplicate the line holding `pos`
        const size_t begin =
            pos == 0 ? 0 : text.rfind('\n', pos - 1) + 1;  // npos + 1 == 0
        size_t end = text.find('\n', pos);
        end = end == std::string::npos ? text.size() : end + 1;
        const std::string line = text.substr(begin, end - begin);
        text.insert(end, line.empty() || line.back() == '\n' ? line
                                                             : "\n" + line);
        break;
      }
    }
  }
  return text;
}

/// The fuzz corpus: program texts, and evidence texts each paired with
/// the index of the program it is read into.
const std::vector<std::string>& FuzzPrograms() {
  static const std::vector<std::string> kPrograms = {
      kFigure1Program,
      "*link(node, node)\n"
      "label(node, cls)\n"
      "1.23456789 link(x, y), label(x, c) => label(y, c)\n"
      "-0.5 label(n, \"foo bar\")\n"
      "3 label(n, 'say \"hi\"') v label(n, C2)\n"
      "0.25 !label(N1, \"lower\") v x != y v link(x, y)\n"
      "label(x, c1), label(x, c2) => c1 = c2.\n"
      "2 label(x, c) => EXIST y link(x, y)\n",
  };
  return kPrograms;
}

const std::vector<std::pair<size_t, std::string>>& FuzzEvidence() {
  static const std::vector<std::pair<size_t, std::string>> kEvidence = {
      {0,
       "wrote(Joe, P1)\n"
       "wrote(Joe, P2)\n"
       "refers(P1, P2)\n"
       "cat(P1, \"DB\")\n"
       "!cat(P2, \"AI\")\n"
       "// a comment\n"
       "paper(P1, U1)\n"},
      {1,
       "link(N0, N1)\n"
       "!link(N1, N0)\n"
       "label(N0, \"foo bar\")\n"
       "label(N1, 'say \"hi\"')\n"
       "!label(N2, C2)\n"
       "label(42, \"lower\")\n"
       "link(N0, N2)\n"},
  };
  return kEvidence;
}

constexpr uint64_t kFuzzSeeds = 20000;

/// Seed `seed`'s fuzz input, a function of the seed alone. Even seeds
/// mutate a program text; odd seeds mutate an evidence text, read into
/// the program at index `*base`.
std::string FuzzInput(uint64_t seed, size_t* base) {
  Rng rng(seed);
  if (seed % 2 == 0) {
    return Mutate(FuzzPrograms()[(seed / 2) % FuzzPrograms().size()], &rng);
  }
  const auto& [program, source] =
      FuzzEvidence()[(seed / 2) % FuzzEvidence().size()];
  *base = program;
  return Mutate(source, &rng);
}

// Seeded mutational fuzzing of both parsers. Every input is refused with
// a status or parses; a parsed program is a ToString fixpoint, and parsed
// evidence printed back from its rows parses to the same rows in the
// same order. A failure prints its seed and input; each seed's input is
// a function of the seed alone, so the seed replays it.
TEST(ParserFuzzTest, MutatedTextIsRefusedOrRoundTrips) {
  std::vector<MlnProgram> bases;
  for (const std::string& text : FuzzPrograms()) {
    auto parsed = ParseProgram(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    bases.push_back(parsed.TakeValue());
  }

  size_t programs_parsed = 0, evidence_parsed = 0;
  for (uint64_t seed = 0; seed < kFuzzSeeds; ++seed) {
    size_t base = 0;
    const std::string text = FuzzInput(seed, &base);
    if (seed % 2 == 0) {
      auto parsed = ParseProgram(text);
      if (!parsed.ok()) continue;
      ++programs_parsed;
      const std::string printed = parsed.value().ToString();
      auto reparsed = ParseProgram(printed);
      ASSERT_TRUE(reparsed.ok())
          << "seed " << seed << ": " << reparsed.status().ToString()
          << "\ninput:\n" << text << "\nprinted:\n" << printed;
      ASSERT_EQ(reparsed.value().ToString(), printed)
          << "seed " << seed << "\ninput:\n" << text;
      ASSERT_EQ(ProgramContent(reparsed.value()),
                ProgramContent(parsed.value()))
          << "seed " << seed << "\ninput:\n" << text;
    } else {
      MlnProgram program = bases[base];
      EvidenceDb db;
      if (!ParseEvidence(text, &program, &db).ok()) continue;
      ++evidence_parsed;
      // Re-parsed into the same program, constants keep their ids.
      const std::string printed = PrintEvidence(program, db);
      EvidenceDb again;
      const Status st = ParseEvidence(printed, &program, &again);
      ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString()
                           << "\ninput:\n" << text << "\nprinted:\n"
                           << printed;
      ASSERT_EQ(again.num_evidence(), db.num_evidence()) << "seed " << seed;
      for (PredicateId pred = 0;
           pred < static_cast<PredicateId>(program.num_predicates());
           ++pred) {
        for (bool truth : {false, true}) {
          const IdTable& want = db.rows(pred, truth);
          const IdTable& got = again.rows(pred, truth);
          ASSERT_EQ(got.num_rows(), want.num_rows()) << "seed " << seed;
          for (size_t c = 0; c < want.num_cols() && want.num_rows() > 0;
               ++c) {
            ASSERT_EQ(got.col(c), want.col(c))
                << "seed " << seed << "\ninput:\n" << text;
          }
        }
      }
    }
  }
  // The mutations must leave a fair share of inputs parseable, or the
  // round trips above check nothing.
  EXPECT_GT(programs_parsed, kFuzzSeeds / 20);
  EXPECT_GT(evidence_parsed, kFuzzSeeds / 20);
}

// ------------------------------------------------------------------- Pin

/// FNV-1a over a length-prefixed field, so a sequence of fields folds to
/// one value that no regrouping of their bytes reproduces.
uint64_t Fold(uint64_t h, std::string_view field) {
  const uint64_t n = field.size();
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((n >> (8 * b)) & 0xff)) * 0x100000001b3ull;
  }
  for (char c : field) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Everything a successful parse produced: the program printed back,
/// every symbol name in id order, each type's domain in order (the types
/// the parsers intern under: predicate argument types, and "_const" for
/// equality operands), and each relation's rows in order.
std::string ParsedOutcome(const MlnProgram& p, const EvidenceDb* db) {
  std::string out = p.ToString();
  out += "symbols:";
  for (size_t id = 0; id < p.symbols().num_constants(); ++id) {
    out += " " + p.symbols().SymbolName(static_cast<ConstantId>(id));
  }
  std::vector<std::string> types;
  for (const Predicate& pred : p.predicates()) {
    for (const std::string& t : pred.arg_types) {
      if (std::find(types.begin(), types.end(), t) == types.end()) {
        types.push_back(t);
      }
    }
  }
  types.push_back("_const");
  for (const std::string& t : types) {
    out += "\ndomain " + t + ":";
    for (ConstantId c : p.symbols().Domain(t)) out += " " + std::to_string(c);
  }
  if (db == nullptr) return out;
  for (PredicateId pred = 0;
       pred < static_cast<PredicateId>(p.num_predicates()); ++pred) {
    for (bool truth : {false, true}) {
      const IdTable& rows = db->rows(pred, truth);
      out += "\nrows " + std::to_string(pred) + (truth ? "+" : "-") + ":";
      for (size_t r = 0; r < rows.num_rows(); ++r) {
        out += " (";
        for (size_t c = 0; c < rows.num_cols(); ++c) {
          out += (c > 0 ? "," : "") + std::to_string(rows.col(c)[r]);
        }
        out += ")";
      }
    }
  }
  return out;
}

std::string RefusedOutcome(const Status& st) {
  return "refused " + std::to_string(static_cast<int>(st.code())) + " " +
         st.message();
}

/// The outcome of parsing program text `program` and, when given,
/// evidence text `evidence` into it.
std::string ParseOutcome(const std::string& program,
                         const std::string* evidence) {
  auto parsed = ParseProgram(program);
  if (!parsed.ok()) return RefusedOutcome(parsed.status());
  MlnProgram p = parsed.TakeValue();
  if (evidence == nullptr) return ParsedOutcome(p, nullptr);
  EvidenceDb db;
  const Status st = ParseEvidence(*evidence, &p, &db);
  if (!st.ok()) return RefusedOutcome(st);
  return ParsedOutcome(p, &db);
}

// Pins both parsers' output, not just its self-consistency: the outcome
// of every ParserFuzzTest input (status code and message of a refusal;
// otherwise the printed program, the symbols in id order, every domain
// in order and every relation's rows in order), folded into one digest
// per 1,000-seed block, and the outcome of parsing each datagen
// dataset's program and evidence, printed back as text. The values were
// recorded before the parser was rewritten to lex without copies, so a
// rewrite must reproduce the old parser's every id, row and message. A
// failing block names its seeds; FuzzInput replays each of them.
TEST(ParserPinTest, OutcomesMatchThePinnedDigests) {
  constexpr uint64_t kBlock = 1000;
  const uint64_t kBlockDigests[kFuzzSeeds / kBlock] = {
      0x8d71642408916a78ull, 0xc71b586e055f3a16ull, 0x2eb04e95689121b0ull,
      0x1bde2c2e4cb36aadull, 0x48c3daa20caae06cull, 0xfb62cabe2f7d8183ull,
      0x97b1513150611ac0ull, 0x97cbd9c4febe6b65ull, 0x242ffa5db3bfb3bbull,
      0x2e4c84780f8ba3e4ull, 0xc3354ceb42be328dull, 0x4faf72654ae24533ull,
      0x9bb80c96c81194d1ull, 0x58dba5faf2d93b5dull, 0x30168c42b408422full,
      0xb8caf43613f3594eull, 0xfe7c14000be4f263ull, 0x40bece2a86f8386cull,
      0x4686bf3023e10655ull, 0x02bcb03b0b68f4faull,
  };
  for (uint64_t block = 0; block < kFuzzSeeds / kBlock; ++block) {
    uint64_t digest = kFnvBasis;
    for (uint64_t seed = block * kBlock; seed < (block + 1) * kBlock;
         ++seed) {
      size_t base = 0;
      const std::string text = FuzzInput(seed, &base);
      digest = Fold(digest, seed % 2 == 0
                                ? ParseOutcome(text, nullptr)
                                : ParseOutcome(FuzzPrograms()[base], &text));
    }
    EXPECT_EQ(digest, kBlockDigests[block])
        << "block " << block << " (seeds " << block * kBlock << "-"
        << (block + 1) * kBlock - 1 << "): digest 0x" << std::hex << digest;
  }

  struct Pinned {
    const char* name;
    Result<Dataset> dataset;
    uint64_t digest;
  };
  const Pinned datasets[] = {
      {"LP", MakeLpDataset(LpParams{}), 0x0cab8bad58f4d660ull},
      {"IE", MakeIeDataset(IeParams{}), 0x9f73eac428eea6d9ull},
      {"RC", MakeRcDataset(RcParams{}), 0xc90d75a48e11d272ull},
      {"ER", MakeErDataset(ErParams{}), 0xa7cca9a41e389435ull},
  };
  for (const Pinned& d : datasets) {
    ASSERT_TRUE(d.dataset.ok()) << d.name;
    const Dataset& ds = d.dataset.value();
    const std::string evidence = PrintEvidence(ds.program, ds.evidence);
    const std::string outcome =
        ParseOutcome(ds.program.ToString(), &evidence);
    EXPECT_EQ(outcome.rfind("refused", 0), std::string::npos)
        << d.name << ": " << outcome;
    const uint64_t digest = Fold(kFnvBasis, outcome);
    EXPECT_EQ(digest, d.digest)
        << d.name << ": digest 0x" << std::hex << digest;
  }
}

TEST(SymbolTableTest, InDomainIsFalseOutsideTheTable) {
  SymbolTable symbols;
  const ConstantId a = symbols.Intern("A", "letter");
  const ConstantId one = symbols.Intern("1", "digit");
  EXPECT_TRUE(symbols.InDomain(a, "letter"));
  EXPECT_FALSE(symbols.InDomain(a, "digit"));
  EXPECT_FALSE(symbols.InDomain(one, "letter"));
  EXPECT_FALSE(symbols.InDomain(-1, "letter"));
  EXPECT_FALSE(symbols.InDomain(2, "letter"));
  EXPECT_FALSE(symbols.InDomain(a, "missing"));
  EXPECT_EQ(symbols.Domain("digit"), std::vector<ConstantId>{one});
}

TEST(SymbolTableTest, InternIsIdempotentAndTracksDomains) {
  SymbolTable symbols;
  ConstantId a1 = symbols.Intern("A", "letter");
  ConstantId a2 = symbols.Intern("A", "letter");
  EXPECT_EQ(a1, a2);
  symbols.Intern("B", "letter");
  symbols.Intern("A", "other");
  EXPECT_EQ(symbols.Domain("letter").size(), 2u);
  EXPECT_EQ(symbols.Domain("other").size(), 1u);
  EXPECT_EQ(symbols.Domain("missing").size(), 0u);
  EXPECT_EQ(symbols.num_constants(), 2u);
  EXPECT_EQ(symbols.SymbolName(a1), "A");
}

}  // namespace
}  // namespace tuffy
