#include "mln/parser.h"

#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace tuffy {

namespace {

enum class TokType {
  kIdent,    // bare identifier or quoted string (quoted set)
  kNumber,   // numeric literal
  kLParen,
  kRParen,
  kComma,
  kBang,
  kImplies,  // =>
  kEq,       // =
  kNeq,      // !=
  kPeriod,
  kEnd,
};

/// A token: a view into the parsed text (a quoted string's view excludes
/// its quotes), valid while that text lives.
struct Token {
  TokType type = TokType::kEnd;
  std::string_view text;
  bool quoted = false;
};

// The C locale's character classes, spelled out so that no process
// locale can change what lexes.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsLower(char c) { return c >= 'a' && c <= 'z'; }
bool IsAlpha(char c) { return IsLower(c) || (c >= 'A' && c <= 'Z'); }
bool IsWord(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }

/// A token's text as a string, for messages and strtod.
std::string Text(const Token& t) { return std::string(t.text); }

/// `st`'s message, prefixed with its line number.
Status LineError(int line_no, const Status& st) {
  return Status::ParseError(
      StrFormat("line %d: %s", line_no, st.message().c_str()));
}

/// The lexer of both parsers. It walks the text a line at a time and
/// lexes each line's tokens, as views into the text, into one vector
/// reused across lines, so no line and no token is copied.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Lexes the next line into tokens(), which then ends with a kEnd
  /// token (and holds only that for a blank or comment line). Returns
  /// false once the text is exhausted, or on a lexing error, which
  /// *error then holds.
  bool NextLine(Status* error) {
    if (next_ > text_.size()) return false;
    size_t end = text_.find('\n', next_);
    if (end == std::string_view::npos) end = text_.size();
    const std::string_view line = text_.substr(next_, end - next_);
    next_ = end + 1;
    ++line_no_;
    tokens_.clear();
    Status st = Tokenize(line);
    if (!st.ok()) {
      *error = LineError(line_no_, st);
      return false;
    }
    tokens_.push_back({TokType::kEnd, {}, false});
    return true;
  }

  const std::vector<Token>& tokens() const { return tokens_; }
  int line_no() const { return line_no_; }

 private:
  Status Tokenize(std::string_view line) {
    size_t pos = 0;
    while (pos < line.size() && IsSpace(line[pos])) ++pos;
    if (pos < line.size() && line[pos] == '#') return Status::OK();
    const auto punct = [&](TokType type, size_t len) {
      tokens_.push_back({type, line.substr(pos, len), false});
      pos += len;
    };
    while (pos < line.size()) {
      const char c = line[pos];
      const char next = pos + 1 < line.size() ? line[pos + 1] : '\0';
      if (IsSpace(c)) {
        ++pos;
      } else if (c == '/' && next == '/') {
        break;  // a comment runs to the end of the line
      } else if (c == '(') {
        punct(TokType::kLParen, 1);
      } else if (c == ')') {
        punct(TokType::kRParen, 1);
      } else if (c == ',') {
        punct(TokType::kComma, 1);
      } else if (c == '!') {
        next == '=' ? punct(TokType::kNeq, 2) : punct(TokType::kBang, 1);
      } else if (c == '=') {
        next == '>' ? punct(TokType::kImplies, 2) : punct(TokType::kEq, 1);
      } else if (c == '.') {
        punct(TokType::kPeriod, 1);
      } else if (c == '*') {
        punct(TokType::kIdent, 1);
      } else if (c == '"' || c == '\'') {
        const size_t end = line.find(c, pos + 1);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated string literal");
        }
        tokens_.push_back(
            {TokType::kIdent, line.substr(pos + 1, end - pos - 1), true});
        pos = end + 1;
      } else if (IsDigit(c) || c == '-' || c == '+') {
        const size_t start = pos++;
        while (pos < line.size() &&
               (IsDigit(line[pos]) || line[pos] == '.' || line[pos] == 'e' ||
                line[pos] == 'E' ||
                ((line[pos] == '-' || line[pos] == '+') &&
                 (line[pos - 1] == 'e' || line[pos - 1] == 'E')))) {
          ++pos;
        }
        tokens_.push_back(
            {TokType::kNumber, line.substr(start, pos - start), false});
      } else if (IsAlpha(c) || c == '_') {
        const size_t start = pos;
        while (pos < line.size() && IsWord(line[pos])) ++pos;
        tokens_.push_back(
            {TokType::kIdent, line.substr(start, pos - start), false});
      } else {
        return Status::ParseError(StrFormat("unexpected character '%c'", c));
      }
    }
    return Status::OK();
  }

  std::string_view text_;
  size_t next_ = 0;  // start of the next line
  int line_no_ = 0;
  std::vector<Token> tokens_;
};

/// True if the identifier denotes a variable (starts lowercase, unquoted).
bool IsVariableName(const Token& t) {
  return t.type == TokType::kIdent && !t.quoted && !t.text.empty() &&
         IsLower(t.text[0]);
}

/// Reads `pred`'s argument list `(t1, ..., tk)` starting at toks[*pos],
/// calling `on_term(token, position)` for each term, and leaves *pos past
/// the ')'. Both parsers read argument lists here, so both refuse a
/// missing comma, a trailing comma and a missing ')'.
template <typename OnTerm>
Status ReadArguments(const std::vector<Token>& toks, size_t* pos,
                     const Predicate& pred, const OnTerm& on_term) {
  size_t i = *pos;
  if (toks[i].type != TokType::kLParen) {
    return Status::ParseError(
        StrFormat("expected '(' after %s", pred.name.c_str()));
  }
  ++i;
  int n = 0;
  // An empty list falls through to the arity check.
  while (n > 0 || toks[i].type != TokType::kRParen) {
    if (toks[i].type != TokType::kIdent && toks[i].type != TokType::kNumber) {
      return Status::ParseError(StrFormat(
          "bad term '%s' in %s", Text(toks[i]).c_str(), pred.name.c_str()));
    }
    if (n >= pred.arity()) {
      return Status::ParseError(
          StrFormat("too many arguments to %s", pred.name.c_str()));
    }
    on_term(toks[i], n);
    ++n;
    ++i;
    if (toks[i].type == TokType::kRParen) break;
    if (toks[i].type != TokType::kComma) {
      return Status::ParseError("expected ',' or ')' in argument list");
    }
    ++i;
  }
  ++i;  // past ')'
  if (n != pred.arity()) {
    return Status::ParseError(StrFormat("predicate %s expects %d args, got %d",
                                        pred.name.c_str(), pred.arity(), n));
  }
  *pos = i;
  return Status::OK();
}

/// Parses the body of one rule line, tokens[start..], into a Clause.
class RuleParser {
 public:
  RuleParser(const std::vector<Token>& tokens, size_t start,
             MlnProgram* program)
      : tokens_(tokens), pos_(start), program_(program) {}

  Result<Clause> Parse(double weight, bool* hard_out) {
    clause_.weight = weight;

    // A top-level "=>" splits a conjunctive body from the head.
    int implies_pos = -1;
    for (size_t i = pos_; i < tokens_.size(); ++i) {
      if (tokens_[i].type == TokType::kImplies) {
        implies_pos = static_cast<int>(i);
        break;
      }
    }
    if (implies_pos >= 0) {
      // Parse body atoms (comma-separated), negating each into the clause.
      TUFFY_RETURN_IF_ERROR(ParseAtomList(/*end=*/implies_pos,
                                          /*negate=*/true));
      pos_ = static_cast<size_t>(implies_pos) + 1;
    }
    TUFFY_RETURN_IF_ERROR(ParseDisjunction(/*negate=*/false));

    if (Cur().type == TokType::kPeriod) {
      *hard_out = true;
      ++pos_;
    }
    if (Cur().type != TokType::kEnd) {
      return Status::ParseError(
          StrFormat("trailing tokens starting at '%s'", Text(Cur()).c_str()));
    }
    clause_.num_vars = static_cast<int>(var_ids_.size());
    return std::move(clause_);
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  /// The variable named `name`, numbered by first appearance.
  VarId Variable(std::string_view name) {
    const auto [it, added] =
        var_ids_.try_emplace(name, static_cast<VarId>(var_ids_.size()));
    if (added) clause_.var_names.emplace_back(name);
    return it->second;
  }

  Term MakeTerm(const Token& tok, const std::string& type) {
    if (IsVariableName(tok)) return Term::Var(Variable(tok.text));
    return Term::Const(program_->symbols().Intern(tok.text, type));
  }

  /// Parses `[!]name(t1,...,tk)` or `t1 = t2` / `t1 != t2`.
  /// Appends to clause_ with the given polarity handling: if `negate`,
  /// literal signs are flipped (body of an implication) and equalities
  /// flip their `equal` flag.
  Status ParseAtomOrEquality(bool negate) {
    bool bang = false;
    if (Cur().type == TokType::kBang) {
      bang = true;
      ++pos_;
    }
    if (Cur().type != TokType::kIdent && Cur().type != TokType::kNumber) {
      return Status::ParseError(
          StrFormat("expected atom, got '%s'", Text(Cur()).c_str()));
    }
    // Equality disjunct: term (=|!=) term.
    if (Peek().type == TokType::kEq || Peek().type == TokType::kNeq) {
      const Token& lhs_tok = Cur();
      ++pos_;
      bool equal = Cur().type == TokType::kEq;
      ++pos_;
      const Token& rhs_tok = Cur();
      if (rhs_tok.type != TokType::kIdent && rhs_tok.type != TokType::kNumber) {
        return Status::ParseError("expected term after (in)equality");
      }
      ++pos_;
      // Types are resolved later from literal usage; intern constants into
      // the anonymous type "_const".
      const Term lhs = MakeTerm(lhs_tok, "_const");
      const Term rhs = MakeTerm(rhs_tok, "_const");
      if (bang) equal = !equal;
      if (negate) equal = !equal;
      clause_.equalities.push_back(EqualityConstraint{lhs, rhs, equal});
      return Status::OK();
    }
    // Predicate atom.
    if (Cur().type != TokType::kIdent || Cur().quoted) {
      return Status::ParseError("expected predicate name");
    }
    TUFFY_ASSIGN_OR_RETURN(PredicateId pid,
                           program_->FindPredicate(Cur().text));
    ++pos_;
    const Predicate& pred = program_->predicate(pid);
    Literal lit;
    lit.pred = pid;
    TUFFY_RETURN_IF_ERROR(
        ReadArguments(tokens_, &pos_, pred, [&](const Token& tok, int i) {
          lit.args.push_back(MakeTerm(tok, pred.arg_types[i]));
        }));
    lit.positive = !bang;
    if (negate) lit.positive = !lit.positive;
    clause_.literals.push_back(std::move(lit));
    return Status::OK();
  }

  /// Parses a comma-separated atom list up to token index `end`.
  Status ParseAtomList(int end, bool negate) {
    while (static_cast<int>(pos_) < end) {
      TUFFY_RETURN_IF_ERROR(ParseAtomOrEquality(negate));
      if (static_cast<int>(pos_) < end) {
        if (Cur().type != TokType::kComma) {
          return Status::ParseError(
              StrFormat("expected ',' in rule body, got '%s'",
                        Text(Cur()).c_str()));
        }
        ++pos_;
      }
    }
    return Status::OK();
  }

  /// Parses a "v"-separated disjunction, handling a leading EXIST.
  Status ParseDisjunction(bool negate) {
    // Optional leading EXIST var[,var...]
    if (Cur().type == TokType::kIdent &&
        (Cur().text == "EXIST" || Cur().text == "Exist" ||
         Cur().text == "exist")) {
      ++pos_;
      while (true) {
        if (!IsVariableName(Cur())) {
          return Status::ParseError("expected variable after EXIST");
        }
        clause_.existential_vars.push_back(Variable(Cur().text));
        ++pos_;
        if (Cur().type != TokType::kComma) break;
        ++pos_;
      }
    }
    while (true) {
      TUFFY_RETURN_IF_ERROR(ParseAtomOrEquality(negate));
      if (Cur().type != TokType::kIdent || Cur().quoted ||
          (Cur().text != "v" && Cur().text != "V")) {
        break;
      }
      ++pos_;
    }
    return Status::OK();
  }

  const std::vector<Token>& tokens_;
  size_t pos_;
  MlnProgram* program_;
  Clause clause_;
  std::unordered_map<std::string_view, VarId> var_ids_;
};

/// True if the token stream looks like a predicate declaration:
/// [*] ident ( ident {, ident} ) END — with every argument a bare
/// lowercase identifier (a type name) and no weight prefix.
bool LooksLikeDeclaration(const std::vector<Token>& toks) {
  size_t i = 0;
  if (toks[i].type == TokType::kIdent && toks[i].text == "*") ++i;
  if (toks[i].type != TokType::kIdent || toks[i].quoted) return false;
  ++i;
  if (toks[i].type != TokType::kLParen) return false;
  ++i;
  while (true) {
    if (!IsVariableName(toks[i])) return false;
    ++i;
    if (toks[i].type != TokType::kComma) break;
    ++i;
  }
  if (toks[i].type != TokType::kRParen) return false;
  ++i;
  return toks[i].type == TokType::kEnd;
}

}  // namespace

Result<MlnProgram> ParseProgram(std::string_view text) {
  MlnProgram program;
  Lexer lexer(text);
  Status error;
  while (lexer.NextLine(&error)) {
    const std::vector<Token>& toks = lexer.tokens();
    if (toks.size() <= 1) continue;
    const int line_no = lexer.line_no();

    if (LooksLikeDeclaration(toks)) {
      size_t i = 0;
      Predicate pred;
      if (toks[i].text == "*") {
        pred.closed_world = true;
        ++i;
      }
      pred.name = toks[i].text;
      i += 2;  // name, '('
      while (toks[i].type != TokType::kRParen) {
        pred.arg_types.emplace_back(toks[i].text);
        ++i;
        if (toks[i].type == TokType::kComma) ++i;
      }
      auto added = program.AddPredicate(std::move(pred));
      if (!added.ok()) return LineError(line_no, added.status());
      continue;
    }

    // Rule: optional leading numeric weight, then the formula. A trailing
    // '.' marks a hard rule.
    double weight = 0.0;
    bool has_weight = false;
    size_t start = 0;
    // Disambiguate "a weight" from a formula starting with a numeric
    // constant: a weight is followed by an identifier or '!'.
    if (toks[0].type == TokType::kNumber &&
        (toks[1].type == TokType::kIdent || toks[1].type == TokType::kBang)) {
      // strtod reads a copy: the view's text runs on past the token.
      weight = std::strtod(Text(toks[0]).c_str(), nullptr);
      if (!std::isfinite(weight)) {
        // A hard rule is written with a trailing '.', not an infinite
        // weight; ToString could not print this one back.
        return Status::ParseError(StrFormat("line %d: weight %s is not finite",
                                            line_no, Text(toks[0]).c_str()));
      }
      has_weight = true;
      start = 1;
    }
    RuleParser rp(toks, start, &program);
    bool hard = false;
    auto clause_result = rp.Parse(weight, &hard);
    if (!clause_result.ok()) return LineError(line_no, clause_result.status());
    Clause clause = clause_result.TakeValue();
    clause.hard = hard;
    if (hard && has_weight) {
      return Status::ParseError(StrFormat(
          "line %d: hard rule (trailing '.') must not have a weight",
          line_no));
    }
    if (!hard && !has_weight) {
      return Status::ParseError(
          StrFormat("line %d: soft rule is missing a weight", line_no));
    }
    Status st = program.AddClause(std::move(clause));
    if (!st.ok()) return LineError(line_no, st);
  }
  if (!error.ok()) return error;
  return program;
}

Status ParseEvidence(std::string_view text, MlnProgram* program,
                     EvidenceDb* db) {
  SymbolTable& symbols = program->symbols();
  // Each predicate's argument domains, resolved at its first row.
  std::vector<std::vector<SymbolTable::TypeDomain*>> arg_domains(
      program->num_predicates());
  GroundAtom atom;  // one argument vector, reused for every row
  Lexer lexer(text);
  Status error;
  while (lexer.NextLine(&error)) {
    const std::vector<Token>& toks = lexer.tokens();
    if (toks.size() <= 1) continue;
    const int line_no = lexer.line_no();
    size_t i = 0;
    bool truth = true;
    if (toks[i].type == TokType::kBang) {
      truth = false;
      ++i;
    }
    if (toks[i].type != TokType::kIdent) {
      return Status::ParseError(
          StrFormat("line %d: expected predicate name", line_no));
    }
    auto pid_result = program->FindPredicate(toks[i].text);
    if (!pid_result.ok()) {
      return Status::ParseError(StrFormat("line %d: unknown predicate %s",
                                          line_no, Text(toks[i]).c_str()));
    }
    ++i;
    atom.pred = pid_result.value();
    const Predicate& pred = program->predicate(atom.pred);
    std::vector<SymbolTable::TypeDomain*>& domains = arg_domains[atom.pred];
    if (domains.size() != pred.arg_types.size()) {
      for (const std::string& type : pred.arg_types) {
        domains.push_back(symbols.DomainOf(type));
      }
    }
    atom.args.clear();
    Status args = ReadArguments(toks, &i, pred, [&](const Token& tok, int k) {
      atom.args.push_back(symbols.Intern(tok.text, domains[k]));
    });
    if (!args.ok()) return LineError(line_no, args);
    if (toks[i].type != TokType::kEnd) {
      return Status::ParseError(
          StrFormat("line %d: trailing tokens starting at '%s'", line_no,
                    Text(toks[i]).c_str()));
    }
    db->Add(atom, truth);
  }
  return error;
}

}  // namespace tuffy
