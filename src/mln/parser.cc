#include "mln/parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "util/string_util.h"

namespace tuffy {

namespace {

enum class TokType {
  kIdent,    // bare identifier or quoted string (quoted_ set)
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

struct Token {
  TokType type = TokType::kEnd;
  std::string text;
  bool quoted = false;
};

/// Tokenizes one source line.
class Lexer {
 public:
  explicit Lexer(std::string_view line) : line_(line) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (pos_ < line_.size()) {
      char c = line_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '/' && pos_ + 1 < line_.size() && line_[pos_ + 1] == '/') break;
      if (c == '(') {
        out.push_back({TokType::kLParen, "("});
        ++pos_;
      } else if (c == ')') {
        out.push_back({TokType::kRParen, ")"});
        ++pos_;
      } else if (c == ',') {
        out.push_back({TokType::kComma, ","});
        ++pos_;
      } else if (c == '!') {
        if (pos_ + 1 < line_.size() && line_[pos_ + 1] == '=') {
          out.push_back({TokType::kNeq, "!="});
          pos_ += 2;
        } else {
          out.push_back({TokType::kBang, "!"});
          ++pos_;
        }
      } else if (c == '=') {
        if (pos_ + 1 < line_.size() && line_[pos_ + 1] == '>') {
          out.push_back({TokType::kImplies, "=>"});
          pos_ += 2;
        } else {
          out.push_back({TokType::kEq, "="});
          ++pos_;
        }
      } else if (c == '.') {
        out.push_back({TokType::kPeriod, "."});
        ++pos_;
      } else if (c == '"' || c == '\'') {
        char quote = c;
        size_t end = line_.find(quote, pos_ + 1);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated string literal");
        }
        Token t;
        t.type = TokType::kIdent;
        t.text = std::string(line_.substr(pos_ + 1, end - pos_ - 1));
        t.quoted = true;
        out.push_back(std::move(t));
        pos_ = end + 1;
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '+') {
        size_t start = pos_;
        ++pos_;
        while (pos_ < line_.size() &&
               (std::isdigit(static_cast<unsigned char>(line_[pos_])) ||
                line_[pos_] == '.' || line_[pos_] == 'e' ||
                line_[pos_] == 'E' ||
                ((line_[pos_] == '-' || line_[pos_] == '+') &&
                 (line_[pos_ - 1] == 'e' || line_[pos_ - 1] == 'E')))) {
          ++pos_;
        }
        out.push_back(
            {TokType::kNumber, std::string(line_.substr(start, pos_ - start))});
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < line_.size() &&
               (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
                line_[pos_] == '_')) {
          ++pos_;
        }
        out.push_back(
            {TokType::kIdent, std::string(line_.substr(start, pos_ - start))});
      } else if (c == '*') {
        out.push_back({TokType::kIdent, "*"});
        ++pos_;
      } else {
        return Status::ParseError(StrFormat("unexpected character '%c'", c));
      }
    }
    out.push_back({TokType::kEnd, ""});
    return out;
  }

 private:
  std::string_view line_;
  size_t pos_ = 0;
};

/// True if the identifier denotes a variable (starts lowercase, unquoted).
bool IsVariableName(const Token& t) {
  return t.type == TokType::kIdent && !t.quoted && !t.text.empty() &&
         std::islower(static_cast<unsigned char>(t.text[0]));
}

/// Parses the body of one rule line into a Clause.
class RuleParser {
 public:
  RuleParser(std::vector<Token> tokens, MlnProgram* program)
      : tokens_(std::move(tokens)), program_(program) {}

  Result<Clause> Parse(double weight, bool* hard_out) {
    clause_.weight = weight;

    // Collect the left-hand side (conjunction) if an implication exists.
    // We scan for a top-level "=>" first.
    int implies_pos = -1;
    for (size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].type == TokType::kImplies) {
        implies_pos = static_cast<int>(i);
        break;
      }
    }

    if (implies_pos >= 0) {
      // Parse body atoms (comma-separated), negating each into the clause.
      TUFFY_RETURN_IF_ERROR(ParseAtomList(/*end=*/implies_pos,
                                          /*negate=*/true,
                                          /*allow_exist=*/false));
      pos_ = static_cast<size_t>(implies_pos) + 1;
      TUFFY_RETURN_IF_ERROR(ParseDisjunction(/*negate=*/false));
    } else {
      TUFFY_RETURN_IF_ERROR(ParseDisjunction(/*negate=*/false));
    }

    if (Cur().type == TokType::kPeriod) {
      *hard_out = true;
      ++pos_;
    }
    if (Cur().type != TokType::kEnd) {
      return Status::ParseError(
          StrFormat("trailing tokens starting at '%s'", Cur().text.c_str()));
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

  Result<Term> MakeTerm(const Token& tok, const std::string& type) {
    if (IsVariableName(tok) && !tok.quoted) {
      auto it = var_ids_.find(tok.text);
      VarId v;
      if (it != var_ids_.end()) {
        v = it->second;
      } else {
        v = static_cast<VarId>(var_ids_.size());
        var_ids_[tok.text] = v;
        clause_.var_names.push_back(tok.text);
      }
      return Term::Var(v);
    }
    ConstantId c = program_->symbols().Intern(tok.text, type);
    return Term::Const(c);
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
          StrFormat("expected atom, got '%s'", Cur().text.c_str()));
    }
    // Equality disjunct: term (=|!=) term.
    if (Peek().type == TokType::kEq || Peek().type == TokType::kNeq) {
      Token lhs_tok = Cur();
      ++pos_;
      bool equal = Cur().type == TokType::kEq;
      ++pos_;
      Token rhs_tok = Cur();
      if (rhs_tok.type != TokType::kIdent && rhs_tok.type != TokType::kNumber) {
        return Status::ParseError("expected term after (in)equality");
      }
      ++pos_;
      // Types are resolved later from literal usage; intern constants into
      // the anonymous type "_const".
      TUFFY_ASSIGN_OR_RETURN(Term lhs, MakeTerm(lhs_tok, "_const"));
      TUFFY_ASSIGN_OR_RETURN(Term rhs, MakeTerm(rhs_tok, "_const"));
      if (bang) equal = !equal;
      if (negate) equal = !equal;
      clause_.equalities.push_back(EqualityConstraint{lhs, rhs, equal});
      return Status::OK();
    }
    // Predicate atom.
    if (Cur().type != TokType::kIdent || Cur().quoted) {
      return Status::ParseError("expected predicate name");
    }
    std::string pred_name = Cur().text;
    ++pos_;
    TUFFY_ASSIGN_OR_RETURN(PredicateId pid,
                           program_->FindPredicate(pred_name));
    const Predicate& pred = program_->predicate(pid);
    if (Cur().type != TokType::kLParen) {
      return Status::ParseError(
          StrFormat("expected '(' after %s", pred_name.c_str()));
    }
    ++pos_;
    Literal lit;
    lit.pred = pid;
    int arg_idx = 0;
    while (Cur().type != TokType::kRParen) {
      if (Cur().type != TokType::kIdent && Cur().type != TokType::kNumber) {
        return Status::ParseError(
            StrFormat("bad term '%s' in %s", Cur().text.c_str(),
                      pred_name.c_str()));
      }
      if (arg_idx >= pred.arity()) {
        return Status::ParseError(
            StrFormat("too many arguments to %s", pred_name.c_str()));
      }
      TUFFY_ASSIGN_OR_RETURN(Term t,
                             MakeTerm(Cur(), pred.arg_types[arg_idx]));
      lit.args.push_back(t);
      ++arg_idx;
      ++pos_;
      if (Cur().type == TokType::kComma) {
        ++pos_;
      } else if (Cur().type != TokType::kRParen) {
        return Status::ParseError("expected ',' or ')' in argument list");
      }
    }
    ++pos_;  // consume ')'
    if (arg_idx != pred.arity()) {
      return Status::ParseError(
          StrFormat("predicate %s expects %d args, got %d", pred_name.c_str(),
                    pred.arity(), arg_idx));
    }
    lit.positive = !bang;
    if (negate) lit.positive = !lit.positive;
    clause_.literals.push_back(std::move(lit));
    return Status::OK();
  }

  /// Parses a comma-separated atom list up to token index `end`.
  Status ParseAtomList(int end, bool negate, bool allow_exist) {
    (void)allow_exist;
    while (static_cast<int>(pos_) < end) {
      TUFFY_RETURN_IF_ERROR(ParseAtomOrEquality(negate));
      if (static_cast<int>(pos_) < end) {
        if (Cur().type != TokType::kComma) {
          return Status::ParseError(
              StrFormat("expected ',' in rule body, got '%s'",
                        Cur().text.c_str()));
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
        if (Cur().type != TokType::kIdent || !IsVariableName(Cur())) {
          return Status::ParseError("expected variable after EXIST");
        }
        auto it = var_ids_.find(Cur().text);
        VarId v;
        if (it != var_ids_.end()) {
          v = it->second;
        } else {
          v = static_cast<VarId>(var_ids_.size());
          var_ids_[Cur().text] = v;
          clause_.var_names.push_back(Cur().text);
        }
        clause_.existential_vars.push_back(v);
        ++pos_;
        if (Cur().type == TokType::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    while (true) {
      TUFFY_RETURN_IF_ERROR(ParseAtomOrEquality(negate));
      if (Cur().type == TokType::kIdent && !Cur().quoted &&
          (Cur().text == "v" || Cur().text == "V")) {
        ++pos_;
        continue;
      }
      break;
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  MlnProgram* program_;
  Clause clause_;
  std::unordered_map<std::string, VarId> var_ids_;
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
    if (toks[i].type != TokType::kIdent || toks[i].quoted) return false;
    if (!IsVariableName(toks[i])) return false;
    ++i;
    if (toks[i].type == TokType::kComma) {
      ++i;
      continue;
    }
    break;
  }
  if (toks[i].type != TokType::kRParen) return false;
  ++i;
  return toks[i].type == TokType::kEnd;
}

}  // namespace

Result<MlnProgram> ParseProgram(const std::string& text) {
  MlnProgram program;
  int line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw_line);
    if (line.empty() || StartsWith(line, "//") || StartsWith(line, "#")) {
      continue;
    }
    Lexer lexer(line);
    auto toks_result = lexer.Tokenize();
    if (!toks_result.ok()) {
      return Status::ParseError(StrFormat(
          "line %d: %s", line_no, toks_result.status().message().c_str()));
    }
    std::vector<Token> toks = toks_result.TakeValue();
    if (toks.size() <= 1) continue;

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
        pred.arg_types.push_back(toks[i].text);
        ++i;
        if (toks[i].type == TokType::kComma) ++i;
      }
      auto added = program.AddPredicate(std::move(pred));
      if (!added.ok()) {
        return Status::ParseError(StrFormat(
            "line %d: %s", line_no, added.status().message().c_str()));
      }
      continue;
    }

    // Rule: optional leading numeric weight, then the formula. A trailing
    // '.' marks a hard rule.
    double weight = 0.0;
    bool has_weight = false;
    size_t start = 0;
    if (toks[0].type == TokType::kNumber) {
      // Disambiguate "a weight" from a formula starting with a numeric
      // constant: a weight is followed by an identifier or '!'.
      if (toks.size() > 1 && (toks[1].type == TokType::kIdent ||
                              toks[1].type == TokType::kBang)) {
        weight = std::strtod(toks[0].text.c_str(), nullptr);
        if (!std::isfinite(weight)) {
          // A hard rule is written with a trailing '.', not an infinite
          // weight; ToString could not print this one back.
          return Status::ParseError(StrFormat(
              "line %d: weight %s is not finite", line_no,
              toks[0].text.c_str()));
        }
        has_weight = true;
        start = 1;
      }
    }
    std::vector<Token> rule_toks(toks.begin() + start, toks.end());
    RuleParser rp(std::move(rule_toks), &program);
    bool hard = false;
    auto clause_result = rp.Parse(weight, &hard);
    if (!clause_result.ok()) {
      return Status::ParseError(StrFormat(
          "line %d: %s", line_no, clause_result.status().message().c_str()));
    }
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
    if (!st.ok()) {
      return Status::ParseError(
          StrFormat("line %d: %s", line_no, st.message().c_str()));
    }
  }
  return program;
}

Status ParseEvidence(const std::string& text, MlnProgram* program,
                     EvidenceDb* db) {
  int line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw_line);
    if (line.empty() || StartsWith(line, "//") || StartsWith(line, "#")) {
      continue;
    }
    Lexer lexer(line);
    auto toks_result = lexer.Tokenize();
    if (!toks_result.ok()) {
      return Status::ParseError(StrFormat(
          "line %d: %s", line_no, toks_result.status().message().c_str()));
    }
    std::vector<Token> toks = toks_result.TakeValue();
    if (toks.size() <= 1) continue;
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
    std::string name = toks[i].text;
    ++i;
    auto pid_result = program->FindPredicate(name);
    if (!pid_result.ok()) {
      return Status::ParseError(StrFormat("line %d: unknown predicate %s",
                                          line_no, name.c_str()));
    }
    PredicateId pid = pid_result.TakeValue();
    const Predicate& pred = program->predicate(pid);
    if (toks[i].type != TokType::kLParen) {
      return Status::ParseError(StrFormat("line %d: expected '('", line_no));
    }
    ++i;
    GroundAtom atom;
    atom.pred = pid;
    int arg_idx = 0;
    while (toks[i].type != TokType::kRParen) {
      if (toks[i].type != TokType::kIdent && toks[i].type != TokType::kNumber) {
        return Status::ParseError(
            StrFormat("line %d: bad constant '%s'", line_no,
                      toks[i].text.c_str()));
      }
      if (arg_idx >= pred.arity()) {
        return Status::ParseError(
            StrFormat("line %d: too many arguments to %s", line_no,
                      name.c_str()));
      }
      atom.args.push_back(
          program->symbols().Intern(toks[i].text, pred.arg_types[arg_idx]));
      ++arg_idx;
      ++i;
      if (toks[i].type == TokType::kComma) ++i;
    }
    if (arg_idx != pred.arity()) {
      return Status::ParseError(StrFormat(
          "line %d: %s expects %d args, got %d", line_no, name.c_str(),
          pred.arity(), arg_idx));
    }
    ++i;  // past ')'
    if (toks[i].type != TokType::kEnd) {
      return Status::ParseError(
          StrFormat("line %d: trailing tokens starting at '%s'", line_no,
                    toks[i].text.c_str()));
    }
    db->Add(std::move(atom), truth);
  }
  return Status::OK();
}

}  // namespace tuffy
