#ifndef TUFFY_MLN_PARSER_H_
#define TUFFY_MLN_PARSER_H_

#include <string_view>

#include "mln/model.h"
#include "util/result.h"

namespace tuffy {

/// Parses an MLN program in Alchemy-flavored syntax:
///
///   // comment
///   *refers(paper, paper)          // '*' marks a closed-world predicate
///   cat(paper, category)
///   5   cat(p, c1), cat(p, c2) => c1 = c2
///   1   wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
///   -1  cat(p, "Networking")
///   paper(p, u) => EXIST x wrote(x, p).   // trailing '.' = hard rule
///
/// Rules are converted to clausal form: body atoms are negated, the head
/// disjunction is kept, and (dis)equality disjuncts become
/// EqualityConstraints. Identifiers starting with a lowercase letter are
/// variables; quoted strings, capitalized identifiers, and numbers are
/// constants.
///
/// An existential literal (one with an EXIST variable among its
/// arguments) may hold at most 8 existential argument positions, and its
/// predicate may have at most 32 arguments (kMaxExistentialPositions and
/// kMaxExistentialArity); a rule past either limit is a ParseError.
Result<MlnProgram> ParseProgram(std::string_view text);

/// Parses evidence lines into `db`:
///
///   wrote(Joe, P1)
///   !cat(P3, "AI")     // negative evidence
///
/// One atom per line: anything after it but a `//` comment is a
/// ParseError ("trailing tokens").
/// Constants are interned into the program's symbol table using the
/// declared argument types of each predicate.
Status ParseEvidence(std::string_view text, MlnProgram* program,
                     EvidenceDb* db);

}  // namespace tuffy

#endif  // TUFFY_MLN_PARSER_H_
