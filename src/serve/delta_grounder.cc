#include "serve/delta_grounder.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "ground/atom_loader.h"
#include "ground/bottom_up_grounder.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

namespace {
/// How far a snapshot's clause weight or rule fixed cost may lie from
/// what its counts derive, relative to the summed magnitude of the
/// derivation's terms. Builds before the derivation stored running sums,
/// which drift by more than a few ulps (summing 0.8 two million times
/// lands 3.6e-11 away, relative). A value within the bound loads as the
/// derivation; one outside it, or a NaN, is corruption.
constexpr double kRunningSumDrift = 0x1p-30;  // ~9.3e-10

/// Refuses a delta atom outside the loaded program: an unknown
/// predicate, the wrong arity, or a constant that is not in the domain
/// of its argument's type (sessions serve the universe they were opened
/// with; an out-of-domain constant would ground atoms no from-scratch
/// run would, or index past the symbol table).
Status CheckDeltaAtom(const MlnProgram& program, const GroundAtom& atom,
                      const char* what) {
  if (atom.pred < 0 ||
      atom.pred >= static_cast<PredicateId>(program.num_predicates())) {
    return Status::InvalidArgument(
        StrFormat("delta %s: unknown predicate id", what));
  }
  const Predicate& pred = program.predicate(atom.pred);
  if (atom.args.size() != static_cast<size_t>(pred.arity())) {
    return Status::InvalidArgument(
        StrFormat("delta %s: %s expects %d arguments, got %zu", what,
                  pred.name.c_str(), pred.arity(), atom.args.size()));
  }
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (!program.symbols().InDomain(atom.args[i], pred.arg_types[i])) {
      return Status::InvalidArgument(StrFormat(
          "delta %s: %s argument %zu (constant id %d) is not in the %s "
          "domain",
          what, pred.name.c_str(), i, atom.args[i],
          pred.arg_types[i].c_str()));
    }
  }
  return Status::OK();
}

/// Reads one stored literal set: a u32 count, then that many i32
/// literals, strictly ascending, each naming one of the first
/// `num_atoms` atoms. False on a short read or a bad literal; the count
/// sizes nothing before its bytes are known to be there.
bool ReadLits(BinaryReader* in, uint32_t num_atoms, std::vector<Lit>* lits) {
  const uint32_t n = in->U32();
  if (!in->ok() || size_t{n} * sizeof(Lit) > in->remaining()) return false;
  lits->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Lit l = in->I32();
    if (l == 0 || l == INT32_MIN || LitAtom(l) >= num_atoms ||
        (i > 0 && l <= (*lits)[i - 1])) {
      return false;
    }
    (*lits)[i] = l;
  }
  return in->ok();
}
}  // namespace

void EncodeGroundAtom(const GroundAtom& atom, BinaryWriter* out) {
  out->I32(atom.pred);
  out->U16(static_cast<uint16_t>(atom.args.size()));
  for (ConstantId c : atom.args) out->I32(c);
}

bool DecodeGroundAtom(BinaryReader* in, GroundAtom* atom) {
  atom->pred = in->I32();
  const uint16_t nargs = in->U16();
  // 4 bytes per argument still unread: a forged count cannot over-size.
  if (static_cast<size_t>(nargs) * 4 > in->remaining()) in->Invalidate();
  if (!in->ok()) return false;
  atom->args.resize(nargs);
  for (uint16_t i = 0; i < nargs; ++i) atom->args[i] = in->I32();
  return in->ok();
}

void EncodeEvidenceDelta(const EvidenceDelta& delta, BinaryWriter* out) {
  out->U32(static_cast<uint32_t>(delta.assertions.size()));
  for (const auto& [atom, truth] : delta.assertions) {
    EncodeGroundAtom(atom, out);
    out->U8(truth ? 1 : 0);
  }
  out->U32(static_cast<uint32_t>(delta.retractions.size()));
  for (const GroundAtom& atom : delta.retractions) EncodeGroundAtom(atom, out);
}

bool DecodeEvidenceDelta(BinaryReader* in, EvidenceDelta* delta) {
  *delta = EvidenceDelta();
  // Counts are never trusted to size anything: each entry is read (and
  // bounds-checked) before the next, so a forged count fails on the
  // first missing byte.
  const uint32_t nassert = in->U32();
  for (uint32_t i = 0; i < nassert && in->ok(); ++i) {
    GroundAtom atom;
    if (!DecodeGroundAtom(in, &atom)) return false;
    const uint8_t truth = in->U8();
    if (truth > 1) in->Invalidate();
    delta->Assert(std::move(atom), truth == 1);
  }
  const uint32_t nretract = in->U32();
  for (uint32_t i = 0; i < nretract && in->ok(); ++i) {
    GroundAtom atom;
    if (!DecodeGroundAtom(in, &atom)) return false;
    delta->Retract(std::move(atom));
  }
  return in->ok();
}

DeltaGrounder::DeltaGrounder(const MlnProgram& program,
                             GroundingOptions ground_options,
                             OptimizerOptions optimizer_options)
    : program_(program),
      ground_options_(ground_options),
      optimizer_options_(optimizer_options),
      rules_(program) {
  // Delta composability requires rule-local grounding; the lazy closure
  // is a whole-program fixpoint, so it is forced off (see class comment).
  ground_options_.lazy_closure = false;
}

Status DeltaGrounder::Initialize(const EvidenceDb& initial_evidence) {
  if (initialized_) return Status::Internal("DeltaGrounder reinitialized");
  initialized_ = true;
  // Armed for the whole build: a failed initialization is half-loaded
  // state, and ApplyDelta must refuse it just like a half-applied delta.
  poisoned_ = true;
  // The copy carries the relations; from here on every delta edits them
  // in place, O(1) per changed atom.
  evidence_ = initial_evidence;
  TUFFY_RETURN_IF_ERROR(BuildDerivedState());

  // One exhaustive batch Ground is the first new part; the old part is
  // empty. Its result is released before ApplyEdits builds the store, so
  // the two never peak together.
  std::vector<CountEdit> parts;
  {
    BottomUpGrounder grounder(program_, evidence_, ground_options_,
                              optimizer_options_);
    TUFFY_ASSIGN_OR_RETURN(GroundingResult full, grounder.Ground());
    rule_fixed_groundings_ = std::move(full.rule_fixed_groundings);
    rule_contradiction_.assign(full.rule_hard_violations.begin(),
                               full.rule_hard_violations.end());
    AppendPart(full, +1, &parts);
  }
  GroundEdits edits;
  ApplyEdits(std::move(parts), &edits);
  poisoned_ = false;
  return Status::OK();
}

Status DeltaGrounder::BuildDerivedState() {
  const size_t num_rules = program_.clauses().size();
  rule_trivial_.assign(num_rules, 0);
  rule_binding_mask_.assign(num_rules, 0);

  rules_of_predicate_.assign(program_.num_predicates(), {});
  for (size_t r = 0; r < num_rules; ++r) {
    std::vector<uint8_t> seen(program_.num_predicates(), 0);
    for (const Literal& lit : program_.clauses()[r].literals) {
      if (!seen[lit.pred]) {
        seen[lit.pred] = 1;
        rules_of_predicate_[lit.pred].push_back(static_cast<int>(r));
      }
    }
  }

  // The catalog holds the domain tables only; binding literals scan the
  // evidence relations in place. Their stats are a pure function of the
  // rows and row order, which a snapshot preserves, so a grounder
  // restored from one plans — and hence enumerates future candidate
  // bindings and assigns session atom ids — exactly like the never-saved
  // original.
  TUFFY_RETURN_IF_ERROR(LoadMlnTables(program_, evidence_, &catalog_));
  true_stats_ = AnalyzeClosedWorldEvidence(program_, evidence_);

  for (size_t r = 0; r < num_rules; ++r) {
    TUFFY_ASSIGN_OR_RETURN(
        RuleBindingQuery rq,
        BuildRuleBindingQuery(program_, static_cast<int>(r), catalog_,
                              evidence_, true_stats_,
                              /*plan_antijoins=*/false));
    rule_trivial_[r] = rq.trivial ? 1 : 0;
    rule_binding_mask_[r] = rq.binding_lit_mask;
  }
  return Status::OK();
}

void DeltaGrounder::AppendPart(const GroundingResult& part, int sign,
                               std::vector<CountEdit>* edits) {
  // Remap the part's atom ids into the session atom universe. The remap
  // is injective, so the part's duplicate merging carries over: each of
  // its clauses is one literal set.
  std::vector<Lit> lits;
  const std::vector<GroundClause>& clauses = part.clauses.clauses();
  for (size_t i = 0; i < clauses.size(); ++i) {
    lits.clear();
    for (Lit l : clauses[i].lits) {
      AtomId global = atoms_.GetOrCreate(part.atoms.atom(LitAtom(l)));
      lits.push_back(MakeLit(global, LitPositive(l)));
    }
    std::sort(lits.begin(), lits.end());
    part.clauses.ForEachContribution(i, [&](int32_t rule, uint32_t count) {
      edits->push_back(
          CountEdit{lits, rule, sign * static_cast<int64_t>(count)});
    });
  }
}

Result<GroundingResult> DeltaGrounder::ResolveEnumerated(
    int rule_idx, const std::vector<Assignment>& affected,
    GroundEdits* edits) {
  std::vector<const Assignment*> enumerated;
  enumerated.reserve(affected.size());
  for (const Assignment& b : affected) {
    if (BindingEnumerated(rule_idx, b)) enumerated.push_back(&b);
  }
  edits->bindings_resolved += enumerated.size();
  // Delta batches are tiny; a candidate-atom table would spend more time
  // zeroing domain-product-sized cell arrays than the hash probes it
  // saves, so only large batches get one.
  std::unique_ptr<CandidateAtomTable> table;
  if (enumerated.size() >= 4096) {
    table = std::make_unique<CandidateAtomTable>(program_);
  }
  GroundingContext ctx(program_, evidence_, ground_options_, table.get());
  for (const Assignment* b : enumerated) ctx.AddCandidate(rule_idx, *b);
  return ctx.Finalize();
}

bool DeltaGrounder::BindingEnumerated(int rule_idx,
                                      const Assignment& binding) const {
  const Clause& clause = program_.clauses()[rule_idx];
  const uint64_t mask = rule_binding_mask_[rule_idx];
  GroundAtom atom;
  for (size_t li = 0; li < clause.literals.size(); ++li) {
    if (((mask >> li) & 1) == 0) continue;
    const Literal& lit = clause.literals[li];
    atom.pred = lit.pred;
    atom.args.resize(lit.args.size());
    for (size_t i = 0; i < lit.args.size(); ++i) {
      const Term& t = lit.args[i];
      atom.args[i] = t.is_var ? binding[t.id] : t.id;
    }
    if (evidence_.Lookup(program_, atom) != Truth::kTrue) return false;
  }
  return true;
}

void DeltaGrounder::ApplyEdits(std::vector<CountEdit> edits,
                               GroundEdits* out) {
  // Edits apply in sorted literal order (rules ascending within one
  // literal set), not in the order the re-grounds produced them. The
  // clause list evolves by append and swap-with-last removal, so the
  // order edits land decides every clause's final position. Sorting
  // makes the clause list a pure function of the logical state, which
  // the crash-recovery bit-identity guarantee (docs/DURABILITY.md) rests
  // on.
  std::sort(edits.begin(), edits.end(),
            [](const CountEdit& a, const CountEdit& b) {
              const auto order = a.lits <=> b.lits;
              return order != 0 ? order < 0 : a.rule < b.rule;
            });
  // Net count change per rule on the current literal set.
  std::vector<std::pair<int32_t, int64_t>> changes;
  for (size_t i = 0; i < edits.size();) {
    const std::vector<Lit>& lits = edits[i].lits;
    changes.clear();
    for (; i < edits.size() && edits[i].lits == lits; ++i) {
      if (changes.empty() || changes.back().first != edits[i].rule) {
        changes.emplace_back(edits[i].rule, 0);
      }
      changes.back().second += edits[i].count;
    }
    // An old and a new part that agree cancel out: nothing to look up.
    std::erase_if(changes, [](const auto& c) { return c.second == 0; });
    if (changes.empty()) continue;

    bool added = false;
    const size_t idx = store_.FindOrAppend(lits, &added);
    for (const auto& [rule, delta] : changes) {
      store_.AddRuleCount(idx, rule, delta);
    }
    GroundClause& clause = store_.mutable_clauses()[idx];
    double weight = 0.0;
    bool hard = false;
    if (!store_.DeriveWeight(idx, rules_.weight, rules_.hard, &weight,
                             &hard)) {
      // Last contribution gone (or, for a just-appended clause, none
      // arrived): swap-remove it.
      if (!added) {
        for (Lit l : clause.lits) out->dirty_atoms.push_back(LitAtom(l));
        ++out->clauses_removed;
      }
      store_.SwapRemove(idx);
      continue;
    }
    if (!added && weight == clause.weight && hard == clause.hard) continue;
    clause.weight = weight;
    clause.hard = hard;
    ++(added ? out->clauses_added : out->clauses_reweighted);
    for (Lit l : clause.lits) out->dirty_atoms.push_back(LitAtom(l));
  }
  std::sort(out->dirty_atoms.begin(), out->dirty_atoms.end());
  out->dirty_atoms.erase(
      std::unique(out->dirty_atoms.begin(), out->dirty_atoms.end()),
      out->dirty_atoms.end());
}

Result<GroundEdits> DeltaGrounder::ApplyDelta(const EvidenceDelta& delta) {
  if (!initialized_) return Status::Internal("DeltaGrounder not initialized");
  if (poisoned_) {
    return Status::Internal(
        "session poisoned by an earlier failed delta; reopen the session");
  }
  Timer timer;
  GroundEdits edits;

  // Fold the batch into one net operation per atom. A delta is a set,
  // not a sequence: an atom both retracted and asserted in one batch
  // nets to the assertion (among duplicate assertions the later one
  // wins). Then reduce to the *effective* delta: net ops matching the
  // existing evidence — including false-assertions on absent
  // closed-world atoms, indistinguishable from absence — are dropped,
  // so a semantic no-op touches nothing.
  enum class NetOp : uint8_t { kRetract, kAssertTrue, kAssertFalse };
  std::unordered_map<GroundAtom, NetOp, GroundAtomHash> net;
  for (const GroundAtom& atom : delta.retractions) {
    TUFFY_RETURN_IF_ERROR(CheckDeltaAtom(program_, atom, "retraction"));
    net[atom] = NetOp::kRetract;
  }
  for (const auto& [atom, truth] : delta.assertions) {
    TUFFY_RETURN_IF_ERROR(CheckDeltaAtom(program_, atom, "assertion"));
    net[atom] = truth ? NetOp::kAssertTrue : NetOp::kAssertFalse;
  }

  std::vector<uint8_t> pred_touched(program_.num_predicates(), 0);
  std::vector<std::pair<GroundAtom, bool>> effective_asserts;
  std::vector<GroundAtom> effective_retracts;
  for (const auto& [atom, op] : net) {
    const Truth current = evidence_.Explicit(atom);
    if (op == NetOp::kRetract) {
      if (current == Truth::kUnknown) continue;
      effective_retracts.push_back(atom);
    } else {
      const bool truth = op == NetOp::kAssertTrue;
      if (current == (truth ? Truth::kTrue : Truth::kFalse)) continue;
      if (current == Truth::kUnknown && !truth &&
          program_.predicate(atom.pred).closed_world) {
        continue;
      }
      effective_asserts.emplace_back(atom, truth);
    }
    pred_touched[atom.pred] = 1;
  }
  if (effective_asserts.empty() && effective_retracts.empty()) {
    edits.no_op = true;
    return edits;
  }

  std::vector<PredicateId> touched;
  for (PredicateId p = 0;
       p < static_cast<PredicateId>(program_.num_predicates()); ++p) {
    if (pred_touched[p]) touched.push_back(p);
  }
  std::vector<uint8_t> rule_touched(program_.clauses().size(), 0);
  for (PredicateId p : touched) {
    for (int r : rules_of_predicate_[p]) rule_touched[r] = 1;
  }

  // ---- Pre-pass (read-only; runs before the evidence mutation so
  // failures here leave the session serviceable). For each touched rule,
  // enumerate a superset of the bindings whose ground clause could
  // change — the changed atoms of a touched predicate semi-joined (per
  // literal occurrence) against the rest of the rule body, with other
  // touched binding relations widened to old-or-new true rows — then
  // resolve the ones the rule's query would have enumerated, against the
  // old evidence: the rule's old part. A rule with no universal variable
  // has exactly one binding, the empty one.
  //
  // The only rows this delta materializes: per touched predicate, its
  // changed atoms (asserted, then retracted), and per touched
  // closed-world predicate, its newly-true atoms.
  std::vector<IdTable> changed(program_.num_predicates());
  std::vector<IdTable> new_true(program_.num_predicates());
  std::vector<DeltaRelation> deltas(program_.num_predicates());
  std::unordered_map<PredicateId, DeltaRelation> unions;
  for (PredicateId p : touched) {
    changed[p].Init(program_.predicate(p).arity());
    new_true[p].Init(program_.predicate(p).arity());
  }
  for (const auto& [atom, truth] : effective_asserts) {
    changed[atom.pred].AppendRow(atom.args);
    if (truth) new_true[atom.pred].AppendRow(atom.args);
  }
  for (const GroundAtom& atom : effective_retracts) {
    changed[atom.pred].AppendRow(atom.args);
  }
  // A union is two segments: the new-true rows, then the touched
  // predicate's true rows, still pre-mutation here and scanned in place
  // (an effective true assertion is never already old-true, so no
  // duplicates arise). Only closed-world predicates get one — they are
  // the only ones a binding literal reads.
  for (PredicateId p : touched) {
    const Predicate& pred = program_.predicate(p);
    deltas[p].segments = {&changed[p]};
    deltas[p].stats = AnalyzeColumns(deltas[p].segments, pred.arity());
    edits.maintenance_rows += changed[p].num_rows();
    if (!pred.closed_world) continue;
    DeltaRelation& u = unions[p];
    u.segments = {&new_true[p], &evidence_.rows(p, true)};
    u.stats = AnalyzeColumns(u.segments, pred.arity());
    edits.maintenance_rows += new_true[p].num_rows();
  }

  std::vector<std::vector<Assignment>> affected(rule_touched.size());
  // The delta's old and new contribution parts, applied in one pass.
  std::vector<CountEdit> parts;
  std::vector<uint64_t> old_fixed(rule_touched.size(), 0);
  std::vector<int64_t> old_violations(rule_touched.size(), 0);
  for (size_t r = 0; r < rule_touched.size(); ++r) {
    if (!rule_touched[r]) continue;
    const int rule = static_cast<int>(r);
    const Clause& clause = program_.clauses()[r];
    if (rule_trivial_[r]) {
      affected[r].emplace_back(clause.num_vars, -1);
    } else {
      std::unordered_map<std::vector<ConstantId>, bool,
                         GroundAtomHash_ArgsOnly>
          seen;
      for (size_t li = 0; li < clause.literals.size(); ++li) {
        const PredicateId p = clause.literals[li].pred;
        if (!pred_touched[p]) continue;
        DeltaBindingSpec spec;
        spec.delta_lit = static_cast<int>(li);
        spec.delta = &deltas[p];
        spec.unions = &unions;
        TUFFY_ASSIGN_OR_RETURN(
            RuleBindingQuery rq,
            BuildRuleBindingQuery(program_, rule, catalog_, evidence_,
                                  true_stats_, /*plan_antijoins=*/false,
                                  &spec));
        TUFFY_RETURN_IF_ERROR(CollectBindings(program_, rule, std::move(rq),
                                              optimizer_options_, &seen,
                                              &affected[r]));
      }
    }
    TUFFY_ASSIGN_OR_RETURN(GroundingResult old_part,
                           ResolveEnumerated(rule, affected[r], &edits));
    old_fixed[r] = old_part.stats.fixed_cost_groundings;
    old_violations[r] = static_cast<int64_t>(old_part.stats.hard_violations);
    AppendPart(old_part, -1, &parts);
  }

  // Mutation begins: any error path from here on leaves evidence,
  // stats, and the clause store mutually inconsistent, so arm the fail-stop
  // guard and disarm it only on full success. Each Add/Remove edits the
  // evidence relations in place, one O(1) row edit per changed atom.
  poisoned_ = true;
  for (auto& [atom, truth] : effective_asserts) evidence_.Add(atom, truth);
  for (const GroundAtom& atom : effective_retracts) evidence_.Remove(atom);
  // Re-ANALYZE the touched closed-world predicates' true rows, here on
  // the mutating thread, before any re-ground plans against them.
  for (PredicateId p : touched) {
    const Predicate& pred = program_.predicate(p);
    if (pred.closed_world) true_stats_[p] = AnalyzeTrueRows(pred, evidence_);
  }

  // The new parts: the same affected bindings under the new evidence.
  // Each rule's fixed-cost groundings and violations move by new - old.
  for (size_t r = 0; r < rule_touched.size(); ++r) {
    if (!rule_touched[r]) continue;
    const int rule = static_cast<int>(r);
    TUFFY_ASSIGN_OR_RETURN(GroundingResult new_part,
                           ResolveEnumerated(rule, affected[r], &edits));
    rule_fixed_groundings_[r] +=
        new_part.stats.fixed_cost_groundings - old_fixed[r];
    rule_contradiction_[r] +=
        static_cast<int64_t>(new_part.stats.hard_violations) -
        old_violations[r];
    AppendPart(new_part, +1, &parts);
    ++edits.rules_reground;
  }
  ApplyEdits(std::move(parts), &edits);

  // The delta's own atoms are dirty even without clause edits: an atom
  // that just became evidence leaves every clause, and its cached truth
  // must be refreshed from the evidence rather than reported stale.
  bool appended = false;
  AtomId id;
  for (const auto& [atom, truth] : effective_asserts) {
    if (atoms_.Find(atom, &id)) {
      edits.dirty_atoms.push_back(id);
      appended = true;
    }
  }
  for (const GroundAtom& atom : effective_retracts) {
    if (atoms_.Find(atom, &id)) {
      edits.dirty_atoms.push_back(id);
      appended = true;
    }
  }
  if (appended) {
    std::sort(edits.dirty_atoms.begin(), edits.dirty_atoms.end());
    edits.dirty_atoms.erase(
        std::unique(edits.dirty_atoms.begin(), edits.dirty_atoms.end()),
        edits.dirty_atoms.end());
  }
  poisoned_ = false;
  edits.ground_seconds = timer.ElapsedSeconds();
  return edits;
}

double DeltaGrounder::fixed_cost() const {
  return rules_.FixedCost(rule_fixed_groundings_);
}

bool DeltaGrounder::hard_contradiction() const {
  for (int64_t c : rule_contradiction_) {
    if (c > 0) return true;
  }
  return false;
}

void DeltaGrounder::SaveState(BinaryWriter* out) const {
  // Primaries only: the evidence relations (row order included — binding
  // scans and stats read it), the atom store in id order, the clause list
  // in position order, and each rule's grounding counts. Everything else
  // (evidence index, catalog, stats, clause index, binding metadata) is
  // derived on load. An empty relation is written with zero columns and
  // each rule's counts in sorted literal order, so the snapshot bytes
  // depend on the logical state alone.
  for (PredicateId p = 0;
       p < static_cast<PredicateId>(program_.num_predicates()); ++p) {
    for (int polarity = 0; polarity < 2; ++polarity) {
      const IdTable& t = evidence_.rows(p, polarity == 1);
      out->U32(t.num_rows() == 0 ? 0 : static_cast<uint32_t>(t.num_cols()));
      out->U64(t.num_rows());
      for (size_t c = 0; c < t.num_cols(); ++c) {
        for (int64_t v : t.col(c)) out->I64(v);
      }
    }
  }

  out->U32(atoms_.num_atoms());
  for (AtomId a = 0; a < atoms_.num_atoms(); ++a) {
    const GroundAtom& atom = atoms_.atom(a);
    out->I32(atom.pred);
    for (ConstantId c : atom.args) out->I32(c);
  }

  const std::vector<GroundClause>& clauses = store_.clauses();
  out->U64(clauses.size());
  for (const GroundClause& c : clauses) {
    out->U32(static_cast<uint32_t>(c.lits.size()));
    for (Lit l : c.lits) out->I32(l);
    out->F64(c.weight);
    out->U8(c.hard ? 1 : 0);
  }

  // Per rule: (clause, count) for each clause the rule contributes to.
  const size_t num_rules = program_.clauses().size();
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> counts(num_rules);
  for (size_t c = 0; c < clauses.size(); ++c) {
    store_.ForEachContribution(c, [&](int32_t rule, uint32_t count) {
      counts[rule].emplace_back(static_cast<uint32_t>(c), count);
    });
  }
  out->U64(num_rules);
  for (size_t r = 0; r < num_rules; ++r) {
    out->F64(rules_.FixedCost(r, rule_fixed_groundings_[r]));
    out->I64(rule_contradiction_[r]);
    std::vector<std::pair<uint32_t, uint32_t>>& entries = counts[r];
    std::sort(entries.begin(), entries.end(),
              [&](const auto& a, const auto& b) {
                return clauses[a.first].lits < clauses[b.first].lits;
              });
    out->U64(entries.size());
    const bool hard = program_.clauses()[r].hard;
    for (const auto& [c, count] : entries) {
      out->U32(static_cast<uint32_t>(clauses[c].lits.size()));
      for (Lit l : clauses[c].lits) out->I32(l);
      // The rule's weight share is not stored: it is soft weight x count,
      // recomputed bit-identically. Its hard count is hardness x count.
      out->I64(hard ? count : 0);
      out->I64(count);
    }
  }
}

Status DeltaGrounder::LoadState(BinaryReader* in) {
  if (initialized_) return Status::Internal("DeltaGrounder reinitialized");
  initialized_ = true;
  poisoned_ = true;  // disarmed only when the whole restore succeeds

  // Each stored row is re-added in its stored order, so every relation
  // comes back row for row. Add keeps each atom in one row: a row
  // repeated within a relation, or listed under both polarities, leaves
  // fewer rows than were stored, and the snapshot is refused — such a
  // state would double-count a binding or read a true atom as false.
  const size_t num_preds = program_.num_predicates();
  // Every constant a snapshot stores names a symbol of the program; its
  // domain is not checked, since evidence built through the API may hold
  // constants outside their type's domain.
  const int64_t num_constants =
      static_cast<int64_t>(program_.symbols().num_constants());
  uint64_t total_rows = 0;
  for (PredicateId p = 0; p < static_cast<PredicateId>(num_preds); ++p) {
    const size_t arity = program_.predicate(p).arity();
    for (int polarity = 0; polarity < 2; ++polarity) {
      const uint32_t ncols = in->U32();
      const uint64_t nrows = in->U64();
      if (!in->ok() || (ncols != 0 && ncols != arity) ||
          (ncols == 0 && nrows != 0) ||
          (ncols != 0 &&
           nrows > in->remaining() / (ncols * sizeof(int64_t)))) {
        return Status::Corruption("snapshot: malformed evidence relation");
      }
      // Column-major on the wire.
      std::vector<int64_t> cells(nrows * ncols);
      for (int64_t& v : cells) {
        v = in->I64();
        if (v < 0 || v >= num_constants) {
          return Status::Corruption("snapshot: evidence value out of range");
        }
      }
      GroundAtom atom;
      atom.pred = p;
      atom.args.resize(ncols);
      for (uint64_t i = 0; i < nrows; ++i) {
        for (uint32_t c = 0; c < ncols; ++c) {
          atom.args[c] = static_cast<ConstantId>(cells[c * nrows + i]);
        }
        evidence_.Add(atom, polarity == 1);
      }
      total_rows += nrows;
    }
  }
  if (!in->ok()) return Status::Corruption("snapshot: evidence rows");
  if (evidence_.num_evidence() != total_rows) {
    return Status::Corruption("snapshot: evidence atom stored twice");
  }

  // An atom takes at least 4 bytes (its predicate).
  const uint32_t num_atoms = in->U32();
  if (!in->ok() || num_atoms > in->remaining() / 4) {
    return Status::Corruption("snapshot: atom count");
  }
  for (uint32_t a = 0; a < num_atoms; ++a) {
    GroundAtom atom;
    atom.pred = in->I32();
    if (atom.pred < 0 ||
        atom.pred >= static_cast<PredicateId>(num_preds)) {
      return Status::Corruption("snapshot: atom has unknown predicate");
    }
    const size_t arity = program_.predicate(atom.pred).arity();
    atom.args.resize(arity);
    for (size_t i = 0; i < arity; ++i) {
      atom.args[i] = in->I32();
      if (atom.args[i] < 0 || atom.args[i] >= num_constants) {
        return Status::Corruption("snapshot: atom argument out of range");
      }
    }
    if (!in->ok()) return Status::Corruption("snapshot: atom args");
    if (atoms_.GetOrCreate(atom) != static_cast<AtomId>(a)) {
      return Status::Corruption("snapshot: duplicate ground atom");
    }
  }

  // A clause takes at least 13 bytes (literal count, weight, hard flag),
  // a rule count entry at least 20 (literal count, hard count, count).
  const uint64_t num_clauses = in->U64();
  if (!in->ok() || num_clauses > in->remaining() / 13) {
    return Status::Corruption("snapshot: clause count");
  }
  std::vector<Lit> lits;
  for (uint64_t i = 0; i < num_clauses; ++i) {
    if (!ReadLits(in, num_atoms, &lits)) {
      return Status::Corruption("snapshot: clause literals");
    }
    const double weight = in->F64();
    const uint8_t hard = in->U8();
    if (!in->ok() || hard > 1) {
      return Status::Corruption("snapshot: clause body");
    }
    bool added = false;
    GroundClause& gc = store_.mutable_clauses()[store_.FindOrAppend(
        lits, &added)];
    if (!added) {
      return Status::Corruption("snapshot: duplicate clause literal set");
    }
    gc.weight = weight;
    gc.hard = hard == 1;
  }

  const uint64_t num_rules = in->U64();
  if (!in->ok() || num_rules != program_.clauses().size()) {
    return Status::Corruption("snapshot: rule count mismatch");
  }
  rule_fixed_groundings_.assign(num_rules, 0);
  rule_contradiction_.assign(num_rules, 0);
  for (size_t r = 0; r < num_rules; ++r) {
    // The fixed cost is stored as RuleWeights::FixedCost derives it
    // (older builds: as a running sum); the count it derives from is read
    // back out, and the stored value must lie within a running sum's
    // drift of it.
    const double fixed = in->F64();
    const double unit = rules_.FixedCost(r, 1);
    const double count = unit > 0.0 ? std::round(fixed / unit) : 0.0;
    if (!(count >= 0.0 && count <= 0x1p53) ||
        !(std::fabs(fixed - count * unit) <=
          kRunningSumDrift * std::max(count, 1.0) * unit)) {
      return Status::Corruption("snapshot: rule fixed cost");
    }
    rule_fixed_groundings_[r] = static_cast<uint64_t>(count);
    // Only a hard rule's groundings can contradict the evidence.
    const bool rule_hard = program_.clauses()[r].hard;
    const int64_t contradictions = in->I64();
    if (contradictions < 0 || (!rule_hard && contradictions > 0)) {
      return Status::Corruption("snapshot: rule contradiction count");
    }
    rule_contradiction_[r] = contradictions;
    const uint64_t num_entries = in->U64();
    if (!in->ok() || num_entries > in->remaining() / 20) {
      return Status::Corruption("snapshot: rule count header");
    }
    for (uint64_t e = 0; e < num_entries; ++e) {
      if (!ReadLits(in, num_atoms, &lits)) {
        return Status::Corruption("snapshot: rule count literals");
      }
      const int64_t hard = in->I64();
      const int64_t count = in->I64();
      if (!in->ok() || count <= 0 || count > UINT32_MAX ||
          hard != (rule_hard ? count : 0)) {
        return Status::Corruption("snapshot: bad rule contribution");
      }
      size_t idx = 0;
      if (!store_.Find(lits, &idx)) {
        return Status::Corruption(
            "snapshot: rule contribution for absent clause");
      }
      if (store_.AddRuleCount(idx, static_cast<int32_t>(r), count) != 0) {
        return Status::Corruption("snapshot: duplicate rule contribution");
      }
    }
  }
  // Every clause has a contributing rule and carries the hard flag its
  // counts derive. Its weight lies within a running sum's drift of the
  // derived weight (older builds stored running sums) and loads as the
  // derived weight, so every loaded state re-saves canonically.
  for (size_t c = 0; c < store_.num_clauses(); ++c) {
    GroundClause& clause = store_.mutable_clauses()[c];
    double weight = 0.0;
    bool hard = false;
    // The terms' summed magnitude: count x |weight| per soft rule.
    double magnitude = 0.0;
    store_.ForEachContribution(c, [&](int32_t rule, uint32_t count) {
      magnitude += rules_.FixedCost(rule, count);
    });
    if (!store_.DeriveWeight(c, rules_.weight, rules_.hard, &weight, &hard) ||
        clause.hard != hard ||
        !(std::fabs(clause.weight - weight) <= kRunningSumDrift * magnitude)) {
      return Status::Corruption("snapshot: clause/rule-count inconsistency");
    }
    clause.weight = weight;
  }

  TUFFY_RETURN_IF_ERROR(BuildDerivedState());
  poisoned_ = false;
  return Status::OK();
}

size_t DeltaGrounder::EstimateBytes() const {
  // Interned atoms are charged a flat index overhead on top of their
  // payload; this is admission-control accounting, not malloc truth.
  constexpr size_t kIndexOverhead = 64;
  size_t bytes = catalog_.EstimateBytes() + evidence_.EstimateBytes() +
                 store_.EstimateBytes();
  for (AtomId a = 0; a < atoms_.num_atoms(); ++a) {
    bytes += sizeof(GroundAtom) + atoms_.atom(a).args.capacity() *
                                      sizeof(ConstantId) +
             kIndexOverhead;
  }
  return bytes;
}

}  // namespace tuffy
