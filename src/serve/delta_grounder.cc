#include "serve/delta_grounder.h"

#include <algorithm>

#include "ground/atom_loader.h"
#include "ground/bottom_up_grounder.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

namespace {
/// Above this many changed atoms a delta re-grounds touched rules in
/// full — with a delta that large, per-occurrence semi-joins would do
/// more work than the rule's whole binding query.
constexpr size_t kBindingDeltaMaxAtoms = 1024;

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
}  // namespace

DeltaGrounder::DeltaGrounder(const MlnProgram& program,
                             GroundingOptions ground_options,
                             OptimizerOptions optimizer_options)
    : program_(program),
      ground_options_(ground_options),
      optimizer_options_(optimizer_options),
      side_tables_(program.num_predicates()) {
  // Delta composability requires rule-local grounding; the lazy closure
  // is a whole-program fixpoint, so it is forced off (see class comment).
  ground_options_.lazy_closure = false;
  // Every grounding context this session creates resolves against the
  // resident evidence, which side_tables_ mirrors for its whole life.
  ground_options_.side_tables = &side_tables_;
}

Status DeltaGrounder::Initialize(const EvidenceDb& initial_evidence) {
  if (initialized_) return Status::Internal("DeltaGrounder reinitialized");
  initialized_ = true;
  // Armed for the whole build: a failed initialization is half-loaded
  // state, and ApplyDelta must refuse it just like a half-applied delta.
  poisoned_ = true;
  evidence_ = initial_evidence;
  // One bulk scan builds the side tables; from here on the listener hook
  // keeps them in sync with every evidence mutation — O(1) per changed
  // atom, so per-delta maintenance is delta-proportional.
  side_tables_.Rebuild(evidence_);
  evidence_.SetListener(&side_tables_);

  const size_t num_rules = program_.clauses().size();
  rule_maps_.resize(num_rules);
  rule_fixed_cost_.assign(num_rules, 0.0);
  rule_contradiction_.assign(num_rules, 0);

  TUFFY_RETURN_IF_ERROR(BuildDerivedState());

  GroundEdits edits;
  PendingEdits pending;
  for (size_t r = 0; r < num_rules; ++r) {
    TUFFY_ASSIGN_OR_RETURN(RuleMap next, GroundRule(static_cast<int>(r)));
    DiffRule(static_cast<int>(r), next, &pending);
    rule_maps_[r] = std::move(next);
  }
  ApplyPendingEdits(std::move(pending), &edits);
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
  // side tables in place. Their stats are a pure function of the rows
  // and row order, which a snapshot preserves, so a grounder restored
  // from one plans — and hence enumerates future candidate bindings and
  // assigns session atom ids — exactly like the never-saved original.
  TUFFY_RETURN_IF_ERROR(LoadMlnTables(program_, evidence_, &catalog_));
  for (const Predicate& pred : program_.predicates()) {
    if (pred.closed_world) side_tables_.AnalyzeTrueRows(pred);
  }

  for (size_t r = 0; r < num_rules; ++r) {
    TUFFY_ASSIGN_OR_RETURN(
        RuleBindingQuery rq,
        BuildRuleBindingQuery(program_, static_cast<int>(r), catalog_,
                              side_tables_, /*plan_antijoins=*/false));
    rule_trivial_[r] = rq.trivial ? 1 : 0;
    rule_binding_mask_[r] = rq.binding_lit_mask;
  }
  return Status::OK();
}

void DeltaGrounder::RuleMapFromResult(int rule_idx,
                                      const GroundingResult& local,
                                      RuleMap* out) {
  // Remap the rule-local atom ids into the session atom universe. The
  // remap is injective, so the rule-local duplicate merging carries over.
  // Contribution weights derive as (rule weight) x (grounding count) —
  // one multiplication, never a running sum — so the full and the
  // binding-level re-ground paths produce bit-identical weights for any
  // rule weight, not just ones whose repeated sums happen to be exact.
  const Clause& rule = program_.clauses()[rule_idx];
  const double soft_weight = rule.hard ? 0.0 : rule.weight;
  std::vector<Lit> lits;
  const std::vector<GroundClause>& clauses = local.clauses.clauses();
  for (size_t i = 0; i < clauses.size(); ++i) {
    const GroundClause& c = clauses[i];
    lits.clear();
    lits.reserve(c.lits.size());
    for (Lit l : c.lits) {
      AtomId global = atoms_.GetOrCreate(local.atoms.atom(LitAtom(l)));
      lits.push_back(MakeLit(global, LitPositive(l)));
    }
    std::sort(lits.begin(), lits.end());
    int64_t groundings = 0;
    local.clauses.ForEachContribution(
        i, [&](int rule_id, uint32_t count) { groundings += count; });
    Contribution& contrib = (*out)[lits];
    contrib.count += groundings;
    contrib.hard += c.hard ? groundings : 0;
    contrib.weight = soft_weight * static_cast<double>(contrib.count);
  }
}

Result<DeltaGrounder::RuleMap> DeltaGrounder::GroundRule(int rule_idx) {
  GroundingContext ctx(program_, evidence_, ground_options_);
  TUFFY_RETURN_IF_ERROR(GroundClauseCandidates(program_, rule_idx, catalog_,
                                               side_tables_,
                                               optimizer_options_, &ctx,
                                               nullptr));
  TUFFY_ASSIGN_OR_RETURN(GroundingResult local, ctx.Finalize());
  rule_fixed_cost_[rule_idx] = local.fixed_cost;
  rule_contradiction_[rule_idx] =
      static_cast<int64_t>(local.stats.hard_violations);
  RuleMap out;
  out.reserve(local.clauses.num_clauses());
  RuleMapFromResult(rule_idx, local, &out);
  return out;
}

Result<DeltaGrounder::RulePart> DeltaGrounder::ResolveBindings(
    int rule_idx, const std::vector<Assignment>& bindings) {
  // Delta batches are tiny; a dense interner would spend more time
  // zeroing domain-product-sized cell arrays than the hash probes it
  // saves, so only large batches opt in.
  GroundingOptions opts = ground_options_;
  opts.dense_interner = bindings.size() >= 4096;
  GroundingContext ctx(program_, evidence_, opts);
  for (const Assignment& b : bindings) ctx.AddCandidate(rule_idx, b);
  TUFFY_ASSIGN_OR_RETURN(GroundingResult local, ctx.Finalize());
  RulePart part;
  part.fixed_cost = local.fixed_cost;
  part.hard_violations = static_cast<int64_t>(local.stats.hard_violations);
  part.map.reserve(local.clauses.num_clauses());
  RuleMapFromResult(rule_idx, local, &part.map);
  return part;
}

bool DeltaGrounder::BindingEnumerated(int rule_idx,
                                      const Assignment& binding) const {
  const Clause& clause = program_.clauses()[rule_idx];
  const uint64_t mask = rule_binding_mask_[rule_idx];
  GroundAtom atom;
  for (size_t li = 0; li < clause.literals.size() && li < 64; ++li) {
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

void DeltaGrounder::ApplyParts(int rule_idx, const RulePart& old_part,
                               const RulePart& new_part,
                               PendingEdits* pending) {
  RuleMap& cur = rule_maps_[rule_idx];
  const Clause& rule = program_.clauses()[rule_idx];
  const double soft_weight = rule.hard ? 0.0 : rule.weight;
  const Contribution kZero;
  auto process = [&](const std::vector<Lit>& lits) {
    auto o = old_part.map.find(lits);
    auto n = new_part.map.find(lits);
    const Contribution& oc = o != old_part.map.end() ? o->second : kZero;
    const Contribution& nc = n != new_part.map.end() ? n->second : kZero;
    auto it = cur.find(lits);
    const Contribution pre = it != cur.end() ? it->second : kZero;
    Contribution post;
    post.hard = pre.hard - oc.hard + nc.hard;
    post.count = pre.count - oc.count + nc.count;
    // Re-derived, not accumulated: matches what a full re-ground would
    // compute for the same grounding count, bit for bit.
    post.weight = soft_weight * static_cast<double>(post.count);

    PendingEdit& pe = (*pending)[lits];
    pe.dweight += post.weight - pre.weight;
    pe.dhard += (post.hard > 0 ? 1 : 0) - (pre.hard > 0 ? 1 : 0);
    pe.dcontribs += (post.count > 0 ? 1 : 0) - (pre.count > 0 ? 1 : 0);

    if (post.count <= 0) {
      if (it != cur.end()) cur.erase(it);
    } else if (it != cur.end()) {
      it->second = post;
    } else {
      cur.emplace(lits, post);
    }
  };
  for (const auto& [lits, contrib] : old_part.map) process(lits);
  for (const auto& [lits, contrib] : new_part.map) {
    if (old_part.map.count(lits) > 0) continue;
    process(lits);
  }
  rule_fixed_cost_[rule_idx] += new_part.fixed_cost - old_part.fixed_cost;
  rule_contradiction_[rule_idx] +=
      new_part.hard_violations - old_part.hard_violations;
}

void DeltaGrounder::DiffRule(int rule_idx, const RuleMap& next,
                             PendingEdits* pending) {
  const RuleMap& prev = rule_maps_[rule_idx];
  for (const auto& [lits, contrib] : next) {
    auto it = prev.find(lits);
    if (it == prev.end()) {
      PendingEdit& pe = (*pending)[lits];
      pe.dweight += contrib.weight;
      pe.dhard += contrib.hard > 0 ? 1 : 0;
      pe.dcontribs += 1;
    } else if (it->second.weight != contrib.weight ||
               (it->second.hard > 0) != (contrib.hard > 0)) {
      PendingEdit& pe = (*pending)[lits];
      pe.dweight += contrib.weight - it->second.weight;
      pe.dhard += (contrib.hard > 0 ? 1 : 0) - (it->second.hard > 0 ? 1 : 0);
    }
  }
  for (const auto& [lits, contrib] : prev) {
    if (next.find(lits) != next.end()) continue;
    PendingEdit& pe = (*pending)[lits];
    pe.dweight -= contrib.weight;
    pe.dhard -= contrib.hard > 0 ? 1 : 0;
    pe.dcontribs -= 1;
  }
}

void DeltaGrounder::ApplyPendingEdits(PendingEdits pending,
                                      GroundEdits* edits) {
  // Edits apply in sorted literal order, not hash-map order. The clause
  // list evolves by append and swap-with-last removal, so the order
  // edits land decides every clause's final position — and hash-map
  // iteration order depends on the map's insertion history, which
  // differs between a snapshot-restored grounder and the never-saved
  // original. Sorting makes the clause list a pure function of the
  // logical state, which the crash-recovery bit-identity guarantee
  // (docs/DURABILITY.md) rests on.
  std::vector<std::pair<const std::vector<Lit>*, PendingEdit*>> order;
  order.reserve(pending.size());
  for (auto& [key, value] : pending) order.emplace_back(&key, &value);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (auto& [lits_ptr, pe_ptr] : order) {
    const std::vector<Lit>& lits = *lits_ptr;
    PendingEdit& pe = *pe_ptr;
    auto it = global_.find(lits);
    if (it == global_.end()) {
      if (pe.dcontribs <= 0) continue;  // cancelled within one delta
      GlobalEntry entry;
      entry.weight = pe.dweight;
      entry.hard_refs = pe.dhard;
      entry.contribs = pe.dcontribs;
      entry.index = static_cast<uint32_t>(clauses_.size());
      GroundClause gc;
      gc.lits = lits;
      gc.weight = entry.weight;
      gc.hard = entry.hard_refs > 0;
      clauses_.push_back(std::move(gc));
      global_.emplace(lits, entry);
      ++edits->clauses_added;
      for (Lit l : lits) edits->dirty_atoms.push_back(LitAtom(l));
      continue;
    }

    GlobalEntry& entry = it->second;
    const double old_weight = entry.weight;
    const bool old_hard = entry.hard_refs > 0;
    entry.weight += pe.dweight;
    entry.hard_refs += pe.dhard;
    entry.contribs += pe.dcontribs;

    if (entry.contribs <= 0) {
      // Last contribution gone: swap-remove from the clause list.
      const uint32_t idx = entry.index;
      for (Lit l : clauses_[idx].lits) {
        edits->dirty_atoms.push_back(LitAtom(l));
      }
      const uint32_t last = static_cast<uint32_t>(clauses_.size()) - 1;
      if (idx != last) {
        clauses_[idx] = std::move(clauses_[last]);
        global_.at(clauses_[idx].lits).index = idx;
      }
      clauses_.pop_back();
      global_.erase(it);
      ++edits->clauses_removed;
      continue;
    }

    const bool new_hard = entry.hard_refs > 0;
    if (entry.weight != old_weight || new_hard != old_hard) {
      clauses_[entry.index].weight = entry.weight;
      clauses_[entry.index].hard = new_hard;
      ++edits->clauses_reweighted;
      for (Lit l : lits) edits->dirty_atoms.push_back(LitAtom(l));
    }
  }
  std::sort(edits->dirty_atoms.begin(), edits->dirty_atoms.end());
  edits->dirty_atoms.erase(
      std::unique(edits->dirty_atoms.begin(), edits->dirty_atoms.end()),
      edits->dirty_atoms.end());
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
  const auto& entries = evidence_.entries();
  for (const auto& [atom, op] : net) {
    auto it = entries.find(atom);
    if (op == NetOp::kRetract) {
      if (it == entries.end()) continue;
      effective_retracts.push_back(atom);
    } else {
      const bool truth = op == NetOp::kAssertTrue;
      if (it != entries.end() && it->second == truth) continue;
      if (it == entries.end() && !truth &&
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

  // ---- Binding-level pre-pass (read-only; runs before the evidence
  // mutation so failures here leave the session serviceable). For each
  // touched rule, enumerate a superset of the bindings whose ground
  // clause could change — the changed atoms of a touched predicate
  // semi-joined (per literal occurrence) against the rest of the rule
  // body, with other touched binding relations widened to old-or-new
  // true rows — then resolve the ones the old full query would have
  // enumerated, against the old evidence.
  const size_t total_changed =
      effective_asserts.size() + effective_retracts.size();
  const bool binding_level = ground_options_.binding_level_deltas &&
                             total_changed <= kBindingDeltaMaxAtoms;
  std::vector<IdTable> changed;
  std::vector<IdTable> new_true;
  std::vector<DeltaRelation> deltas;
  std::unordered_map<PredicateId, DeltaRelation> unions;
  std::vector<std::vector<Assignment>> affected(rule_touched.size());
  std::vector<RulePart> old_parts(rule_touched.size());
  std::vector<uint8_t> rule_binding_path(rule_touched.size(), 0);
  if (binding_level) {
    // The only rows this delta materializes: per touched predicate, its
    // changed atoms (asserted, then retracted), and per touched
    // closed-world predicate, its newly-true atoms.
    changed.resize(program_.num_predicates());
    new_true.resize(program_.num_predicates());
    deltas.resize(program_.num_predicates());
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
    // predicate's true side table, still pre-mutation here and scanned
    // in place (an effective true assertion is never already old-true,
    // so no duplicates arise). Only closed-world predicates get one —
    // they are the only ones a binding literal reads.
    for (PredicateId p : touched) {
      const Predicate& pred = program_.predicate(p);
      deltas[p].segments = {&changed[p]};
      deltas[p].stats = AnalyzeColumns(deltas[p].segments, pred.arity());
      edits.maintenance_rows += changed[p].num_rows();
      if (!pred.closed_world) continue;
      DeltaRelation& u = unions[p];
      u.segments = {&new_true[p], &side_tables_.true_rows(p)};
      u.stats = AnalyzeColumns(u.segments, pred.arity());
      edits.maintenance_rows += new_true[p].num_rows();
    }

    for (size_t r = 0; r < rule_touched.size(); ++r) {
      if (!rule_touched[r] || rule_trivial_[r]) continue;
      const Clause& clause = program_.clauses()[r];
      // binding_lit_mask only covers the first 64 literals, so wider
      // rules cannot be enumeration-checked — full re-ground for them.
      if (clause.literals.size() > 64) continue;
      rule_binding_path[r] = 1;
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
            BuildRuleBindingQuery(program_, static_cast<int>(r), catalog_,
                                  side_tables_, /*plan_antijoins=*/false,
                                  &spec));
        TUFFY_RETURN_IF_ERROR(CollectBindings(program_, static_cast<int>(r),
                                              std::move(rq),
                                              optimizer_options_, &seen,
                                              &affected[r]));
      }
      std::vector<Assignment> old_enumerated;
      old_enumerated.reserve(affected[r].size());
      for (const Assignment& b : affected[r]) {
        if (BindingEnumerated(static_cast<int>(r), b)) {
          old_enumerated.push_back(b);
        }
      }
      edits.bindings_resolved += old_enumerated.size();
      TUFFY_ASSIGN_OR_RETURN(
          old_parts[r],
          ResolveBindings(static_cast<int>(r), old_enumerated));
    }
  }

  // Mutation begins: any error path from here on leaves evidence,
  // tables, and rule maps mutually inconsistent, so arm the fail-stop
  // guard and disarm it only on full success. The Add/Remove calls
  // notify the listener, so side_tables_ flips to the new evidence here,
  // one O(1) row edit per changed atom.
  poisoned_ = true;
  for (auto& [atom, truth] : effective_asserts) evidence_.Add(atom, truth);
  for (const GroundAtom& atom : effective_retracts) evidence_.Remove(atom);
  // Re-ANALYZE the touched closed-world predicates' true rows, here on
  // the mutating thread, before any re-ground plans against them.
  for (PredicateId p : touched) {
    const Predicate& pred = program_.predicate(p);
    if (pred.closed_world) side_tables_.AnalyzeTrueRows(pred);
  }

  // Re-ground the touched rules: binding-level parts where the pre-pass
  // ran, full rule queries otherwise.
  PendingEdits pending;
  for (size_t r = 0; r < rule_touched.size(); ++r) {
    if (!rule_touched[r]) continue;
    if (rule_binding_path[r]) {
      std::vector<Assignment> new_enumerated;
      new_enumerated.reserve(affected[r].size());
      for (const Assignment& b : affected[r]) {
        if (BindingEnumerated(static_cast<int>(r), b)) {
          new_enumerated.push_back(b);
        }
      }
      edits.bindings_resolved += new_enumerated.size();
      TUFFY_ASSIGN_OR_RETURN(
          RulePart new_part,
          ResolveBindings(static_cast<int>(r), new_enumerated));
      ApplyParts(static_cast<int>(r), old_parts[r], new_part, &pending);
      ++edits.rules_delta_ground;
    } else {
      TUFFY_ASSIGN_OR_RETURN(RuleMap next, GroundRule(static_cast<int>(r)));
      DiffRule(static_cast<int>(r), next, &pending);
      rule_maps_[r] = std::move(next);
    }
    ++edits.rules_reground;
  }
  ApplyPendingEdits(std::move(pending), &edits);

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
  double total = 0.0;
  for (double c : rule_fixed_cost_) total += c;
  return total;
}

bool DeltaGrounder::hard_contradiction() const {
  for (int64_t c : rule_contradiction_) {
    if (c > 0) return true;
  }
  return false;
}

void DeltaGrounder::SaveState(BinaryWriter* out) const {
  // Primaries only: side tables (row order included — binding scans and
  // stats read it), the atom store in id order, the clause list in
  // position order, and the per-rule contribution maps. Everything else
  // (evidence map, catalog, stats, global index, binding metadata) is
  // derived on load. Rule-map entries are emitted in sorted literal order
  // so the snapshot bytes are themselves deterministic.
  for (PredicateId p = 0;
       p < static_cast<PredicateId>(side_tables_.num_predicates()); ++p) {
    for (int polarity = 0; polarity < 2; ++polarity) {
      const IdTable& t = side_tables_.rows(p, polarity == 1);
      out->U32(static_cast<uint32_t>(t.num_cols()));
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

  out->U64(clauses_.size());
  for (const GroundClause& c : clauses_) {
    out->U32(static_cast<uint32_t>(c.lits.size()));
    for (Lit l : c.lits) out->I32(l);
    out->F64(c.weight);
    out->U8(c.hard ? 1 : 0);
  }

  out->U64(rule_maps_.size());
  for (size_t r = 0; r < rule_maps_.size(); ++r) {
    out->F64(rule_fixed_cost_[r]);
    out->I64(rule_contradiction_[r]);
    const RuleMap& rm = rule_maps_[r];
    std::vector<const std::vector<Lit>*> keys;
    keys.reserve(rm.size());
    for (const auto& [lits, contrib] : rm) keys.push_back(&lits);
    std::sort(keys.begin(), keys.end(),
              [](const auto* a, const auto* b) { return *a < *b; });
    out->U64(keys.size());
    for (const std::vector<Lit>* lits : keys) {
      const Contribution& contrib = rm.at(*lits);
      out->U32(static_cast<uint32_t>(lits->size()));
      for (Lit l : *lits) out->I32(l);
      // Weight omitted: it is soft_weight x count by the RuleMapFromResult
      // invariant, so the load side recomputes it bit-identically.
      out->I64(contrib.hard);
      out->I64(contrib.count);
    }
  }
}

Status DeltaGrounder::LoadState(BinaryReader* in) {
  if (initialized_) return Status::Internal("DeltaGrounder reinitialized");
  initialized_ = true;
  poisoned_ = true;  // disarmed only when the whole restore succeeds

  const size_t num_preds = program_.num_predicates();
  std::vector<int64_t> row;
  for (PredicateId p = 0; p < static_cast<PredicateId>(num_preds); ++p) {
    const size_t arity = program_.predicate(p).arity();
    for (int polarity = 0; polarity < 2; ++polarity) {
      const uint32_t ncols = in->U32();
      const uint64_t nrows = in->U64();
      if (!in->ok() || (ncols != 0 && ncols != arity) ||
          (ncols == 0 && nrows != 0)) {
        return Status::Corruption("snapshot: malformed side table header");
      }
      // Column-major on the wire, row-major through AppendRow so the
      // narrow flag is recomputed exactly as live maintenance would.
      std::vector<std::vector<int64_t>> cols(ncols);
      for (uint32_t c = 0; c < ncols; ++c) {
        cols[c].reserve(nrows);
        for (uint64_t i = 0; i < nrows; ++i) cols[c].push_back(in->I64());
      }
      if (!in->ok()) return Status::Corruption("snapshot: side table rows");
      IdTable t;
      t.Init(ncols);
      row.resize(ncols);
      for (uint64_t i = 0; i < nrows; ++i) {
        for (uint32_t c = 0; c < ncols; ++c) row[c] = cols[c][i];
        t.AppendRow(row);
      }
      side_tables_.RestoreSide(p, polarity == 1, std::move(t));
    }
  }

  // The evidence map re-derives from the side tables (polarity is the
  // table). The listener attaches only afterwards: these Adds must not
  // echo back into the tables just installed.
  for (PredicateId p = 0; p < static_cast<PredicateId>(num_preds); ++p) {
    for (int polarity = 0; polarity < 2; ++polarity) {
      const IdTable& t = side_tables_.rows(p, polarity == 1);
      for (size_t i = 0; i < t.num_rows(); ++i) {
        GroundAtom atom;
        atom.pred = p;
        atom.args.resize(t.num_cols());
        for (size_t c = 0; c < t.num_cols(); ++c) {
          atom.args[c] = static_cast<ConstantId>(t.col(c)[i]);
        }
        evidence_.Add(std::move(atom), polarity == 1);
      }
    }
  }
  evidence_.SetListener(&side_tables_);

  const uint32_t num_atoms = in->U32();
  if (!in->ok()) return Status::Corruption("snapshot: atom count");
  for (uint32_t a = 0; a < num_atoms; ++a) {
    GroundAtom atom;
    atom.pred = in->I32();
    if (atom.pred < 0 ||
        atom.pred >= static_cast<PredicateId>(num_preds)) {
      return Status::Corruption("snapshot: atom has unknown predicate");
    }
    const size_t arity = program_.predicate(atom.pred).arity();
    atom.args.resize(arity);
    for (size_t i = 0; i < arity; ++i) atom.args[i] = in->I32();
    if (!in->ok()) return Status::Corruption("snapshot: atom args");
    if (atoms_.GetOrCreate(atom) != static_cast<AtomId>(a)) {
      return Status::Corruption("snapshot: duplicate ground atom");
    }
  }

  const uint64_t num_clauses = in->U64();
  if (!in->ok()) return Status::Corruption("snapshot: clause count");
  clauses_.reserve(num_clauses);
  for (uint64_t i = 0; i < num_clauses; ++i) {
    GroundClause gc;
    const uint32_t nlits = in->U32();
    if (!in->ok()) return Status::Corruption("snapshot: clause header");
    gc.lits.resize(nlits);
    for (uint32_t l = 0; l < nlits; ++l) {
      gc.lits[l] = in->I32();
      if (LitAtom(gc.lits[l]) >= num_atoms) {
        return Status::Corruption("snapshot: clause literal out of range");
      }
    }
    gc.weight = in->F64();
    gc.hard = in->U8() != 0;
    if (!in->ok()) return Status::Corruption("snapshot: clause body");
    GlobalEntry entry;
    entry.weight = gc.weight;
    entry.index = static_cast<uint32_t>(i);
    if (!global_.emplace(gc.lits, entry).second) {
      return Status::Corruption("snapshot: duplicate clause literal set");
    }
    clauses_.push_back(std::move(gc));
  }

  const uint64_t num_rules = in->U64();
  if (!in->ok() || num_rules != program_.clauses().size()) {
    return Status::Corruption("snapshot: rule count mismatch");
  }
  rule_maps_.resize(num_rules);
  rule_fixed_cost_.assign(num_rules, 0.0);
  rule_contradiction_.assign(num_rules, 0);
  for (size_t r = 0; r < num_rules; ++r) {
    rule_fixed_cost_[r] = in->F64();
    rule_contradiction_[r] = in->I64();
    const uint64_t num_entries = in->U64();
    if (!in->ok()) return Status::Corruption("snapshot: rule map header");
    const Clause& rule = program_.clauses()[r];
    const double soft_weight = rule.hard ? 0.0 : rule.weight;
    RuleMap& rm = rule_maps_[r];
    rm.reserve(num_entries);
    std::vector<Lit> lits;
    for (uint64_t e = 0; e < num_entries; ++e) {
      const uint32_t nlits = in->U32();
      if (!in->ok()) return Status::Corruption("snapshot: rule entry header");
      lits.resize(nlits);
      for (uint32_t l = 0; l < nlits; ++l) lits[l] = in->I32();
      Contribution contrib;
      contrib.hard = in->I64();
      contrib.count = in->I64();
      if (!in->ok() || contrib.count <= 0 || contrib.hard < 0 ||
          contrib.hard > contrib.count) {
        return Status::Corruption("snapshot: bad rule contribution");
      }
      contrib.weight = soft_weight * static_cast<double>(contrib.count);
      auto git = global_.find(lits);
      if (git == global_.end()) {
        return Status::Corruption(
            "snapshot: rule contribution for absent clause");
      }
      git->second.contribs += 1;
      git->second.hard_refs += contrib.hard > 0 ? 1 : 0;
      if (!rm.emplace(lits, contrib).second) {
        return Status::Corruption("snapshot: duplicate rule contribution");
      }
    }
  }
  for (const auto& [lits, entry] : global_) {
    if (entry.contribs <= 0 ||
        clauses_[entry.index].hard != (entry.hard_refs > 0)) {
      return Status::Corruption("snapshot: clause/rule-map inconsistency");
    }
  }

  TUFFY_RETURN_IF_ERROR(BuildDerivedState());
  poisoned_ = false;
  return Status::OK();
}

size_t DeltaGrounder::EstimateBytes() const {
  // Hash-map entries are charged a flat node overhead on top of their
  // key payload; this is admission-control accounting, not malloc truth.
  constexpr size_t kNodeOverhead = 64;
  size_t bytes = catalog_.EstimateBytes() + side_tables_.EstimateBytes();
  for (const GroundClause& c : clauses_) {
    bytes += sizeof(GroundClause) + c.lits.capacity() * sizeof(Lit);
  }
  // Each resident clause has one global_ entry and >= 1 rule-map entry,
  // each keyed by a copy of the literal vector.
  size_t map_entries = global_.size();
  for (const RuleMap& rm : rule_maps_) map_entries += rm.size();
  bytes += map_entries * kNodeOverhead;
  for (const auto& [lits, entry] : global_) {
    bytes += 2 * lits.capacity() * sizeof(Lit);  // global + rule copy
  }
  for (AtomId a = 0; a < atoms_.num_atoms(); ++a) {
    bytes += sizeof(GroundAtom) + atoms_.atom(a).args.capacity() *
                                      sizeof(ConstantId) +
             kNodeOverhead;  // interner entry
  }
  return bytes;
}

}  // namespace tuffy
