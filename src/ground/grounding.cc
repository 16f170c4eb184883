#include "ground/grounding.h"

#include <cassert>

#include "obs/metrics.h"
#include "util/logging.h"

namespace tuffy {

namespace {
/// Safety bound on lazy-closure iterations.
constexpr int kMaxClosureIterations = 64;

/// Mirrors a finished grounding run's stats into the registry. Called
/// once per Finalize, not per row — the per-row paths stay untouched.
void StampGroundingMetrics(const GroundingStats& stats) {
  static Counter* candidates =
      MetricsRegistry::Global().GetCounter("ground.candidates");
  static Counter* pruned =
      MetricsRegistry::Global().GetCounter("ground.pruned.antijoin");
  candidates->Add(stats.candidates);
  pruned->Add(stats.pruned_by_antijoin);
}

/// The table cell value of an atom with evidence truth `truth`.
int32_t CellOf(Truth truth) {
  switch (truth) {
    case Truth::kTrue:
      return CandidateAtomTable::kKnownTrue;
    case Truth::kFalse:
      return CandidateAtomTable::kKnownFalse;
    default:
      return CandidateAtomTable::kUnknown;
  }
}
}  // namespace

CandidateAtomTable::CandidateAtomTable(const MlnProgram& program)
    : program_(program), slot_of_pred_(program.num_predicates(), -1) {
  constexpr size_t kMaxSlots = static_cast<size_t>(kHashKeyBase) >> kCellBits;
  std::vector<size_t> cells_of(program.num_predicates(), 0);
  for (const Predicate& pred : program.predicates()) {
    size_t cells = 1;
    for (const std::string& type : pred.arg_types) {
      if (types_.count(type) == 0) {
        types_.emplace(type, std::make_unique<TypeEntry>());
      }
      const size_t n = program.symbols().Domain(type).size();
      cells = n == 0 || cells > kMaxCells / n ? 0 : cells * n;
    }
    if (cells > 0 && num_slots_ < kMaxSlots) {
      slot_of_pred_[pred.id] = static_cast<int32_t>(num_slots_++);
      cells_of[pred.id] = cells;
    }
  }
  slots_ = std::make_unique<Slot[]>(num_slots_);
  for (const Predicate& pred : program.predicates()) {
    if (slot_of_pred_[pred.id] < 0) continue;
    Slot& slot = slots_[slot_of_pred_[pred.id]];
    slot.pred = pred.id;
    slot.key_base = slot_of_pred_[pred.id] << kCellBits;
    slot.num_cells = cells_of[pred.id];
  }
}

const std::vector<int32_t>& CandidateAtomTable::TypeIndex(
    const std::string& type) {
  TypeEntry& entry = *types_.at(type);
  std::call_once(entry.built, [&] {
    const std::vector<ConstantId>& domain = program_.symbols().Domain(type);
    entry.index.assign(program_.symbols().num_constants(), -1);
    for (size_t i = 0; i < domain.size(); ++i) {
      if (domain[i] >= 0 &&
          domain[i] < static_cast<int32_t>(entry.index.size())) {
        entry.index[domain[i]] = static_cast<int32_t>(i);
      }
    }
  });
  return entry.index;
}

const CandidateAtomTable::Slot* CandidateAtomTable::Get(PredicateId pred) {
  if (slot_of_pred_[pred] < 0) return nullptr;
  Slot& slot = slots_[slot_of_pred_[pred]];
  std::call_once(slot.built, [&] {
    const Predicate& p = program_.predicate(pred);
    const int arity = p.arity();
    slot.arg_index.resize(arity);
    slot.arg_domain.resize(arity);
    for (int i = 0; i < arity; ++i) {
      slot.arg_domain[i] = &program_.symbols().Domain(p.arg_types[i]);
      slot.arg_index[i] = &TypeIndex(p.arg_types[i]);
    }
    slot.stride.assign(arity, 1);
    for (int i = arity - 2; i >= 0; --i) {
      slot.stride[i] = slot.stride[i + 1] * slot.arg_domain[i + 1]->size();
    }
    // Value-initialized: every cell starts kUnseen (0).
    slot.cells = std::make_unique<std::atomic<int32_t>[]>(slot.num_cells);
  });
  return &slot;
}

void CandidateAtomTable::Decode(int32_t key, GroundAtom* atom) const {
  const Slot& slot = slots_[key >> kCellBits];
  const size_t cell = static_cast<size_t>(key - slot.key_base);
  atom->pred = slot.pred;
  atom->args.resize(slot.stride.size());
  for (size_t i = 0; i < slot.stride.size(); ++i) {
    const std::vector<ConstantId>& domain = *slot.arg_domain[i];
    atom->args[i] = domain[(cell / slot.stride[i]) % domain.size()];
  }
}

GroundingContext::GroundingContext(const MlnProgram& program,
                                   const EvidenceDb& evidence,
                                   GroundingOptions options,
                                   CandidateAtomTable* table)
    : program_(program),
      evidence_(evidence),
      options_(options),
      table_(table),
      pred_slots_(program.num_predicates()) {
  result_.rule_fixed_groundings.assign(program.clauses().size(), 0);
  result_.rule_hard_violations.assign(program.clauses().size(), 0);
}

// ------------------------------------------------- candidate-atom keys

const CandidateAtomTable::Slot* GroundingContext::SlotOf(PredicateId pred) {
  PredSlot& ps = pred_slots_[pred];
  if (!ps.looked_up) {
    ps.looked_up = true;
    if (table_ != nullptr) ps.slot = table_->Get(pred);
  }
  return ps.slot;
}

std::atomic<int32_t>* GroundingContext::DenseCell(const GroundAtom& atom,
                                                  int32_t* key) {
  const Slot* slot = SlotOf(atom.pred);
  if (slot == nullptr) return nullptr;
  size_t cell = 0;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const ConstantId a = atom.args[i];
    const std::vector<int32_t>& index = *slot->arg_index[i];
    if (a < 0 || static_cast<size_t>(a) >= index.size()) return nullptr;
    const int32_t d = index[a];
    if (d < 0) return nullptr;
    cell += static_cast<size_t>(d) * slot->stride[i];
  }
  *key = slot->key_base + static_cast<int32_t>(cell);
  return &slot->cells[cell];
}

int32_t GroundingContext::AllocHashKey(const GroundAtom& atom) {
  assert(hash_atoms_.size() <
         static_cast<size_t>(INT32_MAX - 1 - kHashKeyBase));
  const int32_t key = kHashKeyBase + static_cast<int32_t>(hash_atoms_.size());
  hash_atoms_.push_back(atom);
  return key;
}

int32_t GroundingContext::InternScratchAtom(bool* known_truth_value) {
  int32_t key;
  if (std::atomic<int32_t>* cell = DenseCell(scratch_atom_, &key)) {
    int32_t v = cell->load(std::memory_order_relaxed);
    if (v == CandidateAtomTable::kUnseen) {
      v = CellOf(evidence_.Lookup(program_, scratch_atom_));
      cell->store(v, std::memory_order_relaxed);
    }
    if (v == CandidateAtomTable::kUnknown) return key;
    *known_truth_value = v == CandidateAtomTable::kKnownTrue;
    return -1;
  }

  // Hash fallback (wide predicates, out-of-domain constants).
  // Closed-world atoms are never unknown; answer directly instead of
  // polluting the interner (existential expansion probes huge numbers of
  // closed-world instances).
  if (program_.predicate(scratch_atom_.pred).closed_world) {
    *known_truth_value =
        evidence_.Lookup(program_, scratch_atom_) == Truth::kTrue;
    return -1;
  }
  auto it = hash_keys_.find(scratch_atom_);
  if (it == hash_keys_.end()) {
    Truth truth = evidence_.Lookup(program_, scratch_atom_);
    CandInfo info;
    if (truth == Truth::kUnknown) {
      info.key = AllocHashKey(scratch_atom_);
      info.known_true = 0;
    } else {
      info.key = -1;
      info.known_true = truth == Truth::kTrue ? 1 : 0;
    }
    it = hash_keys_.emplace(scratch_atom_, info).first;
  }
  const CandInfo& info = it->second;
  if (info.key < 0) {
    *known_truth_value = info.known_true != 0;
    return -1;
  }
  return info.key;
}

int32_t GroundingContext::InternUnknownAtom(const GroundAtom& atom) {
  auto it = hash_keys_.find(atom);
  if (it == hash_keys_.end()) {
    CandInfo info;
    info.key = AllocHashKey(atom);
    info.known_true = 0;
    it = hash_keys_.emplace(atom, info).first;
  }
  assert(it->second.key >= 0 && "atom unknown locally but known globally");
  return it->second.key;
}

// ------------------------------------------------------------ resolution

bool GroundingContext::ExpandLiteral(const Literal& lit,
                                     const Assignment& assignment,
                                     bool* satisfied) {
  // Resolve ground argument values; collect existential positions.
  scratch_atom_.pred = lit.pred;
  scratch_atom_.args.resize(lit.args.size());
  // MlnProgram::AddClause bounds a literal's existential positions.
  int exist_pos_buf[kMaxExistentialPositions];
  int num_exist = 0;
  for (size_t i = 0; i < lit.args.size(); ++i) {
    const Term& t = lit.args[i];
    if (!t.is_var) {
      scratch_atom_.args[i] = t.id;
    } else if (assignment[t.id] >= 0) {
      scratch_atom_.args[i] = assignment[t.id];
    } else {
      assert(num_exist < kMaxExistentialPositions);
      exist_pos_buf[num_exist++] = static_cast<int>(i);
      scratch_atom_.args[i] = -1;
    }
  }

  if (num_exist == 0) {
    bool known_true = false;
    int32_t key = InternScratchAtom(&known_true);
    if (key >= 0) {
      scratch_open_.push_back(lit.positive ? key + 1 : -(key + 1));
    } else if (known_true == lit.positive) {
      *satisfied = true;
      return false;
    }
    return true;
  }

  // Expand the existential positions over their domains. Distinct
  // existential variables expand independently per literal because
  // disjunction distributes over existential quantification.
  const Predicate& pred = program_.predicate(lit.pred);

  // Map positions sharing one variable to a single counter.
  std::vector<VarId> exist_vars;
  int var_of_pos[kMaxExistentialPositions];
  for (int i = 0; i < num_exist; ++i) {
    VarId v = lit.args[exist_pos_buf[i]].id;
    int idx = -1;
    for (size_t j = 0; j < exist_vars.size(); ++j) {
      if (exist_vars[j] == v) idx = static_cast<int>(j);
    }
    if (idx < 0) {
      idx = static_cast<int>(exist_vars.size());
      exist_vars.push_back(v);
    }
    var_of_pos[i] = idx;
  }
  std::vector<const std::vector<ConstantId>*> var_domains(exist_vars.size(),
                                                          nullptr);
  for (int i = 0; i < num_exist; ++i) {
    if (var_domains[var_of_pos[i]] == nullptr) {
      var_domains[var_of_pos[i]] =
          &program_.symbols().Domain(pred.arg_types[exist_pos_buf[i]]);
      if (var_domains[var_of_pos[i]]->empty()) return true;
    }
  }
  // Closed-world predicate: resolve the whole existential disjunct with
  // one probe of the pattern-count index instead of a domain scan.
  // (Falls back to the scan when one existential variable occupies two
  // positions, since the index cannot enforce that equality.)
  if (pred.closed_world &&
      exist_vars.size() == static_cast<size_t>(num_exist)) {
    uint32_t mask = 0;
    scratch_bound_vals_.clear();
    for (size_t i = 0; i < lit.args.size(); ++i) {
      bool is_exist = false;
      for (int e = 0; e < num_exist; ++e) {
        if (exist_pos_buf[e] == static_cast<int>(i)) is_exist = true;
      }
      if (!is_exist) {
        mask |= (1u << i);
        scratch_bound_vals_.push_back(scratch_atom_.args[i]);
      }
    }
    uint64_t product = 1;
    for (const auto* d : var_domains) product *= d->size();
    uint64_t true_rows =
        CountMatchingTrueRows(lit.pred, mask, scratch_bound_vals_);
    bool some_instance_true = true_rows > 0;
    bool some_instance_false = true_rows < product;
    if ((lit.positive && some_instance_true) ||
        (!lit.positive && some_instance_false)) {
      *satisfied = true;
      return false;
    }
    return true;  // every disjunct false: nothing to add
  }

  std::vector<size_t> counter(exist_vars.size(), 0);
  while (true) {
    for (int i = 0; i < num_exist; ++i) {
      scratch_atom_.args[exist_pos_buf[i]] =
          (*var_domains[var_of_pos[i]])[counter[var_of_pos[i]]];
    }
    bool known_true = false;
    int32_t key = InternScratchAtom(&known_true);
    if (key >= 0) {
      scratch_open_.push_back(lit.positive ? key + 1 : -(key + 1));
    } else if (known_true == lit.positive) {
      *satisfied = true;
      return false;
    }
    // Advance the odometer.
    size_t k = 0;
    for (; k < counter.size(); ++k) {
      if (++counter[k] < var_domains[k]->size()) break;
      counter[k] = 0;
    }
    if (k == counter.size()) break;
  }
  return true;
}

uint32_t GroundingContext::CountMatchingTrueRows(
    PredicateId pred, uint32_t mask,
    const std::vector<ConstantId>& bound_vals) {
  PatternKey key{pred, mask};
  auto it = pattern_index_.find(key);
  if (it == pattern_index_.end()) {
    // One predicate's true rows, straight off its evidence relation.
    BoundValsCount counts;
    const IdTable& rows = evidence_.rows(pred, true);
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      std::vector<ConstantId> vals;
      for (size_t i = 0; i < rows.num_cols(); ++i) {
        if (mask & (1u << i)) {
          vals.push_back(static_cast<ConstantId>(rows.col(i)[r]));
        }
      }
      ++counts[std::move(vals)];
    }
    it = pattern_index_.emplace(key, std::move(counts)).first;
  }
  auto cit = it->second.find(bound_vals);
  return cit == it->second.end() ? 0 : cit->second;
}

void GroundingContext::ResolveCandidate(int clause_idx,
                                        const Assignment& assignment,
                                        uint64_t skip_lit_mask) {
  const Clause& clause = program_.clauses()[clause_idx];
  if (!clause.hard && clause.weight == 0.0 &&
      !options_.keep_zero_weight_clauses) {
    return;
  }

  bool satisfied = false;
  // Equality disjuncts are fully determined by the assignment.
  for (const EqualityConstraint& eq : clause.equalities) {
    ConstantId lhs = eq.lhs.is_var ? assignment[eq.lhs.id] : eq.lhs.id;
    ConstantId rhs = eq.rhs.is_var ? assignment[eq.rhs.id] : eq.rhs.id;
    if ((lhs == rhs) == eq.equal) {
      satisfied = true;
      break;
    }
  }

  scratch_open_.clear();
  if (!satisfied) {
    for (size_t li = 0; li < clause.literals.size(); ++li) {
      if ((skip_lit_mask >> li) & 1) continue;
      if (!ExpandLiteral(clause.literals[li], assignment, &satisfied)) break;
    }
  }

  SettleCandidate(clause_idx, clause, satisfied);
}

void GroundingContext::SettleCandidate(int clause_idx, const Clause& clause,
                                       bool satisfied) {
  if (satisfied) {
    ++result_.stats.satisfied_by_evidence;
    // A negative-weight clause that evidence makes true is permanently
    // violated (Section 2.2) and contributes constant cost.
    if (!clause.hard && clause.weight < 0) {
      ++result_.rule_fixed_groundings[clause_idx];
    }
    return;
  }
  if (scratch_open_.empty()) {
    // Constantly false.
    if (clause.hard) {
      ++result_.rule_hard_violations[clause_idx];
      TUFFY_LOG(Warning) << "hard clause " << clause.rule_id
                         << " violated by evidence";
    } else if (clause.weight > 0) {
      ++result_.rule_fixed_groundings[clause_idx];
    }
    return;
  }
  const uint32_t begin = static_cast<uint32_t>(pending_lits_.size());
  pending_lits_.insert(pending_lits_.end(), scratch_open_.begin(),
                       scratch_open_.end());
  pending_.push_back(PendingClause{
      clause_idx, begin, static_cast<uint32_t>(pending_lits_.size())});
  result_.stats.working_set_bytes +=
      sizeof(PendingClause) + scratch_open_.size() * sizeof(CandLit);
}

void GroundingContext::AddCandidate(int clause_idx,
                                    const Assignment& assignment,
                                    uint64_t skip_lit_mask) {
  assert(!finalized_);
  ++result_.stats.candidates;
  ResolveCandidate(clause_idx, assignment, skip_lit_mask);
}

void GroundingContext::BuildChunkPlan(int clause_idx,
                                      const std::vector<VarId>& out_vars,
                                      uint64_t skip_lit_mask) {
  ChunkPlan& p = chunk_plan_;
  p = ChunkPlan{};
  p.clause_idx = clause_idx;
  p.skip_lit_mask = skip_lit_mask;
  p.valid = true;

  const Clause& clause = program_.clauses()[clause_idx];
  p.zero_weight_skip = !clause.hard && clause.weight == 0.0 &&
                       !options_.keep_zero_weight_clauses;
  var_col_.assign(clause.num_vars, -1);
  for (size_t c = 0; c < out_vars.size(); ++c) {
    var_col_[out_vars[c]] = static_cast<int>(c);
  }
  if (p.zero_weight_skip) {
    p.usable = true;
    return;
  }
  if (table_ == nullptr) return;  // generic per-row path

  for (const EqualityConstraint& eq : clause.equalities) {
    ChunkEqPlan ep;
    ep.equal = eq.equal;
    if (eq.lhs.is_var) {
      ep.col_l = var_col_[eq.lhs.id];
      if (ep.col_l < 0) return;  // existential term: generic path
    } else {
      ep.const_l = eq.lhs.id;
    }
    if (eq.rhs.is_var) {
      ep.col_r = var_col_[eq.rhs.id];
      if (ep.col_r < 0) return;
    } else {
      ep.const_r = eq.rhs.id;
    }
    p.eqs.push_back(ep);
  }

  for (size_t li = 0; li < clause.literals.size(); ++li) {
    if ((skip_lit_mask >> li) & 1) continue;
    const Literal& lit = clause.literals[li];
    for (const Term& t : lit.args) {
      if (t.is_var && var_col_[t.id] < 0) return;  // existential: generic
    }
    const Slot* slot = SlotOf(lit.pred);
    if (slot == nullptr) return;
    ChunkLitPlan lp;
    lp.lit_idx = static_cast<int>(li);
    lp.positive = lit.positive;
    lp.cells = slot->cells.get();
    lp.key_base = slot->key_base;
    lp.base = 0;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      const Term& t = lit.args[i];
      const std::vector<int32_t>& index = *slot->arg_index[i];
      if (!t.is_var) {
        if (t.id < 0 || static_cast<size_t>(t.id) >= index.size() ||
            index[t.id] < 0) {
          return;  // constant outside its domain: generic path
        }
        lp.base += static_cast<size_t>(index[t.id]) * slot->stride[i];
      } else {
        lp.vars.push_back(ChunkLitPlan::VarTerm{
            var_col_[t.id], slot->stride[i], index.data(), index.size()});
      }
    }
    p.lits.push_back(std::move(lp));
  }
  p.usable = true;
}

int32_t GroundingContext::ResolveUnseenCell(const Literal& lit,
                                            const ColumnChunk& chunk,
                                            uint32_t row,
                                            std::atomic<int32_t>* cell) {
  scratch_atom_.pred = lit.pred;
  scratch_atom_.args.resize(lit.args.size());
  for (size_t i = 0; i < lit.args.size(); ++i) {
    const Term& t = lit.args[i];
    scratch_atom_.args[i] =
        t.is_var ? static_cast<ConstantId>(chunk.col(var_col_[t.id])[row])
                 : t.id;
  }
  const int32_t v = CellOf(evidence_.Lookup(program_, scratch_atom_));
  cell->store(v, std::memory_order_relaxed);
  return v;
}

void GroundingContext::AddCandidateChunk(int clause_idx,
                                         const ColumnChunk& chunk,
                                         const std::vector<VarId>& out_vars,
                                         uint64_t skip_lit_mask) {
  assert(!finalized_);
  const Clause& clause = program_.clauses()[clause_idx];
  if (!chunk_plan_.valid || chunk_plan_.clause_idx != clause_idx ||
      chunk_plan_.skip_lit_mask != skip_lit_mask) {
    BuildChunkPlan(clause_idx, out_vars, skip_lit_mask);
  }
  result_.stats.candidates += chunk.num_rows;
  const ChunkPlan& p = chunk_plan_;

  if (!p.usable) {
    // Generic per-row fallback (existential positions, wide predicates,
    // out-of-domain constants).
    scratch_assignment_.assign(clause.num_vars, -1);
    for (uint32_t r = 0; r < chunk.num_rows; ++r) {
      for (size_t c = 0; c < out_vars.size(); ++c) {
        scratch_assignment_[out_vars[c]] =
            static_cast<ConstantId>(chunk.col(c)[r]);
      }
      ResolveCandidate(clause_idx, scratch_assignment_, skip_lit_mask);
    }
    return;
  }
  if (p.zero_weight_skip) return;

  for (uint32_t r = 0; r < chunk.num_rows; ++r) {
    bool satisfied = false;
    for (const ChunkEqPlan& eq : p.eqs) {
      const ConstantId lhs =
          eq.col_l >= 0 ? static_cast<ConstantId>(chunk.col(eq.col_l)[r])
                        : eq.const_l;
      const ConstantId rhs =
          eq.col_r >= 0 ? static_cast<ConstantId>(chunk.col(eq.col_r)[r])
                        : eq.const_r;
      if ((lhs == rhs) == eq.equal) {
        satisfied = true;
        break;
      }
    }

    scratch_open_.clear();
    if (!satisfied) {
      for (const ChunkLitPlan& lp : p.lits) {
        size_t index = lp.base;
        bool in_dense = true;
        for (const ChunkLitPlan::VarTerm& vt : lp.vars) {
          const int64_t v = chunk.col(vt.col)[r];
          if (v < 0 || static_cast<size_t>(v) >= vt.index_size) {
            in_dense = false;
            break;
          }
          const int32_t d = vt.index[v];
          if (d < 0) {
            in_dense = false;
            break;
          }
          index += static_cast<size_t>(d) * vt.stride;
        }
        int32_t cand;
        bool known_true = false;
        if (in_dense) {
          int32_t cell = lp.cells[index].load(std::memory_order_relaxed);
          if (cell == CandidateAtomTable::kUnseen) {
            cell = ResolveUnseenCell(clause.literals[lp.lit_idx], chunk, r,
                                     &lp.cells[index]);
          }
          if (cell == CandidateAtomTable::kUnknown) {
            cand = lp.key_base + static_cast<int32_t>(index);
          } else {
            cand = -1;
            known_true = cell == CandidateAtomTable::kKnownTrue;
          }
        } else {
          // Out-of-domain constant in the row: hash-interner fallback.
          scratch_atom_.pred = clause.literals[lp.lit_idx].pred;
          const Literal& lit = clause.literals[lp.lit_idx];
          scratch_atom_.args.resize(lit.args.size());
          for (size_t i = 0; i < lit.args.size(); ++i) {
            const Term& t = lit.args[i];
            scratch_atom_.args[i] =
                t.is_var
                    ? static_cast<ConstantId>(chunk.col(var_col_[t.id])[r])
                    : t.id;
          }
          cand = InternScratchAtom(&known_true);
        }
        if (cand >= 0) {
          scratch_open_.push_back(lp.positive ? cand + 1 : -(cand + 1));
        } else if (known_true == lp.positive) {
          satisfied = true;
          break;
        }
      }
    }

    SettleCandidate(clause_idx, clause, satisfied);
  }
}

void GroundingContext::AbsorbPending(GroundingContext* local) {
  assert(!finalized_ && !local->finalized_);
  assert(table_ == local->table_ && "cell keys name atoms of one table");
  const GroundingResult& lr = local->result_;
  result_.stats.working_set_bytes += lr.stats.working_set_bytes;
  result_.stats.candidates += lr.stats.candidates;
  result_.stats.satisfied_by_evidence += lr.stats.satisfied_by_evidence;
  result_.stats.pruned_by_antijoin += lr.stats.pruned_by_antijoin;
  for (size_t r = 0; r < result_.rule_fixed_groundings.size(); ++r) {
    result_.rule_fixed_groundings[r] += lr.rule_fixed_groundings[r];
    result_.rule_hard_violations[r] += lr.rule_hard_violations[r];
  }
  // The local arena holds the pending spans back to back, in order.
  // Cell keys name the same atom here; hash-interned keys are local, so
  // those atoms are re-interned, lazily: only the ones that survived into
  // a pending clause.
  const uint32_t shift = static_cast<uint32_t>(pending_lits_.size());
  std::vector<int32_t> remap(local->hash_atoms_.size(), -1);
  for (CandLit l : local->pending_lits_) {
    const int32_t key = l > 0 ? l - 1 : -l - 1;
    if (key >= kHashKeyBase) {
      int32_t& m = remap[key - kHashKeyBase];
      if (m < 0) m = InternUnknownAtom(local->hash_atoms_[key - kHashKeyBase]);
      l = l > 0 ? m + 1 : -(m + 1);
    }
    pending_lits_.push_back(l);
  }
  for (const PendingClause& pc : local->pending_) {
    pending_.push_back(
        PendingClause{pc.clause_idx, pc.begin + shift, pc.end + shift});
  }
  local->pending_.clear();
  local->pending_lits_.clear();
}

// --------------------------------------------------------------- closure

bool GroundingContext::IsActive(const PendingClause& pc) const {
  const Clause& clause = program_.clauses()[pc.clause_idx];
  if (clause.hard || clause.weight > 0) {
    // Violable iff every negative literal's atom can be true, i.e. is
    // active (unknown atoms default to false under lazy inference).
    for (uint32_t i = pc.begin; i < pc.end; ++i) {
      const CandLit l = pending_lits_[i];
      if (l < 0 && !IsActiveAtom(-l - 1)) return false;
    }
    return true;
  }
  // Negative weight: violated when the clause is true, i.e. some literal
  // can be made true.
  for (uint32_t i = pc.begin; i < pc.end; ++i) {
    const CandLit l = pending_lits_[i];
    if (l < 0) return true;  // atom defaults to false => literal true
    if (IsActiveAtom(l - 1)) return true;
  }
  return false;
}

void GroundingContext::Emit(const PendingClause& pc) {
  scratch_emit_lits_.clear();
  for (uint32_t i = pc.begin; i < pc.end; ++i) {
    const CandLit l = pending_lits_[i];
    const int32_t key = l > 0 ? l - 1 : -l - 1;
    AtomId& id = AtomMemo(key);
    if (id == kNoAtom) {
      // First emission: the atom gets its id, and so becomes active.
      if (key >= kHashKeyBase) {
        id = result_.atoms.GetOrCreate(hash_atoms_[key - kHashKeyBase]);
      } else {
        table_->Decode(key, &scratch_atom_);
        id = result_.atoms.GetOrCreate(scratch_atom_);
      }
    }
    scratch_emit_lits_.push_back(MakeLit(id, l > 0));
  }
  result_.clauses.AddFromScratch(&scratch_emit_lits_, pc.clause_idx);
}

Result<GroundingResult> GroundingContext::Finalize() {
  if (finalized_) return Status::Internal("Finalize called twice");
  finalized_ = true;
  if (table_ != nullptr) {
    // The table's cells count here, once, whichever contexts built them.
    slot_atoms_.resize(table_->num_slots());
    for (size_t s = 0; s < slot_atoms_.size(); ++s) {
      const size_t cells = table_->BuiltCells(s);
      slot_atoms_[s].assign(cells, kNoAtom);
      result_.stats.working_set_bytes += cells * sizeof(int32_t);
    }
  }
  hash_atom_ids_.assign(hash_atoms_.size(), kNoAtom);

  if (!options_.lazy_closure) {
    for (const PendingClause& pc : pending_) Emit(pc);
    pending_.clear();
  } else {
    // Active-closure fixpoint (Appendix A.3): emitting a clause activates
    // its atoms, which may activate further clauses. The literal arena is
    // left untouched across iterations (spans stay valid); only the span
    // list is compacted.
    bool changed = true;
    int iterations = 0;
    std::vector<PendingClause> still_pending;
    while (changed && iterations < kMaxClosureIterations) {
      changed = false;
      ++iterations;
      still_pending.clear();
      still_pending.reserve(pending_.size());
      for (const PendingClause& pc : pending_) {
        if (IsActive(pc)) {
          Emit(pc);
          changed = true;
        } else {
          still_pending.push_back(pc);
        }
      }
      pending_.swap(still_pending);
    }
    result_.stats.closure_iterations = iterations;
    result_.stats.pruned_inactive = pending_.size();
    pending_.clear();
  }
  pending_lits_.clear();

  // Weights and the fixed cost derive from the counts, so neither depends
  // on the order groundings arrived in or on how rules were split.
  const RuleWeights rules(program_);
  GroundClauseStore& store = result_.clauses;
  for (size_t c = 0; c < store.num_clauses(); ++c) {
    GroundClause& clause = store.mutable_clauses()[c];
    store.DeriveWeight(c, rules.weight, rules.hard, &clause.weight,
                       &clause.hard);
  }
  result_.fixed_cost = rules.FixedCost(result_.rule_fixed_groundings);
  for (size_t r = 0; r < result_.rule_fixed_groundings.size(); ++r) {
    result_.stats.fixed_cost_groundings += result_.rule_fixed_groundings[r];
    result_.stats.hard_violations += result_.rule_hard_violations[r];
  }
  result_.hard_contradiction = result_.stats.hard_violations > 0;
  StampGroundingMetrics(result_.stats);
  return std::move(result_);
}

}  // namespace tuffy
