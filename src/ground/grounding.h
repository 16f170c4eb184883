#ifndef TUFFY_GROUND_GROUNDING_H_
#define TUFFY_GROUND_GROUNDING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ground/ground_clause.h"
#include "mln/model.h"
#include "ra/vec_ops.h"
#include "util/result.h"

namespace tuffy {

/// Grounding configuration shared by the bottom-up and top-down grounders.
struct GroundingOptions {
  /// If true, applies the lazy-inference active closure of Appendix A.3:
  /// assume unknown atoms false, keep only clauses violable by flipping
  /// active atoms, and iterate activation to a fixpoint. If false, every
  /// evidence-undetermined ground clause is kept (exhaustive grounding).
  bool lazy_closure = true;
  /// Keep ground clauses whose soft weight is exactly 0. Inference
  /// drops them (they cannot affect the cost), but weight learning must
  /// ground them: the clause *structure* is weight-independent, and a
  /// rule initialized at (or passing through) 0 still needs its
  /// groundings counted.
  bool keep_zero_weight_clauses = false;
  /// Worker threads for bottom-up grounding: rules, and morsels of one
  /// rule's binding query, run their pipeline + evidence resolution
  /// concurrently, and the results merge in (rule, morsel) order, so the
  /// output is bit-identical for every thread count (see
  /// determinism_test).
  int num_threads = 1;
};

struct GroundingStats {
  /// Candidate variable assignments that reached evidence resolution.
  /// With anti-join pruning on, bindings pruned inside the plan are not
  /// counted here — the drop versus the unpruned configuration is the
  /// pruning win (bench_table2's anti-join lesion reports both).
  uint64_t candidates = 0;
  /// Candidates discarded because evidence already satisfies the clause
  /// — whether resolution discarded them or an anti-join pruned them
  /// before they left the executor.
  uint64_t satisfied_by_evidence = 0;
  /// Of satisfied_by_evidence, how many were pruned in-plan by
  /// anti-joins against the evidence relations.
  uint64_t pruned_by_antijoin = 0;
  /// Candidates discarded by the lazy-closure activity test.
  uint64_t pruned_inactive = 0;
  /// Hard-clause candidates violated outright by the evidence, summed
  /// over GroundingResult::rule_hard_violations. A serving session starts
  /// its per-rule counts from those, so binding-level deltas can retract
  /// individual violations.
  uint64_t hard_violations = 0;
  /// Soft candidates whose cost the evidence fixes. fixed_cost derives
  /// from their per-rule counts (RuleWeights::FixedCost), in batch
  /// grounding and in serving alike.
  uint64_t fixed_cost_groundings = 0;
  int closure_iterations = 0;
  /// Pieces bottom-up grounding resolved a rule in: one per rule, plus
  /// one for every extra morsel a split rule's driving scan was cut into
  /// (see BottomUpGrounder). A function of the program and the
  /// evidence, like every count here. Zero for the other grounders.
  uint64_t morsels = 0;
  /// Bytes of grounding state an all-in-RAM grounder holds before the
  /// closure prunes it: candidate-atom cells plus pending clauses (the
  /// Alchemy term of Table 4). Nothing is freed before Finalize, so this
  /// total is the state's peak. Cells count once per CandidateAtomTable,
  /// at 4 bytes each, however many contexts resolved into it; pending
  /// clauses count once per context that resolved them. It depends only
  /// on the program and the evidence, so it is equal at every thread
  /// count.
  uint64_t working_set_bytes = 0;
};

/// Output of grounding: the MRF in clause form (Section 2.3), plus the
/// cost contributed by clauses already fully determined by the evidence.
/// Clause weights and the fixed cost derive from grounding counts
/// (RuleWeights), never from running sums.
struct GroundingResult {
  AtomStore atoms;
  GroundClauseStore clauses;
  double fixed_cost = 0.0;
  /// True if a hard clause is violated by evidence alone.
  bool hard_contradiction = false;
  GroundingStats stats;
  /// Per rule (program clause index): the groundings counted in
  /// stats.fixed_cost_groundings and in stats.hard_violations.
  std::vector<uint64_t> rule_fixed_groundings;
  std::vector<uint64_t> rule_hard_violations;
};

/// A value for every clause variable (ConstantId), indexed by VarId.
/// Entries for existential variables are ignored (set to -1).
using Assignment = std::vector<ConstantId>;

/// The candidate-atom table of one Ground, shared by every
/// GroundingContext that resolves into it: the owner and each morsel's
/// context. A predicate whose argument-domain product is at most
/// kMaxCells has one cell per possible atom, addressed row-major by the
/// atom's positions in its argument types' domains; its cells are built
/// on first use. A cell holds the atom's evidence truth, nothing else:
/// unseen, true, false or unknown. Writers use relaxed atomic stores, and
/// a cell's value depends only on the evidence, so concurrent writers
/// store the same value.
///
/// A pending clause names an unknown atom that has a cell by its key,
/// (slot << kCellBits) | cell, the same in every context. So a context
/// keeps nothing per such atom, and AbsorbPending appends a morsel's
/// pending literals unchanged. Keys are identities only: no atom id,
/// order or stat depends on a key's value or on which thread built a
/// predicate's cells. Slots go to the predicates with cells in id order,
/// up to kHashKeyBase >> kCellBits (256) of them; later predicates, like
/// wide ones, fall back to each context's hash interner. Get is safe to
/// call from several threads.
class CandidateAtomTable {
 public:
  enum CellValue : int32_t {
    kUnseen = 0,
    kKnownTrue = 1,
    kKnownFalse = 2,
    kUnknown = 3
  };
  static constexpr int kCellBits = 22;
  static constexpr size_t kMaxCells = size_t{1} << kCellBits;
  /// Keys of cells lie below this; a context numbers the atoms it
  /// hash-interns from here up.
  static constexpr int32_t kHashKeyBase = int32_t{1} << 30;

  /// One predicate's cells, with its key base and per-argument layout.
  struct Slot {
    PredicateId pred = -1;
    int32_t key_base = 0;
    size_t num_cells = 0;
    /// Per argument: stride in the row-major cell layout, global
    /// constant -> position in the type's domain (-1 outside it), and the
    /// domain itself.
    std::vector<size_t> stride;
    std::vector<const std::vector<int32_t>*> arg_index;
    std::vector<const std::vector<ConstantId>*> arg_domain;
    std::unique_ptr<std::atomic<int32_t>[]> cells;
    std::once_flag built;
  };

  explicit CandidateAtomTable(const MlnProgram& program);

  /// `pred`'s slot, its cells built on first use, or null when the
  /// predicate has no cells.
  const Slot* Get(PredicateId pred);

  /// The atom a cell key names.
  void Decode(int32_t key, GroundAtom* atom) const;

  size_t num_slots() const { return num_slots_; }
  /// Cells of slot `s` if some context has used it, else 0. Call once no
  /// other thread uses the table.
  size_t BuiltCells(size_t s) const {
    return slots_[s].cells != nullptr ? slots_[s].num_cells : 0;
  }

 private:
  /// Global constant -> position in `type`'s domain, one
  /// `num_constants`-sized vector per type, built on first use.
  const std::vector<int32_t>& TypeIndex(const std::string& type);

  struct TypeEntry {
    std::once_flag built;
    std::vector<int32_t> index;
  };
  const MlnProgram& program_;
  /// One entry per type a predicate uses; the key set never changes.
  std::unordered_map<std::string, std::unique_ptr<TypeEntry>> types_;
  std::vector<int32_t> slot_of_pred_;  // -1: no cells
  std::unique_ptr<Slot[]> slots_;
  size_t num_slots_ = 0;
};

/// Shared back end of both grounders: takes candidate (clause,
/// assignment) pairs from the binding phase, resolves literals against
/// the evidence (dropping satisfied clauses and false literals, expanding
/// existential quantifiers over their domains), runs the lazy-closure
/// loop, and assembles the GroundingResult.
///
/// An atom's evidence truth is cached on first sight. For predicates
/// with cells in the CandidateAtomTable, the cache is the atom's cell,
/// and an unknown atom is named by its table key — resolution costs an
/// array index per literal occurrence instead of a ground-atom hash
/// probe, which is what lets the columnar binding executor's rows be
/// consumed at full speed. Wide predicates and out-of-domain constants
/// fall back to the context's hash interner, whose unknown atoms get
/// context-local keys from kHashKeyBase up.
class GroundingContext {
 public:
  /// The context resolves into `table`, which the caller owns and which
  /// must outlive the context; a context given no table hash-interns
  /// every atom (the right trade for a small candidate batch, where
  /// building domain-product-sized cell arrays would dominate). The
  /// context reads `evidence` in place, so it must stay unmutated while
  /// the context lives. Finalize counts the table's cells, so of the
  /// contexts sharing a table only one finalizes; the others are merged
  /// into it by AbsorbPending.
  GroundingContext(const MlnProgram& program, const EvidenceDb& evidence,
                   GroundingOptions options,
                   CandidateAtomTable* table = nullptr);

  /// Registers a candidate grounding of program.clauses()[clause_idx].
  /// Bit k of `skip_lit_mask` marks literal k as resolution-exempt: the
  /// caller guarantees the literal is false under the evidence (the
  /// binding join already matched its atom against true rows), so it
  /// contributes nothing to the ground clause.
  void AddCandidate(int clause_idx, const Assignment& assignment,
                    uint64_t skip_lit_mask = 0);

  /// Bulk registration of one batch-executor output chunk: column c of
  /// `chunk` binds variable out_vars[c]. One scratch assignment serves
  /// the whole chunk (no per-candidate allocation).
  void AddCandidateChunk(int clause_idx, const ColumnChunk& chunk,
                         const std::vector<VarId>& out_vars,
                         uint64_t skip_lit_mask = 0);

  /// Records `rows` bindings pruned in-plan by evidence anti-joins (they
  /// never reached AddCandidate*, but they are evidence-satisfied
  /// candidates all the same — see GroundingStats).
  void RecordAntiJoinPruned(uint64_t rows) {
    result_.stats.pruned_by_antijoin += rows;
    result_.stats.satisfied_by_evidence += rows;
  }

  /// Records one more morsel (see GroundingStats::morsels).
  void RecordMorsel() { ++result_.stats.morsels; }

  /// Merges a morsel-local context that shares this one's table: its
  /// pending clauses are appended in call order, their literals
  /// unchanged except for hash-interned atoms, whose local keys are
  /// re-interned here. The stats and the per-rule fixed-cost and
  /// hard-violation counts are summed; Finalize derives the fixed cost
  /// and the contradiction flag from the counts. This is the join point
  /// of parallel grounding — workers resolve morsels into local contexts
  /// concurrently, and the owner absorbs them in (rule, morsel) order, so
  /// the merged result is independent of thread count. `local` is
  /// consumed (its pending clauses are moved out).
  void AbsorbPending(GroundingContext* local);

  /// Runs the closure, derives every clause's weight and hard flag
  /// (GroundClauseStore::DeriveWeight), the fixed cost
  /// (RuleWeights::FixedCost) and the contradiction flag from the
  /// grounding counts, and moves the result out. Call once.
  Result<GroundingResult> Finalize();

 private:
  using Slot = CandidateAtomTable::Slot;
  static constexpr int kCellBits = CandidateAtomTable::kCellBits;
  static constexpr int32_t kCellMask = (int32_t{1} << kCellBits) - 1;
  static constexpr int32_t kHashKeyBase = CandidateAtomTable::kHashKeyBase;

  /// Signed candidate-key literal: +(key+1) positive, -(key+1) negative.
  using CandLit = int32_t;

  /// A clause whose evidence-resolution left open literals, waiting for
  /// the activity test. Literals live in the pending_lits_ arena — one
  /// flat array instead of a heap vector per clause.
  struct PendingClause {
    int32_t clause_idx;
    uint32_t begin;
    uint32_t end;
  };

  /// `pred`'s table slot (null: no table, or no cells), looked up in the
  /// table once per context.
  const Slot* SlotOf(PredicateId pred);
  /// The atom's table cell, setting *key, or nullptr when it has none
  /// (see SlotOf, or an argument outside its type's domain).
  std::atomic<int32_t>* DenseCell(const GroundAtom& atom, int32_t* key);

  /// Gives `atom` the next hash-interned key.
  int32_t AllocHashKey(const GroundAtom& atom);

  /// Interns the atom in scratch_atom_, caching its evidence truth.
  /// Returns the candidate key, or -1 if the atom's truth is known (then
  /// *known_truth is set).
  int32_t InternScratchAtom(bool* known_truth_value);

  /// Hash-interns an atom already known to be evidence-unknown
  /// (AbsorbPending remap: unknown under the same evidence in the local
  /// context implies unknown here, so no evidence probe is needed).
  int32_t InternUnknownAtom(const GroundAtom& atom);

  /// Resolves one candidate against the evidence; appends to pending_ if
  /// the clause stays open.
  void ResolveCandidate(int clause_idx, const Assignment& assignment,
                        uint64_t skip_lit_mask);

  /// Records a resolved candidate of rule `clause_idx`: satisfied by the
  /// evidence, constantly false (no literal in scratch_open_), or
  /// pending on scratch_open_'s literals.
  void SettleCandidate(int clause_idx, const Clause& clause,
                       bool satisfied);

  /// Compiled per-clause resolution plan for the chunk fast path: every
  /// non-skipped literal is ground (no existential positions) over a
  /// predicate with table cells, so resolving a row is a handful of array
  /// reads — no GroundAtom materialization, no hash probes. Falls back
  /// to ResolveCandidate per row when the clause does not qualify.
  struct ChunkLitPlan {
    int lit_idx;
    bool positive;
    std::atomic<int32_t>* cells;
    int32_t key_base;
    size_t base;  // constants' contribution to the cell index
    struct VarTerm {
      int col;  // chunk column holding the variable's value
      size_t stride;
      const int32_t* index;  // global constant -> dense domain index
      size_t index_size;
    };
    std::vector<VarTerm> vars;
  };
  struct ChunkEqPlan {
    int col_l = -1;  // -1: use const_l
    int col_r = -1;
    ConstantId const_l = -1;
    ConstantId const_r = -1;
    bool equal = true;
  };
  struct ChunkPlan {
    int clause_idx = -1;
    uint64_t skip_lit_mask = 0;
    bool valid = false;   // plan matches (clause_idx, mask)
    bool usable = false;  // fast path applies
    bool zero_weight_skip = false;
    std::vector<ChunkLitPlan> lits;
    std::vector<ChunkEqPlan> eqs;
  };
  void BuildChunkPlan(int clause_idx, const std::vector<VarId>& out_vars,
                      uint64_t skip_lit_mask);
  /// Slow path of the fast loop: an unseen cell needs the atom
  /// materialized once to probe the evidence. Returns the stored value.
  int32_t ResolveUnseenCell(const Literal& lit, const ColumnChunk& chunk,
                            uint32_t row, std::atomic<int32_t>* cell);

  /// Resolves one literal (expanding existential positions over their
  /// domains). Returns false if the clause became constantly true.
  bool ExpandLiteral(const Literal& lit, const Assignment& assignment,
                     bool* satisfied);

  /// Finalize's memo of a candidate key's result atom id: per cell of
  /// every table slot some context used, and per hash-interned atom. An
  /// atom gets its id when a clause holding it is first emitted, which is
  /// also when it becomes active, so kNoAtom doubles as "inactive".
  static constexpr AtomId kNoAtom = ~AtomId{0};
  AtomId& AtomMemo(int32_t key) {
    if (key >= kHashKeyBase) return hash_atom_ids_[key - kHashKeyBase];
    return slot_atoms_[key >> kCellBits][key & kCellMask];
  }
  bool IsActiveAtom(int32_t key) const {
    if (key >= kHashKeyBase) {
      return hash_atom_ids_[key - kHashKeyBase] != kNoAtom;
    }
    return slot_atoms_[key >> kCellBits][key & kCellMask] != kNoAtom;
  }

  /// Lazy-closure activity test for a pending clause.
  bool IsActive(const PendingClause& pc) const;

  void Emit(const PendingClause& pc);

  const MlnProgram& program_;
  const EvidenceDb& evidence_;
  GroundingOptions options_;
  GroundingResult result_;
  std::vector<PendingClause> pending_;
  std::vector<CandLit> pending_lits_;
  std::vector<CandLit> scratch_open_;

  /// Candidate-atom interners. The shared table's cells are the fast
  /// path; the hash map backs wide predicates and out-of-domain
  /// constants. An atom lives in exactly one of the two.
  struct CandInfo {
    int32_t key;        // -1 when the truth is evidence-determined
    int8_t known_true;  // valid when key == -1
  };
  CandidateAtomTable* table_;  // null: hash interner only
  struct PredSlot {
    bool looked_up = false;
    const Slot* slot = nullptr;
  };
  std::vector<PredSlot> pred_slots_;
  std::unordered_map<GroundAtom, CandInfo, GroundAtomHash> hash_keys_;
  /// Hash-interned unknown atoms, by key - kHashKeyBase.
  std::vector<GroundAtom> hash_atoms_;
  GroundAtom scratch_atom_;
  Assignment scratch_assignment_;
  ChunkPlan chunk_plan_;
  /// Chunk-column of each clause variable under the current chunk plan
  /// (-1 for existential variables).
  std::vector<int> var_col_;
  /// AtomMemo's arrays: per table slot, and per hash-interned atom.
  std::vector<std::vector<AtomId>> slot_atoms_;
  std::vector<AtomId> hash_atom_ids_;
  std::vector<Lit> scratch_emit_lits_;

  /// Count index for closed-world existential literals: for predicate p
  /// and a bitmask of bound argument positions, maps the bound-argument
  /// values to the number of matching *true* evidence rows. Lets
  /// "EXIST x wrote(x, p)" resolve with one probe instead of a domain
  /// scan. Built lazily per (pred, mask).
  struct PatternKey {
    PredicateId pred;
    uint32_t mask;
    bool operator==(const PatternKey& o) const {
      return pred == o.pred && mask == o.mask;
    }
  };
  struct PatternKeyHash {
    size_t operator()(const PatternKey& k) const {
      return std::hash<int64_t>{}((int64_t(k.pred) << 32) | k.mask);
    }
  };
  using BoundValsCount =
      std::unordered_map<std::vector<ConstantId>, uint32_t,
                         GroundAtomHash_ArgsOnly>;
  std::unordered_map<PatternKey, BoundValsCount, PatternKeyHash>
      pattern_index_;
  std::vector<ConstantId> scratch_bound_vals_;

  /// Returns the number of true evidence rows of `pred` whose arguments
  /// match `bound_vals` at the positions in `mask`.
  uint32_t CountMatchingTrueRows(PredicateId pred, uint32_t mask,
                                 const std::vector<ConstantId>& bound_vals);

  bool finalized_ = false;
};

}  // namespace tuffy

#endif  // TUFFY_GROUND_GROUNDING_H_
