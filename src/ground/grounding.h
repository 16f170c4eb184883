#ifndef TUFFY_GROUND_GROUNDING_H_
#define TUFFY_GROUND_GROUNDING_H_

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
  /// Hard-clause candidates violated outright by the evidence. The
  /// serving layer tracks this per rule as a count so binding-level
  /// deltas can retract individual violations.
  uint64_t hard_violations = 0;
  /// Soft candidates whose cost the evidence fixes; each adds its rule's
  /// |weight| to fixed_cost (serving derives a rule's fixed cost from it).
  uint64_t fixed_cost_groundings = 0;
  int closure_iterations = 0;
  /// Pieces bottom-up grounding resolved a rule in: one per rule, plus
  /// one for every extra morsel a split rule's driving scan was cut into
  /// (see BottomUpGrounder). A function of the program and the
  /// evidence, like every count here. Zero for the other grounders.
  uint64_t morsels = 0;
  /// Bytes of grounding state an all-in-RAM grounder holds before the
  /// closure prunes it: dense candidate cells plus pending clauses (the
  /// Alchemy term of Table 4). Nothing is freed before Finalize, so this
  /// total is the state's peak. Every context counts its own cells, so a
  /// rule split into morsels counts its cells once per morsel. It depends
  /// only on the program and the evidence, so it is equal at every thread
  /// count.
  uint64_t working_set_bytes = 0;
};

/// Output of grounding: the MRF in clause form (Section 2.3), plus the
/// cost contributed by clauses already fully determined by the evidence.
struct GroundingResult {
  AtomStore atoms;
  GroundClauseStore clauses;
  double fixed_cost = 0.0;
  /// True if a hard clause is violated by evidence alone.
  bool hard_contradiction = false;
  GroundingStats stats;
};

/// A value for every clause variable (ConstantId), indexed by VarId.
/// Entries for existential variables are ignored (set to -1).
using Assignment = std::vector<ConstantId>;

/// Global constant -> position in its type's domain (-1 outside it), one
/// `num_constants`-sized vector per type, built on first use. The dense
/// interners of every GroundingContext that shares one read the same
/// vectors, so a Ground builds each at most once however many contexts
/// its morsels resolve into. Get is safe to call from several threads.
class TypeDenseIndexes {
 public:
  explicit TypeDenseIndexes(const MlnProgram& program);

  const std::vector<int32_t>& Get(const std::string& type);

 private:
  struct Entry {
    std::once_flag built;
    std::vector<int32_t> index;
  };
  const MlnProgram& program_;
  /// One entry per type a predicate uses; the key set never changes.
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
};

/// Shared back end of both grounders: takes candidate (clause,
/// assignment) pairs from the binding phase, resolves literals against
/// the evidence (dropping satisfied clauses and false literals, expanding
/// existential quantifiers over their domains), runs the lazy-closure
/// loop, and assembles the GroundingResult.
///
/// Unknown atoms are interned into dense candidate ids on first sight,
/// with their evidence truth cached. For predicates whose argument-domain
/// product is small enough, the interner is a flat direct-addressed
/// array (one cell per possible atom: candidate id, or the cached
/// evidence truth) — resolution costs an array index per literal
/// occurrence instead of a ground-atom hash probe, which is what lets
/// the columnar binding executor's rows be consumed at full speed. Wide
/// predicates fall back to the hash interner.
class GroundingContext {
 public:
  /// `dense_interner` selects the direct-addressed candidate interner
  /// (one flat cell per possible atom of a predicate). Worth it for bulk
  /// grounding; a caller resolving a small candidate batch (binding-level
  /// deltas) turns it off, since zeroing domain-product-sized arrays
  /// would dominate. The context reads `evidence` in place, so it must
  /// stay unmutated while the context lives. `type_indexes`, if given,
  /// is shared with other contexts and must outlive this one; otherwise
  /// the context builds its own.
  GroundingContext(const MlnProgram& program, const EvidenceDb& evidence,
                   GroundingOptions options, bool dense_interner = true,
                   TypeDenseIndexes* type_indexes = nullptr);

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

  /// Merges a morsel-local context into this one: pending clauses are
  /// remapped into this context's candidate-atom interner and appended
  /// in call order, and the stats and the contradiction flag are summed.
  /// The local fixed cost is not: a rule's fixed cost comes back through
  /// AddRuleFixedCost. This is the join point of parallel grounding —
  /// workers resolve morsels into local contexts concurrently, and the
  /// owner absorbs them in (rule, morsel) order, so the merged result is
  /// independent of thread count. `local` is consumed (its pending
  /// clauses are moved out).
  void AbsorbPending(GroundingContext* local);

  /// Adds rule `clause_idx`'s fixed cost for `groundings` groundings the
  /// evidence fixed: |weight| re-added one grounding at a time into a
  /// rule sum that starts at zero, then that sum. This is the sum one
  /// context resolving the whole rule makes, so the total does not
  /// depend on how the rule was split.
  void AddRuleFixedCost(int clause_idx, uint64_t groundings);

  const GroundingStats& stats() const { return result_.stats; }

  /// Runs the closure and moves the result out. Call once.
  Result<GroundingResult> Finalize();

 private:
  /// Signed candidate-id literal: +(cid+1) positive, -(cid+1) negative.
  using CandLit = int32_t;

  /// A clause whose evidence-resolution left open literals, waiting for
  /// the activity test. Literals live in the pending_lits_ arena — one
  /// flat array instead of a heap vector per clause.
  struct PendingClause {
    int32_t clause_idx;
    uint32_t begin;
    uint32_t end;
  };

  // Cell states of the direct-addressed interner (values >= 0 are cids).
  static constexpr int32_t kCellUnseen = INT32_MIN;
  static constexpr int32_t kCellKnownTrue = -1;
  static constexpr int32_t kCellKnownFalse = -2;
  /// Upper bound on a predicate's domain product before the dense
  /// interner falls back to hashing (cells are 4 bytes each).
  static constexpr size_t kMaxDenseSlots = size_t{1} << 22;

  struct DenseInterner {
    enum class State : uint8_t { kUninit, kUsable, kUnusable };
    State state = State::kUninit;
    std::vector<int32_t> cells;
    /// Per argument position: stride in the row-major cell layout and
    /// the type's global-constant -> dense-domain-index map.
    std::vector<size_t> stride;
    std::vector<const std::vector<int32_t>*> arg_dense;
  };

  void InitDense(PredicateId pred);
  /// Flat cell for the atom, or nullptr when the predicate (or this
  /// atom's arguments) cannot use the dense path.
  int32_t* DenseCell(const GroundAtom& atom);

  /// Allocates a fresh candidate id for `atom`.
  int32_t AllocCid(const GroundAtom& atom);

  /// Interns the atom in scratch_atom_, caching its evidence truth.
  /// Returns the candidate id, or -1 if the atom's truth is known (then
  /// *known_truth is set).
  int32_t InternScratchAtom(bool* known_truth_value);

  /// Interns an atom already known to be evidence-unknown (AbsorbPending
  /// remap: unknown under the same evidence in the local context implies
  /// unknown here, so no evidence probe is needed).
  int32_t InternUnknownAtom(const GroundAtom& atom);

  /// Resolves one candidate against the evidence; appends to pending_ if
  /// the clause stays open.
  void ResolveCandidate(int clause_idx, const Assignment& assignment,
                        uint64_t skip_lit_mask);

  /// Compiled per-clause resolution plan for the chunk fast path: every
  /// non-skipped literal is ground (no existential positions) over a
  /// dense-interned predicate, so resolving a row is a handful of array
  /// reads — no GroundAtom materialization, no hash probes. Falls back
  /// to ResolveCandidate per row when the clause does not qualify.
  struct ChunkLitPlan {
    int lit_idx;
    bool positive;
    int32_t* cells;
    size_t base;  // constants' contribution to the cell key
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
  /// Slow path of the fast loop: an unseen dense cell needs the atom
  /// materialized once to probe the evidence.
  int32_t ResolveUnseenCell(const Literal& lit, const ColumnChunk& chunk,
                            uint32_t row, const ChunkLitPlan& lp,
                            int32_t* cell);

  /// Resolves one literal (expanding existential positions over their
  /// domains). Returns false if the clause became constantly true.
  bool ExpandLiteral(const Literal& lit, const Assignment& assignment,
                     bool* satisfied);

  /// Lazy-closure activity test for a pending clause.
  bool IsActive(const PendingClause& pc) const;

  void Emit(const PendingClause& pc);

  const MlnProgram& program_;
  const EvidenceDb& evidence_;
  GroundingOptions options_;
  bool dense_interner_;
  GroundingResult result_;
  std::vector<PendingClause> pending_;
  std::vector<CandLit> pending_lits_;
  std::vector<CandLit> scratch_open_;

  /// Candidate-atom interner. The dense per-predicate arrays are the
  /// fast path; the hash map backs wide predicates and out-of-domain
  /// constants. An atom lives in exactly one of the two.
  struct CandInfo {
    int32_t cid;        // -1 when the truth is evidence-determined
    int8_t known_true;  // valid when cid == -1
  };
  std::vector<DenseInterner> dense_;
  std::unique_ptr<TypeDenseIndexes> own_type_indexes_;
  TypeDenseIndexes* type_indexes_;
  std::unordered_map<GroundAtom, CandInfo, GroundAtomHash> cand_ids_;
  std::vector<GroundAtom> cand_atoms_;
  std::vector<uint8_t> cand_active_;
  GroundAtom scratch_atom_;
  Assignment scratch_assignment_;
  ChunkPlan chunk_plan_;
  /// Chunk-column of each clause variable under the current chunk plan
  /// (-1 for existential variables).
  std::vector<int> var_col_;
  /// Candidate id -> result atom id, filled during emission so repeated
  /// emissions of one atom cost an array read, not a hash probe.
  std::vector<AtomId> cid_atom_;
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
