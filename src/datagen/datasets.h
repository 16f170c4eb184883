#ifndef TUFFY_DATAGEN_DATASETS_H_
#define TUFFY_DATAGEN_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ground/ground_clause.h"
#include "mln/model.h"
#include "util/result.h"

namespace tuffy {

/// A generated workload: program + evidence, ready for the engine.
struct Dataset {
  std::string name;
  MlnProgram program;
  EvidenceDb evidence;
};

/// Relational Classification (RC): the paper-topic program of Figure 1
/// over a synthetic Cora-like citation graph. Papers are generated in
/// disjoint clusters (citations and co-authors stay within a cluster), so
/// the MRF has about `num_clusters` components, mirroring RC's 489.
struct RcParams {
  int num_clusters = 20;
  int papers_per_cluster = 12;
  int num_categories = 6;
  int authors_per_cluster = 6;
  int citations_per_paper = 3;
  /// Fraction of papers with a known label (evidence for cat).
  double labeled_fraction = 0.4;
  uint64_t seed = 1;
};
Result<Dataset> MakeRcDataset(const RcParams& params);

/// Information Extraction (IE): Citeseer-like citation segmentation.
/// Each citation is a short token sequence; token-evidence rules vote for
/// per-position field labels and a chain rule couples adjacent positions.
/// Every citation is an independent MRF component (IE's 5341 components
/// of small cliques).
struct IeParams {
  int num_citations = 300;
  int positions_per_citation = 4;
  int num_fields = 3;
  int vocabulary = 60;
  /// Number of token->field preference rules (IE has ~1K rules).
  int num_token_rules = 120;
  uint64_t seed = 2;
};
Result<Dataset> MakeIeDataset(const IeParams& params);

/// Link Prediction (LP): a CS-department database; the query predicate
/// advisedBy(student, prof) is supported by co-publication and teaching
/// relations. Shared professors make the MRF one connected component.
struct LpParams {
  int num_professors = 12;
  int num_students = 60;
  int num_courses = 20;
  int num_publications = 120;
  uint64_t seed = 3;
};
Result<Dataset> MakeLpDataset(const LpParams& params);

/// Entity Resolution (ER): deduplicating citation records. Similarity
/// evidence votes for sameBib pairs and a transitivity rule densely
/// couples all pairs, yielding one large dense component (ER's single
/// 2M-clause component).
struct ErParams {
  int num_records = 40;
  int num_entities = 12;  // true duplicate groups
  /// Probability of spurious similarity evidence between records of
  /// different entities.
  double noise = 0.02;
  uint64_t seed = 4;
};
Result<Dataset> MakeErDataset(const ErParams& params);

/// Example 1 of the paper (Section 3.3 / Figure 8): N independent
/// components, each with atoms {X_i, Y_i} and clauses
/// {(X_i, 1), (Y_i, 1), (X_i v Y_i, -1)}. Returned directly as an MRF
/// (2N atoms, 3N ground clauses); the optimum sets every atom true with
/// cost N (each negative clause is satisfied).
std::vector<GroundClause> MakeExample1Mrf(int num_components);

/// Randomized MRF guaranteed inside the tractable fragment of
/// src/infer/exact (docs/INFERENCE_EXACT.md), for the exact-oracle
/// harness. Per component: a random pair graph of width at most
/// `max_width` (a spanning tree at 1, a random partial k-tree above) of
/// binary clauses (plus optional parallel clauses over existing edges),
/// optional unit clauses, optional hard binary clauses, and optionally a
/// hard unit plus a 3-literal clause that hard-unit propagation shrinks
/// to binary (the conditioned/TML-style case). All weights are dyadic
/// (multiples of 1/8), so cost sums are FP-exact in any order, and every
/// hard clause is satisfied by a hidden random assignment — the
/// component is never hard-unsatisfiable.
struct TractableMrfParams {
  int num_components = 10;
  int min_atoms = 1;
  int max_atoms = 8;
  /// Per-atom probability of a soft unit clause.
  double unit_prob = 0.7;
  /// Per-tree-edge probability of one extra parallel binary clause.
  double extra_pair_prob = 0.3;
  /// Per-binary-clause probability of being hard.
  double hard_prob = 0.15;
  /// Per-soft-clause probability of a negative weight.
  double negative_prob = 0.3;
  /// Per-component probability of the conditioned case: a hard unit on
  /// atom 0 plus a 3-literal clause it shrinks to binary.
  double conditioned_prob = 0.3;
  /// Width bound k of each component's pair graph. At 1 each new atom
  /// links to one random earlier atom (a tree); above 1 it joins a random
  /// clique of at most k earlier atoms, linking to one member and to each
  /// other member with probability 1/2.
  int max_width = 1;
  uint64_t seed = 7;
};
/// `num_atoms_out` receives the total atom count (atoms of clause-less
/// single-atom components included, which appear in no clause).
std::vector<GroundClause> MakeTractableMrf(const TractableMrfParams& params,
                                           size_t* num_atoms_out);

}  // namespace tuffy

#endif  // TUFFY_DATAGEN_DATASETS_H_
