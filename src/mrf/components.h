#ifndef TUFFY_MRF_COMPONENTS_H_
#define TUFFY_MRF_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "ground/ground_clause.h"

namespace tuffy {

/// Connected components of the MRF hypergraph (atoms = nodes, ground
/// clauses = hyperedges), computed with one scan of the clause table over
/// an in-memory union-find structure, exactly as in Section 3.3.
struct ComponentSet {
  /// Component index of every atom (0..num_components-1).
  std::vector<int32_t> component_of_atom;
  /// Position of every atom in its component's atom list, so
  /// atoms[component_of_atom[a]][position_of_atom[a]] == a: the atom's
  /// local id in its component's sub-problem (BuildSubProblem).
  std::vector<uint32_t> position_of_atom;
  /// Atom ids per component, ascending.
  std::vector<std::vector<AtomId>> atoms;
  /// Clause indices per component (every clause is within one component).
  std::vector<std::vector<uint32_t>> clauses;

  size_t num_components() const { return atoms.size(); }
};

/// Detects components, numbered by their smallest atom, and each atom's
/// position in its component, in one pass over the atoms. Atoms that
/// appear in no clause each form their own singleton component.
ComponentSet DetectComponents(size_t num_atoms,
                              const std::vector<GroundClause>& clauses);

/// Size metric used for memory budgeting: number of atoms plus total
/// literal count (the paper's "total number of literals and atoms").
uint64_t ComponentSizeMetric(const ComponentSet& components, size_t index,
                             const std::vector<GroundClause>& clauses);

/// Dirty-component bookkeeping for the serving layer (delta inference).
/// Maps each component of `next` to the component of `prev` whose cached
/// search state it inherits: entry c is the `prev` component id when
/// component c is *clean*, or -1 when it is *dirty* and must be
/// re-searched. A component is dirty iff it contains a dirty atom
/// (`atom_dirty`, indexed by atom id and sized for `next`) or an atom
/// that did not exist in `prev`.
///
/// Soundness: every clause edit (add / remove / reweight) marks the
/// clause's atoms dirty, so a component with no dirty atom has exactly
/// the atom and clause set of its `prev` counterpart — membership only
/// changes through an edited clause, and both merges (added clause) and
/// splits (removed clause) touch dirty atoms. Its cached best truth and
/// cost therefore remain verbatim valid.
std::vector<int32_t> MapCleanComponents(const ComponentSet& prev,
                                        const ComponentSet& next,
                                        const std::vector<uint8_t>& atom_dirty);

}  // namespace tuffy

#endif  // TUFFY_MRF_COMPONENTS_H_
