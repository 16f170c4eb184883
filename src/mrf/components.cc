#include "mrf/components.h"

#include "util/union_find.h"

namespace tuffy {

ComponentSet DetectComponents(size_t num_atoms,
                              const std::vector<GroundClause>& clauses) {
  UnionFind uf(num_atoms);
  for (const GroundClause& c : clauses) {
    if (c.lits.empty()) continue;
    AtomId first = LitAtom(c.lits[0]);
    for (size_t i = 1; i < c.lits.size(); ++i) {
      uf.Union(first, LitAtom(c.lits[i]));
    }
  }
  ComponentSet out;
  out.component_of_atom.assign(num_atoms, -1);
  out.position_of_atom.resize(num_atoms);
  // Component of each union-find root, indexed by the root's atom id.
  std::vector<int32_t> comp_of_root(num_atoms, -1);
  for (AtomId a = 0; a < num_atoms; ++a) {
    int32_t& comp = comp_of_root[uf.Find(a)];
    if (comp < 0) {
      comp = static_cast<int32_t>(out.atoms.size());
      out.atoms.emplace_back();
    }
    out.component_of_atom[a] = comp;
    out.position_of_atom[a] = static_cast<uint32_t>(out.atoms[comp].size());
    out.atoms[comp].push_back(a);
  }
  out.clauses.resize(out.atoms.size());
  for (size_t ci = 0; ci < clauses.size(); ++ci) {
    if (clauses[ci].lits.empty()) continue;
    int32_t comp = out.component_of_atom[LitAtom(clauses[ci].lits[0])];
    out.clauses[comp].push_back(static_cast<uint32_t>(ci));
  }
  return out;
}

uint64_t ComponentSizeMetric(const ComponentSet& components, size_t index,
                             const std::vector<GroundClause>& clauses) {
  uint64_t size = components.atoms[index].size();
  for (uint32_t ci : components.clauses[index]) {
    size += clauses[ci].lits.size();
  }
  return size;
}

std::vector<int32_t> MapCleanComponents(
    const ComponentSet& prev, const ComponentSet& next,
    const std::vector<uint8_t>& atom_dirty) {
  const size_t prev_atoms = prev.component_of_atom.size();
  std::vector<int32_t> inherit(next.num_components(), -1);
  for (size_t c = 0; c < next.num_components(); ++c) {
    bool dirty = false;
    for (AtomId a : next.atoms[c]) {
      if (a >= prev_atoms || atom_dirty[a] != 0) {
        dirty = true;
        break;
      }
    }
    if (!dirty) inherit[c] = prev.component_of_atom[next.atoms[c][0]];
  }
  return inherit;
}

}  // namespace tuffy
