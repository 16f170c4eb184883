#include "mrf/partitioner.h"

#include <algorithm>
#include <cmath>

#include "util/union_find.h"

namespace tuffy {

double PartitionResult::CutWeight(const std::vector<GroundClause>& all) const {
  double w = 0.0;
  for (uint32_t ci : cut_clauses) {
    w += all[ci].hard ? 1e9 : std::fabs(all[ci].weight);
  }
  return w;
}

PartitionResult PartitionMrf(size_t num_atoms,
                             const std::vector<GroundClause>& clauses,
                             uint64_t beta) {
  // Process clauses in descending |weight|; hard clauses first.
  std::vector<uint32_t> order(clauses.size());
  for (uint32_t i = 0; i < clauses.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    double wa = clauses[a].hard ? 1e18 : std::fabs(clauses[a].weight);
    double wb = clauses[b].hard ? 1e18 : std::fabs(clauses[b].weight);
    if (wa != wb) return wa > wb;
    return a < b;
  });

  UnionFind uf(num_atoms);
  // Load (atoms + literals) per current root.
  std::vector<uint64_t> load(num_atoms, 1);

  std::vector<bool> is_cut(clauses.size(), false);
  for (uint32_t ci : order) {
    const GroundClause& c = clauses[ci];
    if (c.lits.empty()) continue;
    // Distinct roots of this clause's atoms and their combined load.
    std::vector<uint32_t> roots;
    uint64_t combined = c.lits.size();
    for (Lit l : c.lits) {
      uint32_t r = uf.Find(LitAtom(l));
      bool seen = false;
      for (uint32_t existing : roots) seen |= (existing == r);
      if (!seen) {
        roots.push_back(r);
        combined += load[r];
      }
    }
    if (roots.size() == 1) {
      // Already one partition; the clause just adds its literals.
      if (load[roots[0]] + c.lits.size() <= beta) {
        load[roots[0]] += c.lits.size();
      } else {
        is_cut[ci] = true;
      }
      continue;
    }
    if (combined <= beta) {
      uint32_t merged = roots[0];
      for (size_t i = 1; i < roots.size(); ++i) {
        merged = uf.Union(merged, roots[i]);
      }
      load[uf.Find(merged)] = combined;
    } else {
      is_cut[ci] = true;
    }
  }

  PartitionResult out;
  out.partition_of_atom.assign(num_atoms, -1);
  out.position_of_atom.resize(num_atoms);
  // Partition of each union-find root, indexed by the root's atom id.
  std::vector<int32_t> part_of_root(num_atoms, -1);
  for (AtomId a = 0; a < num_atoms; ++a) {
    int32_t& part = part_of_root[uf.Find(a)];
    if (part < 0) {
      part = static_cast<int32_t>(out.atoms.size());
      out.atoms.emplace_back();
      out.sizes.push_back(0);
    }
    out.partition_of_atom[a] = part;
    out.position_of_atom[a] = static_cast<uint32_t>(out.atoms[part].size());
    out.atoms[part].push_back(a);
    ++out.sizes[part];
  }
  out.clauses.resize(out.atoms.size());
  for (uint32_t ci = 0; ci < clauses.size(); ++ci) {
    const GroundClause& c = clauses[ci];
    if (c.lits.empty()) continue;
    if (is_cut[ci]) {
      // A clause marked cut for budget reasons may still have all atoms
      // in one partition (single-root overflow); treat it as internal in
      // that case to avoid needless Gauss-Seidel coupling.
      int32_t p0 = out.partition_of_atom[LitAtom(c.lits[0])];
      bool spans = false;
      for (Lit l : c.lits) {
        if (out.partition_of_atom[LitAtom(l)] != p0) spans = true;
      }
      if (spans) {
        out.cut_clauses.push_back(ci);
        continue;
      }
      is_cut[ci] = false;
    }
    int32_t p = out.partition_of_atom[LitAtom(c.lits[0])];
    out.clauses[p].push_back(ci);
    out.sizes[p] += c.lits.size();
  }
  return out;
}

}  // namespace tuffy
