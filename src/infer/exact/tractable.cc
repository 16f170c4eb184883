#include "infer/exact/tractable.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

namespace tuffy {

namespace {

/// An atom's neighbours as a sparse bitset: (word index, 64-bit mask)
/// pairs sorted by word. A component of up to 64 atoms needs one word per
/// row, and a row never holds more words than neighbours.
using BitRow = std::vector<std::pair<uint32_t, uint64_t>>;

BitRow::const_iterator FindWord(const BitRow& row, uint32_t word) {
  return std::lower_bound(
      row.begin(), row.end(), word,
      [](const std::pair<uint32_t, uint64_t>& p, uint32_t w) {
        return p.first < w;
      });
}

bool RowHas(const BitRow& row, uint32_t x) {
  auto it = FindWord(row, x >> 6);
  return it != row.end() && it->first == (x >> 6) &&
         ((it->second >> (x & 63)) & 1) != 0;
}

void RowAdd(BitRow* row, uint32_t x) {
  auto it = row->begin() + (FindWord(*row, x >> 6) - row->cbegin());
  if (it == row->end() || it->first != (x >> 6)) {
    it = row->insert(it, {x >> 6, 0});
  }
  it->second |= uint64_t{1} << (x & 63);
}

/// Greedy min-fill elimination over the residual pair graph. Each step
/// eliminates, among the remaining atoms with at most kMaxExactWidth
/// neighbours, the one whose elimination adds the fewest fill edges
/// (then lowest degree, then lowest id), records its neighbours as its
/// separator, and joins them pairwise. Only the eliminated atom's
/// neighbourhood is rescored: eliminating a simplicial atom (no fill)
/// costs each neighbour a known number of missing pairs, a fill edge
/// (x, y) removes one missing pair from every common neighbour of x and
/// y, and only the eliminated atom's neighbours change degree. An atom
/// above the cap is never scored until eliminations bring it down, so a
/// star stays linear. Returns false when atoms remain and none is within
/// the cap.
bool MinFillOrder(TractableStructure* st) {
  constexpr uint32_t kCap = kMaxExactWidth;
  const size_t n = st->forced.size();
  std::vector<BitRow> row(n);
  std::vector<uint64_t> alive((n + 63) / 64, 0);
  std::vector<uint32_t> deg(n, 0);  // live neighbours
  size_t remaining = 0;
  for (uint32_t a = 0; a < n; ++a) {
    if (st->forced[a] != -1) continue;
    alive[a >> 6] |= uint64_t{1} << (a & 63);
    ++remaining;
  }
  for (const TractableStructure::Edge& e : st->edges) {
    RowAdd(&row[e.u], e.v);
    RowAdd(&row[e.v], e.u);
    ++deg[e.u];
    ++deg[e.v];
  }
  // Calls f(x) for every live neighbour x of a, in ascending order.
  auto for_each_live = [&](uint32_t a, auto&& f) {
    for (const auto& [word, mask] : row[a]) {
      for (uint64_t bits = mask & alive[word]; bits != 0; bits &= bits - 1) {
        f(word * 64 + static_cast<uint32_t>(__builtin_ctzll(bits)));
      }
    }
  };
  // Pairs of a's live neighbours that are not adjacent: every pair minus
  // half the sum, over neighbours x, of |N(a) ∩ N(x)|.
  BitRow live_row;
  auto missing_pairs = [&](uint32_t a) {
    live_row.clear();
    for (const auto& [word, mask] : row[a]) {
      const uint64_t live = mask & alive[word];
      if (live != 0) live_row.emplace_back(word, live);
    }
    uint32_t twice_adjacent = 0;
    for (const auto& [xword, xmask] : live_row) {
      for (uint64_t bits = xmask; bits != 0; bits &= bits - 1) {
        const BitRow& nx =
            row[xword * 64 + static_cast<uint32_t>(__builtin_ctzll(bits))];
        for (const auto& [word, mask] : live_row) {
          auto it = FindWord(nx, word);
          if (it != nx.end() && it->first == word) {
            twice_adjacent +=
                static_cast<uint32_t>(__builtin_popcountll(mask & it->second));
          }
        }
      }
    }
    return static_cast<int32_t>(deg[a] * (deg[a] - 1) / 2 -
                                twice_adjacent / 2);
  };
  // Min-heap of (fill, degree, atom) packed into one key; an entry whose
  // key no longer matches its atom's current scores is stale.
  std::vector<int32_t> fill(n, 0);
  auto key = [&](uint32_t a) {
    return (static_cast<uint64_t>(fill[a]) << 40) |
           (static_cast<uint64_t>(deg[a]) << 32) | a;
  };
  std::vector<uint64_t> heap_storage;
  heap_storage.reserve(4 * n);
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> heap(
      std::greater<>(), std::move(heap_storage));
  auto rescore = [&](uint32_t a) {
    if (deg[a] > kCap) return;
    fill[a] = missing_pairs(a);
    heap.push(key(a));
  };
  for (uint32_t a = 0; a < n; ++a) {
    if (st->forced[a] == -1) rescore(a);
  }

  std::vector<uint32_t> pos(n, 0);
  std::vector<uint32_t> sep_atoms;
  sep_atoms.reserve(2 * st->edges.size());
  std::vector<uint32_t> nb;
  nb.reserve(kCap);
  std::vector<uint8_t> touched(n, 0);  // fill lowered by this elimination
  std::vector<uint32_t> touched_list;
  st->order.reserve(remaining);
  st->sep_off.reserve(remaining + 1);
  st->sep_off.assign(1, 0);
  while (!heap.empty()) {
    const uint64_t top = heap.top();
    heap.pop();
    const uint32_t a = static_cast<uint32_t>(top);
    if (((alive[a >> 6] >> (a & 63)) & 1) == 0 || top != key(a)) continue;
    nb.clear();
    for_each_live(a, [&](uint32_t x) { nb.push_back(x); });
    alive[a >> 6] &= ~(uint64_t{1} << (a & 63));
    pos[a] = static_cast<uint32_t>(st->order.size());
    st->order.push_back(a);
    sep_atoms.insert(sep_atoms.end(), nb.begin(), nb.end());
    st->sep_off.push_back(static_cast<uint32_t>(sep_atoms.size()));
    st->width = std::max(st->width, static_cast<int>(nb.size()));
    if (fill[a] == 0) {
      // `a` was simplicial: each neighbour u loses exactly the missing
      // pairs (a, w) with w outside a's neighbourhood — deg(u) - |nb| of
      // them — and no fill edge is added.
      for (uint32_t u : nb) {
        const uint32_t old_deg = deg[u]--;
        if (old_deg > kCap) {
          rescore(u);
        } else {
          fill[u] -= static_cast<int32_t>(old_deg - nb.size());
          heap.push(key(u));
        }
      }
      continue;
    }
    for (uint32_t u : nb) --deg[u];
    for (size_t i = 0; i < nb.size(); ++i) {
      for (size_t j = i + 1; j < nb.size(); ++j) {
        uint32_t x = nb[i], y = nb[j];
        if (RowHas(row[x], y)) continue;
        if (row[x].size() > row[y].size()) std::swap(x, y);
        // Every live common neighbour of x and y loses a missing pair.
        for (const auto& [word, mask] : row[x]) {
          auto it = FindWord(row[y], word);
          if (it == row[y].end() || it->first != word) continue;
          for (uint64_t bits = mask & it->second & alive[word]; bits != 0;
               bits &= bits - 1) {
            const uint32_t c =
                word * 64 + static_cast<uint32_t>(__builtin_ctzll(bits));
            if (deg[c] > kCap) continue;
            --fill[c];
            if (!touched[c]) touched_list.push_back(c);
            touched[c] = 1;
          }
        }
        RowAdd(&row[x], y);
        RowAdd(&row[y], x);
        ++deg[x];
        ++deg[y];
      }
    }
    for (uint32_t u : nb) {
      touched[u] = 0;
      rescore(u);
    }
    for (uint32_t c : touched_list) {
      if (touched[c]) heap.push(key(c));
      touched[c] = 0;
    }
    touched_list.clear();
  }
  if (st->order.size() != remaining) return false;

  st->sep.resize(sep_atoms.size());
  for (size_t i = 0; i < st->order.size(); ++i) {
    auto first = st->sep.begin() + st->sep_off[i];
    auto last = st->sep.begin() + st->sep_off[i + 1];
    std::transform(sep_atoms.begin() + st->sep_off[i],
                   sep_atoms.begin() + st->sep_off[i + 1], first,
                   [&](uint32_t x) { return pos[x]; });
    std::sort(first, last);
  }
  return true;
}

}  // namespace

const char* ExactFragmentName(ExactFragment fragment) {
  switch (fragment) {
    case ExactFragment::kNotTractable: return "not_tractable";
    case ExactFragment::kUnitOnly: return "unit_only";
    case ExactFragment::kBoundedWidth: return "bounded_width";
    case ExactFragment::kConditioned: return "conditioned";
  }
  return "not_tractable";
}

TractableStructure AnalyzeTractable(const Problem& problem) {
  TractableStructure st;
  const size_t n = problem.num_atoms;
  st.forced.assign(n, -1);
  st.unary.assign(2 * n, 0.0);

  // The problem's clauses hold no duplicate literals, and its tautologies
  // are `frozen`: constants that take no part below. A negative-weight
  // tautology is permanently violated; a positive or hard one never is.
  const size_t nc = problem.num_clauses();
  for (uint32_t c = 0; c < nc; ++c) {
    if (problem.frozen[c] && !problem.hard[c] && problem.weight[c] < 0) {
      st.constant_cost += -problem.weight[c];
    }
  }

  // Hard-unit propagation: a hard clause whose other literals are all
  // forced false forces its remaining literal true. Counter-based, over
  // occurrence lists of hard clauses only (soft clauses never force).
  std::vector<std::vector<uint32_t>> occ(n);
  std::vector<uint32_t> remaining(nc, 0);
  std::vector<uint8_t> sat(nc, 0);
  for (uint32_t c = 0; c < nc; ++c) {
    if (!problem.hard[c] || problem.frozen[c]) continue;
    remaining[c] = problem.clause_size(c);
    for (uint32_t i = 0; i < remaining[c]; ++i) {
      occ[LitAtom(problem.clause_lits(c)[i])].push_back(c);
    }
  }
  std::vector<AtomId> queue;
  bool contradiction = false;
  auto force = [&](AtomId a, int8_t value) {
    if (st.forced[a] == value) return;
    if (st.forced[a] != -1) {
      contradiction = true;
      return;
    }
    st.forced[a] = value;
    queue.push_back(a);
  };
  for (uint32_t c = 0; c < nc && !contradiction; ++c) {
    if (!problem.hard[c] || problem.frozen[c]) continue;
    const uint32_t len = problem.clause_size(c);
    if (len == 0) contradiction = true;  // empty hard clause
    if (len == 1) {
      Lit l = problem.clause_lits(c)[0];
      force(LitAtom(l), LitPositive(l) ? 1 : 0);
    }
  }
  while (!queue.empty() && !contradiction) {
    AtomId a = queue.back();
    queue.pop_back();
    for (uint32_t c : occ[a]) {
      if (sat[c] || contradiction) continue;
      const Lit* lits = problem.clause_lits(c);
      const uint32_t len = problem.clause_size(c);
      Lit mine = 0;
      for (uint32_t i = 0; i < len; ++i) {
        if (LitAtom(lits[i]) == a) mine = lits[i];
      }
      if ((st.forced[a] != 0) == LitPositive(mine)) {
        sat[c] = 1;
        continue;
      }
      if (--remaining[c] == 0) {
        contradiction = true;  // every hard world violates this clause
        break;
      }
      if (remaining[c] == 1) {
        for (uint32_t i = 0; i < len; ++i) {
          Lit l = lits[i];
          if (st.forced[LitAtom(l)] == -1) {
            force(LitAtom(l), LitPositive(l) ? 1 : 0);
            break;
          }
        }
      }
    }
  }
  if (contradiction) return st;  // kNotTractable

  // Residual build: partially evaluate every clause against the forced
  // atoms; clauses keeping one unforced atom become unary charges, two
  // become pairwise cells, more is outside the fragment.
  // Binary residuals are collected as (pair, clause, signs) and merged
  // into one table per pair, each summing its clauses in clause order.
  struct PairClause {
    uint64_t pair;
    uint32_t clause;
    uint8_t su, sv;
  };
  std::vector<PairClause> binary;
  binary.reserve(nc);
  Lit res[2];
  for (uint32_t c = 0; c < nc; ++c) {
    if (problem.frozen[c]) continue;
    bool sat_by_forced = false;
    uint32_t nres = 0;
    bool wide = false;
    for (uint32_t i = 0; i < problem.clause_size(c); ++i) {
      Lit l = problem.clause_lits(c)[i];
      int8_t f = st.forced[LitAtom(l)];
      if (f == -1) {
        if (nres < 2) res[nres] = l;
        if (++nres > 2) wide = true;
      } else if ((f != 0) == LitPositive(l)) {
        sat_by_forced = true;
      }
    }
    const bool positive = problem.positive[c] != 0;
    if (positive) {
      // Violated iff no literal is true.
      if (sat_by_forced) continue;
      if (nres == 0) {
        if (problem.hard[c]) {
          // Unsatisfiable hard clause propagation did not flag (cannot
          // happen by construction; belt-and-braces).
          st.fragment = ExactFragment::kNotTractable;
          return st;
        }
        st.constant_cost += problem.weight[c];  // permanently violated soft
        continue;
      }
    } else {
      // w < 0: violated iff some literal is true.
      if (sat_by_forced) {
        st.constant_cost += -problem.weight[c];
        continue;
      }
      if (nres == 0) continue;  // permanently false, never violated
    }
    if (wide) {
      st.fragment = ExactFragment::kNotTractable;
      return st;
    }
    if (nres == 1) {
      const AtomId a = LitAtom(res[0]);
      const int s = LitPositive(res[0]) ? 1 : 0;
      // Positive: violated when the atom takes the literal-falsifying
      // value. Negative: violated when the literal is true.
      if (positive) {
        st.unary[2 * a + (1 - s)] += problem.weight[c];
      } else {
        st.unary[2 * a + s] += -problem.weight[c];
      }
      continue;
    }
    // nres == 2.
    AtomId u = LitAtom(res[0]), v = LitAtom(res[1]);
    int su = LitPositive(res[0]) ? 1 : 0, sv = LitPositive(res[1]) ? 1 : 0;
    if (u > v) {
      std::swap(u, v);
      std::swap(su, sv);
    }
    binary.push_back(PairClause{(static_cast<uint64_t>(u) << 32) | v, c,
                                static_cast<uint8_t>(su),
                                static_cast<uint8_t>(sv)});
  }
  // Stable counting sort by v, then by u: linear, and clause order
  // survives within a pair.
  std::vector<PairClause> sorted(binary.size());
  std::vector<uint32_t> slot(n + 1);
  for (const int shift : {0, 32}) {
    auto atom = [shift](const PairClause& b) {
      return static_cast<uint32_t>(b.pair >> shift);
    };
    std::fill(slot.begin(), slot.end(), 0);
    for (const PairClause& b : binary) ++slot[atom(b) + 1];
    for (size_t a = 0; a < n; ++a) slot[a + 1] += slot[a];
    for (const PairClause& b : binary) sorted[slot[atom(b)]++] = b;
    binary.swap(sorted);
  }
  st.edges.reserve(binary.size());
  uint64_t last_pair = ~uint64_t{0};
  for (const PairClause& b : binary) {
    if (b.pair != last_pair) {
      last_pair = b.pair;
      TractableStructure::Edge e;
      e.u = static_cast<uint32_t>(b.pair >> 32);
      e.v = static_cast<uint32_t>(b.pair);
      st.edges.push_back(e);
    }
    TractableStructure::Edge& e = st.edges.back();
    const uint32_t c = b.clause;
    const int su = b.su, sv = b.sv;
    if (problem.hard[c]) {
      e.hard[2 * (1 - su) + (1 - sv)] += 1;
    } else if (problem.weight[c] >= 0) {
      e.cost[2 * (1 - su) + (1 - sv)] += problem.weight[c];
    } else {
      // Violated in the three cells where some literal is true.
      const double w = -problem.weight[c];
      e.cost[2 * su + sv] += w;
      e.cost[2 * su + (1 - sv)] += w;
      e.cost[2 * (1 - su) + sv] += w;
    }
  }

  if (!MinFillOrder(&st)) return st;  // kNotTractable: width above the cap

  bool conditioned = false;
  for (int8_t f : st.forced) {
    if (f != -1) conditioned = true;
  }
  st.fragment = conditioned         ? ExactFragment::kConditioned
                : !st.edges.empty() ? ExactFragment::kBoundedWidth
                                    : ExactFragment::kUnitOnly;
  return st;
}

}  // namespace tuffy
