#include "infer/exact/exact_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/metrics.h"

namespace tuffy {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double LogSumExp2(double a, double b) {
  const double m = a > b ? a : b;
  if (m == kNegInf) return kNegInf;
  return m + std::log(std::exp(a - m) + std::exp(b - m));
}

/// P(true) from log-beliefs (b0, b1), computed stably.
double MarginalFromLogBeliefs(double b0, double b1) {
  if (b1 == kNegInf) return 0.0;
  if (b0 == kNegInf) return 1.0;
  return 1.0 / (1.0 + std::exp(b0 - b1));
}

/// The index into a factor over `nbits` variables of the cell that
/// clique assignment `idx` selects; bits[j] is variable j's bit in idx.
uint32_t Gather(uint32_t idx, const uint8_t* bits, size_t nbits) {
  uint32_t out = 0;
  for (size_t j = 0; j < nbits; ++j) out |= ((idx >> bits[j]) & 1u) << j;
  return out;
}

/// out[s] = log Σ exp(t[idx]) over the clique cells idx < cells that
/// gather to s.
void ReduceLogSumExp(const double* t, uint32_t cells, const uint8_t* bits,
                     size_t nbits, double* out) {
  const size_t m = size_t{1} << nbits;
  std::vector<double> mx(m, kNegInf), sum(m, 0.0);
  for (uint32_t idx = 0; idx < cells; ++idx) {
    double& x = mx[Gather(idx, bits, nbits)];
    if (t[idx] > x) x = t[idx];
  }
  for (uint32_t idx = 0; idx < cells; ++idx) {
    const uint32_t g = Gather(idx, bits, nbits);
    if (mx[g] != kNegInf) sum[g] += std::exp(t[idx] - mx[g]);
  }
  for (size_t g = 0; g < m; ++g) {
    out[g] = mx[g] == kNegInf ? kNegInf : mx[g] + std::log(sum[g]);
  }
}

/// Bucket elimination along the structure's order. Bucket i holds atom
/// order[i] (clique bit 0) and its separator (bits 1..w, ascending
/// position); its factors are the atom's unary table, its pairwise
/// tables to later atoms, and the messages of its children — the
/// buckets whose first separator entry is i.
class Buckets {
 public:
  Buckets(const TractableStructure& st, double hard_weight)
      : st_(st),
        hard_weight_(hard_weight),
        k_(static_cast<uint32_t>(st.order.size())) {
    std::vector<uint32_t> pos(st.forced.size(), 0);
    for (uint32_t i = 0; i < k_; ++i) pos[st.order[i]] = i;
    msg_off_.assign(k_ + 1, 0);
    child_off_.assign(k_ + 1, 0);
    edge_off_.assign(k_ + 1, 0);
    for (uint32_t i = 0; i < k_; ++i) {
      msg_off_[i + 1] = msg_off_[i] + (size_t{1} << sep_size(i));
      if (sep_size(i) > 0) ++child_off_[sep(i)[0] + 1];
    }
    for (const TractableStructure::Edge& e : st.edges) {
      ++edge_off_[std::min(pos[e.u], pos[e.v]) + 1];
    }
    for (uint32_t i = 0; i < k_; ++i) {
      child_off_[i + 1] += child_off_[i];
      edge_off_[i + 1] += edge_off_[i];
    }
    // Children (ascending) with their separators' bits in the parent's
    // clique; pairwise tables with the later atom's bit.
    children_.resize(child_off_[k_]);
    sep_bits_.resize(st.sep.size());
    std::vector<uint32_t> next(child_off_.begin(), child_off_.end() - 1);
    for (uint32_t c = 0; c < k_; ++c) {
      if (sep_size(c) == 0) continue;
      const uint32_t p = sep(c)[0];
      children_[next[p]++] = c;
      for (uint32_t j = 0, b = 0; j < sep_size(c); ++j) {
        if (sep(c)[j] == p) continue;  // bit 0
        while (sep(p)[b] != sep(c)[j]) ++b;
        sep_bits_[st.sep_off[c] + j] = static_cast<uint8_t>(b + 1);
      }
    }
    edges_.resize(edge_off_[k_]);
    next.assign(edge_off_.begin(), edge_off_.end() - 1);
    for (uint32_t ei = 0; ei < st.edges.size(); ++ei) {
      const TractableStructure::Edge& e = st.edges[ei];
      const uint32_t i = std::min(pos[e.u], pos[e.v]);
      const uint32_t later = std::max(pos[e.u], pos[e.v]);
      const uint32_t b = static_cast<uint32_t>(
          std::find(sep(i), sep(i) + sep_size(i), later) - sep(i));
      edges_[next[i]++] = {ei, static_cast<uint8_t>(b + 1),
                           st.order[i] == e.u};
    }
  }

  /// MAP: min-sum up the buckets (hard cells charge hard_weight per
  /// count), then the argmin readback down them; ties prefer false.
  void Map(std::vector<uint8_t>* truth) {
    std::vector<double> msg(msg_off_[k_]);
    std::vector<uint8_t> arg(msg_off_[k_]);
    std::vector<double> t;
    for (uint32_t i = 0; i < k_; ++i) {
      Potential(i, /*log_prob=*/false, &t);
      AddChildren(i, msg, &t);
      for (size_t s = 0; s < t.size() / 2; ++s) {
        const bool one = t[2 * s + 1] < t[2 * s];
        arg[msg_off_[i] + s] = one;
        msg[msg_off_[i] + s] = t[2 * s + one];
      }
    }
    for (uint32_t i = k_; i-- > 0;) {
      uint32_t s = 0;
      for (uint32_t j = 0; j < sep_size(i); ++j) {
        s |= static_cast<uint32_t>((*truth)[st_.order[sep(i)[j]]]) << j;
      }
      (*truth)[st_.order[i]] = arg[msg_off_[i] + s];
    }
  }

  /// Sum-product up the buckets; returns ln Z of the residual (without
  /// the constant cost), -inf when no world avoids every hard cell. Keeps
  /// the upward messages for Marginals.
  double LogZ() {
    up_.assign(msg_off_[k_], 0.0);
    std::vector<double> t;
    double log_z = 0.0;
    for (uint32_t i = 0; i < k_; ++i) {
      Potential(i, /*log_prob=*/true, &t);
      AddChildren(i, up_, &t);
      for (size_t s = 0; s < t.size() / 2; ++s) {
        up_[msg_off_[i] + s] = LogSumExp2(t[2 * s], t[2 * s + 1]);
      }
      if (sep_size(i) == 0) log_z += up_[msg_off_[i]];
    }
    return log_z;
  }

  /// Sum-product down the buckets after LogZ (which must be finite):
  /// each bucket's belief is its potential plus the message from its
  /// parent and every child's upward message, and the message to a child
  /// excludes that child's own message through prefix/suffix sums of the
  /// others — recomputed, never divided (hard cells are -inf).
  void Marginals(std::vector<double>* marginals) {
    std::vector<double> down(msg_off_[k_], 0.0);
    std::vector<double> t, pre, suf, excl;
    const uint8_t atom_bit = 0;
    for (uint32_t i = k_; i-- > 0;) {
      Potential(i, /*log_prob=*/true, &t);
      for (uint32_t idx = 0; idx < t.size(); ++idx) {
        t[idx] += down[msg_off_[i] + (idx >> 1)];
      }
      const size_t nc = child_off_[i + 1] - child_off_[i];
      const uint32_t cells = static_cast<uint32_t>(t.size());
      pre.assign((nc + 1) * cells, 0.0);
      std::copy(t.begin(), t.end(), pre.begin());
      for (size_t c = 0; c < nc; ++c) {
        for (uint32_t idx = 0; idx < cells; ++idx) {
          pre[(c + 1) * cells + idx] =
              pre[c * cells + idx] + ChildMessage(i, c, idx, up_);
        }
      }
      double b[2];  // the belief (all children) summed to the atom's value
      ReduceLogSumExp(pre.data() + nc * cells, cells, &atom_bit, 1, b);
      (*marginals)[st_.order[i]] = MarginalFromLogBeliefs(b[0], b[1]);
      suf.assign(cells, 0.0);
      excl.resize(cells);
      for (size_t c = nc; c-- > 0;) {
        for (uint32_t idx = 0; idx < cells; ++idx) {
          excl[idx] = pre[c * cells + idx] + suf[idx];
        }
        const uint32_t child = children_[child_off_[i] + c];
        ReduceLogSumExp(excl.data(), cells, &sep_bits_[st_.sep_off[child]],
                        sep_size(child), &down[msg_off_[child]]);
        for (uint32_t idx = 0; idx < cells; ++idx) {
          suf[idx] += ChildMessage(i, c, idx, up_);
        }
      }
    }
  }

 private:
  uint32_t sep_size(uint32_t i) const {
    return st_.sep_off[i + 1] - st_.sep_off[i];
  }
  const uint32_t* sep(uint32_t i) const {
    return st_.sep.data() + st_.sep_off[i];
  }

  /// Bucket i's own factors over its clique: the atom's unary table and
  /// its pairwise tables, as costs (hard cells at hard_weight per count)
  /// or as log-probabilities (hard cells -inf).
  void Potential(uint32_t i, bool log_prob, std::vector<double>* t) const {
    const uint32_t a = st_.order[i];
    t->assign(size_t{2} << sep_size(i), 0.0);
    for (uint32_t idx = 0; idx < t->size(); ++idx) {
      const double c = st_.unary[2 * a + (idx & 1)];
      (*t)[idx] = log_prob ? -c : c;
    }
    for (size_t k = edge_off_[i]; k < edge_off_[i + 1]; ++k) {
      const BucketEdge& be = edges_[k];
      const TractableStructure::Edge& e = st_.edges[be.edge];
      for (uint32_t idx = 0; idx < t->size(); ++idx) {
        const uint32_t mine = idx & 1, other = (idx >> be.other_bit) & 1;
        const int cell = be.atom_is_u ? 2 * mine + other : 2 * other + mine;
        if (log_prob) {
          (*t)[idx] = e.hard[cell] ? kNegInf : (*t)[idx] - e.cost[cell];
        } else {
          (*t)[idx] += e.cost[cell] + hard_weight_ * e.hard[cell];
        }
      }
    }
  }

  double ChildMessage(uint32_t i, size_t c, uint32_t idx,
                      const std::vector<double>& msg) const {
    const uint32_t child = children_[child_off_[i] + c];
    return msg[msg_off_[child] + Gather(idx, &sep_bits_[st_.sep_off[child]],
                                        sep_size(child))];
  }

  void AddChildren(uint32_t i, const std::vector<double>& msg,
                   std::vector<double>* t) const {
    for (size_t c = 0; c < child_off_[i + 1] - child_off_[i]; ++c) {
      for (uint32_t idx = 0; idx < t->size(); ++idx) {
        (*t)[idx] += ChildMessage(i, c, idx, msg);
      }
    }
  }

  struct BucketEdge {
    uint32_t edge;
    uint8_t other_bit;
    bool atom_is_u;
  };

  const TractableStructure& st_;
  const double hard_weight_;
  const uint32_t k_;
  std::vector<size_t> msg_off_;  // bucket i's message: 2^|sep(i)| cells
  std::vector<uint32_t> child_off_, children_;
  // Per separator entry of a child bucket: its bit in the parent's clique
  // (laid out like st.sep).
  std::vector<uint8_t> sep_bits_;
  std::vector<uint32_t> edge_off_;
  std::vector<BucketEdge> edges_;
  std::vector<double> up_;  // sum-product upward messages
};

}  // namespace

ExactSolveResult TrySolveExact(const Problem& problem, double hard_weight,
                               bool want_marginals) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* components_ctr = reg.GetCounter("search.exact.components");
  static Counter* atoms_ctr = reg.GetCounter("search.exact.atoms");
  static Counter* rejected_ctr = reg.GetCounter("search.exact.rejected");
  static Histogram* seconds_hist = reg.GetHistogram("search.exact.seconds");
  const auto t0 = std::chrono::steady_clock::now();
  auto stamp = [&] {
    seconds_hist->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  };

  ExactSolveResult out;
  TractableStructure st = AnalyzeTractable(problem);
  out.fragment = st.fragment;
  if (!st.tractable()) {
    rejected_ctr->Add();
    stamp();
    return out;
  }

  const size_t n = problem.num_atoms;
  Buckets buckets(st, hard_weight);
  out.truth.assign(n, 0);
  for (size_t a = 0; a < n; ++a) {
    if (st.forced[a] != -1) out.truth[a] = static_cast<uint8_t>(st.forced[a]);
  }
  buckets.Map(&out.truth);
  out.map_cost = problem.EvalCost(out.truth, hard_weight);

  // Conditioning exactness guard: every world disagreeing with a
  // hard-unit-propagated atom violates at least one hard clause, so it
  // costs >= hard_weight. If the conditioned optimum beats that bound it
  // is globally optimal; otherwise nothing is provable — hand the
  // component back to the sampler.
  if (st.fragment == ExactFragment::kConditioned &&
      out.map_cost >= hard_weight) {
    rejected_ctr->Add();
    stamp();
    return ExactSolveResult{false, st.fragment};
  }

  if (want_marginals) {
    const double log_z = buckets.LogZ();
    if (log_z == kNegInf) {
      // Matches brute force's "no world satisfies the hard clauses":
      // there is no distribution to report. Let the sampler cope.
      rejected_ctr->Add();
      stamp();
      return ExactSolveResult{false, st.fragment};
    }
    out.log_z = log_z - st.constant_cost;
    out.log_z_valid = true;
    out.marginals.assign(n, 0.0);
    for (size_t a = 0; a < n; ++a) {
      if (st.forced[a] != -1) out.marginals[a] = st.forced[a] ? 1.0 : 0.0;
    }
    buckets.Marginals(&out.marginals);
  }

  out.solved = true;
  components_ctr->Add();
  atoms_ctr->Add(n);
  stamp();
  return out;
}

}  // namespace tuffy
