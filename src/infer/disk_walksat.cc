#include "infer/disk_walksat.h"

#include <cmath>
#include <cstring>

#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

DiskWalkSat::DiskWalkSat(size_t num_atoms, const DiskWalkSatOptions& options)
    : num_atoms_(num_atoms), options_(options) {
  disk_ = std::make_unique<DiskManager>();
  disk_->set_simulated_latency_us(options.io_latency_us);
  pool_ = std::make_unique<BufferPool>(options.buffer_frames, disk_.get());
  file_ = std::make_unique<HeapFile>(pool_.get(), sizeof(ClauseRecord));
  truth_.assign(num_atoms, 0);
}

Result<std::unique_ptr<DiskWalkSat>> DiskWalkSat::Create(
    const Problem& problem, const DiskWalkSatOptions& options) {
  std::unique_ptr<DiskWalkSat> ws(
      new DiskWalkSat(problem.num_atoms, options));
  ws->overflow_.num_atoms = problem.num_atoms;
  for (uint32_t c = 0; c < problem.num_clauses(); ++c) {
    const Lit* lits = problem.clause_lits(c);
    const uint32_t len = problem.clause_size(c);
    const double w = problem.weight[c];
    const bool hard = problem.hard[c] != 0;
    double abs_eff = std::fabs(hard ? options.hard_weight : w);
    if (len > kMaxLitsPerClause) {
      ws->overflow_.AddClause(lits, len, w, hard);
      ws->overflow_abs_w_.push_back(abs_eff);
      continue;
    }
    ClauseRecord rec;
    std::memset(&rec, 0, sizeof(rec));
    rec.weight = w;
    rec.abs_eff_weight = abs_eff;
    rec.hard = hard ? 1 : 0;
    rec.num_lits = static_cast<uint8_t>(len);
    for (uint32_t i = 0; i < len; ++i) rec.lits[i] = lits[i];
    TUFFY_ASSIGN_OR_RETURN(RecordId rid,
                           ws->file_->Append(reinterpret_cast<char*>(&rec)));
    (void)rid;
  }
  TUFFY_RETURN_IF_ERROR(ws->pool_->FlushAll());
  return ws;
}

bool DiskWalkSat::ClauseTrue(const ClauseRecord& rec) const {
  for (int i = 0; i < rec.num_lits; ++i) {
    Lit l = rec.lits[i];
    if ((truth_[LitAtom(l)] != 0) == LitPositive(l)) return true;
  }
  return false;
}

Result<bool> DiskWalkSat::ScanForViolated(Rng* rng, double* total_cost,
                                          PickedClause* out) {
  *total_cost = 0.0;
  uint64_t violated_seen = 0;
  Status st = file_->Scan([&](RecordId, const char* bytes) {
    // Heap-page slots sit at record-size offsets and need not be aligned
    // for the record's doubles: copy the record out instead of casting.
    ClauseRecord rec;
    std::memcpy(&rec, bytes, sizeof(rec));
    if (IsViolated(rec)) {
      *total_cost += rec.abs_eff_weight;
      ++violated_seen;
      // Reservoir sampling keeps each violated clause with equal
      // probability in a single pass.
      if (rng->Uniform(violated_seen) == 0) {
        out->lits.assign(rec.lits, rec.lits + rec.num_lits);
        out->weight = rec.weight;
        out->hard = rec.hard != 0;
      }
    }
    return Status::OK();
  });
  TUFFY_RETURN_IF_ERROR(st);
  // Memory-side overflow clauses (no I/O charged).
  for (uint32_t oi = 0; oi < overflow_.num_clauses(); ++oi) {
    const bool is_true = overflow_.Satisfied(oi, truth_);
    if (overflow_.positive[oi] ? is_true : !is_true) continue;
    *total_cost += overflow_abs_w_[oi];
    ++violated_seen;
    if (rng->Uniform(violated_seen) == 0) {
      const Lit* lits = overflow_.clause_lits(oi);
      out->lits.assign(lits, lits + overflow_.clause_size(oi));
      out->weight = overflow_.weight[oi];
      out->hard = overflow_.hard[oi] != 0;
    }
  }
  return violated_seen > 0;
}

Status DiskWalkSat::ComputeDeltas(const std::vector<AtomId>& candidates,
                                  std::vector<double>* deltas) {
  deltas->assign(candidates.size(), 0.0);
  auto account = [&](const Lit* lits, int num_lits, double weight,
                     bool hard, double abs_w) {
    for (size_t k = 0; k < candidates.size(); ++k) {
      AtomId a = candidates[k];
      bool touches = false;
      for (int i = 0; i < num_lits; ++i) {
        if (LitAtom(lits[i]) == a) touches = true;
      }
      if (!touches) continue;
      auto violated = [&]() {
        bool is_true = false;
        for (int i = 0; i < num_lits; ++i) {
          if ((truth_[LitAtom(lits[i])] != 0) == LitPositive(lits[i])) {
            is_true = true;
            break;
          }
        }
        return (hard || weight >= 0) ? !is_true : is_true;
      };
      bool viol_before = violated();
      truth_[a] ^= 1;
      bool viol_after = violated();
      truth_[a] ^= 1;
      if (viol_before != viol_after) {
        (*deltas)[k] += viol_after ? abs_w : -abs_w;
      }
    }
  };
  TUFFY_RETURN_IF_ERROR(file_->Scan([&](RecordId, const char* bytes) {
    ClauseRecord rec;
    std::memcpy(&rec, bytes, sizeof(rec));  // unaligned slot; see above
    account(rec.lits, rec.num_lits, rec.weight, rec.hard != 0,
            rec.abs_eff_weight);
    return Status::OK();
  }));
  for (uint32_t oi = 0; oi < overflow_.num_clauses(); ++oi) {
    account(overflow_.clause_lits(oi),
            static_cast<int>(overflow_.clause_size(oi)), overflow_.weight[oi],
            overflow_.hard[oi] != 0, overflow_abs_w_[oi]);
  }
  return Status::OK();
}

WalkSatResult DiskWalkSat::Run(Rng* rng) {
  Timer timer;
  WalkSatResult result;
  if (options_.init_random) {
    for (size_t i = 0; i < truth_.size(); ++i) {
      truth_[i] = rng->Bernoulli(0.5) ? 1 : 0;
    }
  } else {
    std::fill(truth_.begin(), truth_.end(), 0);
  }

  for (uint64_t flip = 0; flip < options_.max_flips; ++flip) {
    if (timer.ElapsedSeconds() > options_.timeout_seconds) break;
    double cost = 0.0;
    PickedClause picked;
    auto has = ScanForViolated(rng, &cost, &picked);
    if (!has.ok() || !has.value()) {
      if (cost < result.best_cost) {
        result.best_cost = cost;
        result.best_truth = truth_;
      }
      break;
    }
    if (cost < result.best_cost) {
      result.best_cost = cost;
      result.best_truth = truth_;
    }
    AtomId chosen;
    if (rng->NextDouble() <= options_.p_random) {
      chosen = LitAtom(picked.lits[rng->Uniform(picked.lits.size())]);
    } else {
      std::vector<AtomId> candidates;
      candidates.reserve(picked.lits.size());
      for (Lit l : picked.lits) {
        candidates.push_back(LitAtom(l));
      }
      std::vector<double> deltas;
      Status st = ComputeDeltas(candidates, &deltas);
      chosen = candidates[0];
      if (st.ok()) {
        double best = std::numeric_limits<double>::infinity();
        for (size_t k = 0; k < candidates.size(); ++k) {
          if (deltas[k] < best) {
            best = deltas[k];
            chosen = candidates[k];
          }
        }
      }
    }
    truth_[chosen] ^= 1;
    ++result.flips;
    if (options_.trace_every_flips > 0 &&
        result.flips % options_.trace_every_flips == 0) {
      result.trace.push_back(
          TracePoint{timer.ElapsedSeconds(), result.flips, result.best_cost});
    }
  }
  if (result.best_truth.empty()) result.best_truth = truth_;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tuffy
