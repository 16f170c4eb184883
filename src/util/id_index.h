#ifndef TUFFY_UTIL_ID_INDEX_H_
#define TUFFY_UTIL_ID_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace tuffy {

/// Open-addressing id index over keys its owner stores: grounding's two
/// duplicate merges (AtomStore and GroundClauseStore), each evidence
/// relation (EvidenceDb, whose ids are row numbers) and the symbol table
/// (SymbolTable, whose ids are ConstantIds). The owner keeps its
/// keys in its own storage, indexed by id; the index holds only slot ->
/// id + 1 (0 = empty) and each id's cached key hash. So no second copy of
/// a key is kept, a probe costs one flat-array read plus one in-place key
/// compare, and growth and removal never touch the keys. Ids are dense
/// and follow insertion order (up to SwapRemove), never slot layout.
///
/// A key's home slot is SplitMix64(hash) & mask: LitVectorHash and
/// GroundAtomHash end each step with `h * K ^ x`, so their low bits
/// depend only on the inputs' low bits, and masking them directly
/// clusters (IE's 106,269 clauses cost 1,239 probes per insert that way,
/// 1.7 mixed).
class IdIndex {
 public:
  static constexpr uint32_t kAbsent = static_cast<uint32_t>(-1);

  /// Number of ids handed out; the next new key gets id size().
  size_t size() const { return hashes_.size(); }

  /// Returns the id whose key has hash `hash` and satisfies `eq(id)`, or
  /// kAbsent.
  template <typename Eq>
  uint32_t Find(size_t hash, const Eq& eq) const {
    if (slots_.empty()) return kAbsent;
    return slots_[Probe(hash, eq)] - 1;  // an empty slot yields kAbsent
  }

  /// Returns the matching id as Find does; if there is none, records
  /// `hash` under the new id size(), sets `*added`, and returns it. The
  /// caller then appends that id's key to its own storage.
  template <typename Eq>
  uint32_t FindOrAdd(size_t hash, const Eq& eq, bool* added) {
    // Keep the load factor at most 1/2.
    if ((hashes_.size() + 1) * 2 > slots_.size()) Grow();
    const size_t slot = Probe(hash, eq);
    *added = slots_[slot] == 0;
    if (!*added) return slots_[slot] - 1;
    const uint32_t id = static_cast<uint32_t>(hashes_.size());
    slots_[slot] = id + 1;
    hashes_.push_back(hash);
    return id;
  }

  /// Drops `id` (which must be present) and renumbers the last id to
  /// `id`, the way IdTable::SwapRemoveRow moves the last row into the
  /// hole, so an owner that swap-removes its key storage in step keeps
  /// ids equal to positions. Backward-shift deletion keeps every probe
  /// run gap-free without tombstones; it reads only cached hashes, never
  /// the owner's keys.
  void SwapRemove(uint32_t id);

  /// Mean slots read by a lookup of a present key (1 = every key sits in
  /// its home slot). A diagnostic of the slot rule; nothing reads it on
  /// the grounding path.
  double MeanProbeLength() const;

  /// Bytes held: the slot array and the cached hashes.
  size_t EstimateBytes() const {
    return slots_.capacity() * sizeof(uint32_t) +
           hashes_.capacity() * sizeof(size_t);
  }

 private:
  /// The slot holding the matching id, or the empty slot ending the run.
  template <typename Eq>
  size_t Probe(size_t hash, const Eq& eq) const {
    size_t slot = HomeSlot(hash);
    while (slots_[slot] != 0) {
      const uint32_t id = slots_[slot] - 1;
      if (hashes_[id] == hash && eq(id)) return slot;
      slot = (slot + 1) & mask_;
    }
    return slot;
  }
  /// The slot holding `id`, which must be present.
  size_t SlotOf(uint32_t id) const;
  size_t HomeSlot(size_t hash) const { return SplitMix64(hash) & mask_; }
  void Grow();

  std::vector<uint32_t> slots_;
  /// Per id: its key's hash, so growth, removal and collision rejection
  /// never touch the owner's keys.
  std::vector<size_t> hashes_;
  size_t mask_ = 0;
};

}  // namespace tuffy

#endif  // TUFFY_UTIL_ID_INDEX_H_
