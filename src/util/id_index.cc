#include "util/id_index.h"

namespace tuffy {

double IdIndex::MeanProbeLength() const {
  if (hashes_.empty()) return 0.0;
  size_t probes = 0;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot] == 0) continue;
    const size_t home = HomeSlot(hashes_[slots_[slot] - 1]);
    probes += ((slot - home) & mask_) + 1;
  }
  return static_cast<double>(probes) / static_cast<double>(hashes_.size());
}

size_t IdIndex::SlotOf(uint32_t id) const {
  size_t slot = HomeSlot(hashes_[id]);
  while (slots_[slot] != id + 1) slot = (slot + 1) & mask_;
  return slot;
}

void IdIndex::SwapRemove(uint32_t id) {
  // Free id's slot, then pull each later entry of the run back into the
  // hole unless that would move it before its home slot.
  size_t hole = SlotOf(id);
  for (size_t next = (hole + 1) & mask_; slots_[next] != 0;
       next = (next + 1) & mask_) {
    const size_t home = HomeSlot(hashes_[slots_[next] - 1]);
    if (((next - home) & mask_) >= ((next - hole) & mask_)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = 0;
  const uint32_t last = static_cast<uint32_t>(hashes_.size() - 1);
  if (id != last) {
    slots_[SlotOf(last)] = id + 1;
    hashes_[id] = hashes_[last];
  }
  hashes_.pop_back();
}

void IdIndex::Grow() {
  const size_t cap = slots_.empty() ? 1024 : slots_.size() * 2;
  slots_.assign(cap, 0);
  mask_ = cap - 1;
  for (size_t id = 0; id < hashes_.size(); ++id) {
    size_t slot = HomeSlot(hashes_[id]);
    while (slots_[slot] != 0) slot = (slot + 1) & mask_;
    slots_[slot] = static_cast<uint32_t>(id) + 1;
  }
}

}  // namespace tuffy
