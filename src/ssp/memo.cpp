#include "megate/ssp/memo.h"

namespace megate::ssp {

void PairMemoCache::resize(std::size_t n) {
  if (slots_.size() < n) slots_.resize(n);
}

const std::vector<std::int32_t>* PairMemoCache::lookup(
    std::size_t slot, const PairSolveKey& key) const {
  const Slot& s = slots_[slot];
  if (s.epoch != epoch_ || !(s.key == key)) return nullptr;
  return &s.assignment;
}

std::vector<std::int32_t>& PairMemoCache::refill(std::size_t slot) {
  Slot& s = slots_[slot];
  s.epoch = 0;
  s.assignment.clear();
  return s.assignment;
}

void PairMemoCache::commit(std::size_t slot, const PairSolveKey& key) {
  Slot& s = slots_[slot];
  s.epoch = epoch_;
  s.key = key;
  committed_ = true;
}

void PairMemoCache::invalidate_all() noexcept {
  ++epoch_;
  committed_ = false;
}

}  // namespace megate::ssp
