// Dense per-LBA table: a page-mapped FTL's flat logical-to-physical array,
// allocated in 4096-entry leaves on first touch.
//
// The directory holds one pointer per 4096 LBAs of span and grows to
// exactly the highest leaf touched. A leaf, once allocated, is never moved
// or freed, so a pointer to an entry stays valid for the table's lifetime
// (the FTL's window records rely on that). Lookups are two indexed loads;
// for_each() visits entries in ascending LBA order.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "flash/types.h"

namespace bio::flash {

template <typename T>
class LbaTable {
 public:
  static constexpr unsigned kLeafShift = 12;
  static constexpr std::size_t kLeafEntries = std::size_t{1} << kLeafShift;

  /// The entry for `lba`, allocating its leaf (value-initialized) on first
  /// touch.
  T& operator[](Lba lba) {
    const std::size_t leaf = leaf_of(lba);
    if (leaf >= leaves_.size()) {
      leaves_.reserve(leaf + 1);  // exact: no geometric slack
      leaves_.resize(leaf + 1);
    }
    if (leaves_[leaf] == nullptr) leaves_[leaf] = std::make_unique<Leaf>();
    return (*leaves_[leaf])[entry_of(lba)];
  }

  /// The entry for `lba`, or nullptr if its leaf was never touched.
  const T* find(Lba lba) const noexcept {
    const std::size_t leaf = leaf_of(lba);
    if (leaf >= leaves_.size() || leaves_[leaf] == nullptr) return nullptr;
    return &(*leaves_[leaf])[entry_of(lba)];
  }

  /// Calls fn(lba, entry) for every entry of every allocated leaf, in
  /// ascending LBA order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t leaf = 0; leaf < leaves_.size(); ++leaf) {
      if (leaves_[leaf] == nullptr) continue;
      const Lba base = static_cast<Lba>(leaf) << kLeafShift;
      for (std::size_t i = 0; i < kLeafEntries; ++i)
        fn(base + i, (*leaves_[leaf])[i]);
    }
  }

 private:
  using Leaf = std::array<T, kLeafEntries>;

  static std::size_t leaf_of(Lba lba) noexcept {
    return static_cast<std::size_t>(lba >> kLeafShift);
  }
  static std::size_t entry_of(Lba lba) noexcept {
    return static_cast<std::size_t>(lba & (kLeafEntries - 1));
  }

  std::vector<std::unique_ptr<Leaf>> leaves_;
};

}  // namespace bio::flash
