// Containers that keep their storage, for host structures whose size hovers
// around a steady level while their contents churn (DESIGN.md §7, "Host
// memory per IO").
//
//   * FlatQueue: a FIFO over one vector. Popping advances a head index, and
//     the vector is reset (capacity kept) once it drains, so a queue that
//     fills and empties stops allocating. std::deque allocates and frees a
//     chunk every few hundred bytes as it slides.
//   * insert_reusing / erase_keeping: node-based maps (std::map,
//     std::unordered_map) keep their erased nodes as C++17 node handles and
//     refill them on the next insert.
//   * reserve_reused: a vector reused for lists of varying length grows
//     with headroom, so it does not reallocate for each new longest list.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace bio::sim {

template <typename T>
class FlatQueue {
 public:
  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }
  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

  const T& front() const noexcept { return items_[head_]; }
  /// The i-th queued item, front first.
  const T& operator[](std::size_t i) const noexcept {
    return items_[head_ + i];
  }
  T& back() noexcept { return items_.back(); }

  void push_back(T v) { items_.push_back(std::move(v)); }

  T pop_front() {
    T v = std::move(items_[head_]);
    if (++head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      // A queue that never drains: slide the live tail down so the vector
      // stays within twice the live size.
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }

  auto begin() noexcept {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() noexcept { return items_.end(); }
  auto begin() const noexcept {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const noexcept { return items_.end(); }

 private:
  static constexpr std::size_t kCompactAt = 64;

  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// Makes room for `n` items in a vector that is reused for lists of
/// varying length: when it must grow, it grows to half again `n`.
template <typename V>
void reserve_reused(V& v, std::size_t n) {
  if (v.capacity() < n) v.reserve(n + n / 2);
}

/// Spare nodes of a node-based map, kept by erase_keeping.
template <typename Map>
using SpareNodes = std::vector<typename Map::node_type>;

/// Inserts (key, value), which must be absent, into `map` through a spare
/// node when one is left.
template <typename Map, typename K, typename V>
typename Map::iterator insert_reusing(Map& map, SpareNodes<Map>& spare,
                                      K&& key, V&& value) {
  if (spare.empty())
    return map.emplace(std::forward<K>(key), std::forward<V>(value)).first;
  typename Map::node_type node = std::move(spare.back());
  spare.pop_back();
  node.key() = std::forward<K>(key);
  node.mapped() = std::forward<V>(value);
  return map.insert(std::move(node)).position;
}

/// Erases `it` from `map`, keeping its node for insert_reusing.
template <typename Map>
void erase_keeping(Map& map, SpareNodes<Map>& spare,
                   typename Map::const_iterator it) {
  spare.push_back(map.extract(it));
}

}  // namespace bio::sim
