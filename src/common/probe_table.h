// The open-addressing index that the segment table and eBPF hash maps keep
// over their slots: power-of-two cells probed linearly, each holding slot + 1
// or 0 when empty. Owners keep the keys, hash them, and grow at their load.

#ifndef HYPERION_SRC_COMMON_PROBE_TABLE_H_
#define HYPERION_SRC_COMMON_PROBE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hyperion {

class ProbeTable {
 public:
  explicit ProbeTable(size_t cells = 0) : cells_(cells, 0) {}

  size_t cells() const { return cells_.size(); }
  uint32_t& operator[](size_t cell) { return cells_[cell]; }
  uint32_t operator[](size_t cell) const { return cells_[cell]; }

  // The cell holding the slot `is_key` accepts, probing from `hash`'s home
  // cell, or the empty cell where that slot would go.
  template <typename IsKey>
  size_t Find(uint64_t hash, IsKey is_key) const {
    const size_t mask = cells_.size() - 1;
    size_t cell = hash & mask;
    while (cells_[cell] != 0 && !is_key(cells_[cell] - 1)) {
      cell = (cell + 1) & mask;
    }
    return cell;
  }

  // Doubles the cells and places each slot again by `hash_of(slot)`.
  template <typename HashOf>
  void Grow(HashOf hash_of) {
    const std::vector<uint32_t> old = std::move(cells_);
    cells_.assign(old.size() * 2, 0);
    for (const uint32_t cell : old) {
      if (cell != 0) {
        cells_[Find(hash_of(cell - 1), [](uint32_t) { return false; })] = cell;
      }
    }
  }

  // Empties `hole` by backward shift, which keeps every probe run gap-free:
  // each later member of the run whose home cell is not cyclically in
  // (hole, next] would be unreachable past the hole, so it moves into it.
  template <typename HashOf>
  void Erase(size_t hole, HashOf hash_of) {
    const size_t mask = cells_.size() - 1;
    for (size_t next = (hole + 1) & mask; cells_[next] != 0; next = (next + 1) & mask) {
      const size_t home = hash_of(cells_[next] - 1) & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        cells_[hole] = cells_[next];
        hole = next;
      }
    }
    cells_[hole] = 0;
  }

 private:
  std::vector<uint32_t> cells_;
};

}  // namespace hyperion

#endif  // HYPERION_SRC_COMMON_PROBE_TABLE_H_
