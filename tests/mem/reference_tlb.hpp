#pragma once

// The per-page TLB that `zc::mem::Tlb` replaced, kept as the reference
// oracle for the differential tests: exact LRU over fixed-size page slots,
// a recency list threaded through slot indices and an open-addressing
// page -> slot hash, with the same `n > capacity` thrash shortcut. Every
// operation costs one step per page, which is what makes it easy to trust.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "zc/mem/tlb.hpp"

namespace zc::mem::testing {

class ReferenceTlb {
 public:
  ReferenceTlb(std::uint32_t capacity, std::uint64_t page_bytes)
      : capacity_{capacity}, page_bytes_{page_bytes} {
    if (capacity_ == 0) {
      throw std::invalid_argument("Tlb: capacity must be positive");
    }
    if (page_bytes_ == 0 || (page_bytes_ & (page_bytes_ - 1)) != 0) {
      throw std::invalid_argument("Tlb: page size must be a power of two");
    }
    slots_.resize(capacity_);
    // Keep the load factor at or below 1/2 so linear probes stay short.
    std::uint64_t table = 4;
    while (table < 2ull * capacity_) {
      table *= 2;
    }
    table_.assign(static_cast<std::size_t>(table), 0);
    mask_ = static_cast<std::uint32_t>(table - 1);
  }

  bool access(std::uint64_t page_index) {
    const std::uint32_t pos = find_pos(page_index);
    if (pos != kNil) {
      const std::uint32_t slot = table_[pos] - 1;
      if (head_ != slot) {
        unlink(slot);
        link_front(slot);
      }
      ++hits_;
      return true;
    }
    ++misses_;
    insert_new(page_index);
    return false;
  }

  TlbAccessResult access_range(AddrRange range) {
    TlbAccessResult r;
    const std::uint64_t first = range.first_page(page_bytes_);
    const std::uint64_t end = range.end_page(page_bytes_);
    if (end - first > capacity_) {
      r.misses = end - first;
      misses_ += r.misses;
      invalidate_all();
      for (std::uint64_t p = end - capacity_; p < end; ++p) {
        insert_new(p);
      }
      return r;
    }
    for (std::uint64_t p = first; p < end; ++p) {
      if (access(p)) {
        ++r.hits;
      } else {
        ++r.misses;
      }
    }
    return r;
  }

  void invalidate_range(AddrRange range) {
    if (count_ == 0) {
      return;
    }
    const std::uint64_t first = range.first_page(page_bytes_);
    const std::uint64_t end = range.end_page(page_bytes_);
    if (end - first < count_) {
      for (std::uint64_t p = first; p < end; ++p) {
        const std::uint32_t pos = find_pos(p);
        if (pos == kNil) {
          continue;
        }
        const std::uint32_t slot = table_[pos] - 1;
        table_erase(pos);
        unlink(slot);
        slots_[slot].next = free_;
        free_ = slot;
        --count_;
      }
      return;
    }
    std::uint32_t slot = head_;
    while (slot != kNil) {
      const std::uint32_t next = slots_[slot].next;
      const std::uint64_t p = slots_[slot].page;
      if (p >= first && p < end) {
        table_erase(find_pos(p));
        unlink(slot);
        slots_[slot].next = free_;
        free_ = slot;
        --count_;
      }
      slot = next;
    }
  }

  void invalidate_all() {
    std::fill(table_.begin(), table_.end(), 0u);
    head_ = kNil;
    tail_ = kNil;
    free_ = kNil;
    used_slots_ = 0;
    count_ = 0;
  }

  /// Resident pages, most recently used first.
  [[nodiscard]] std::vector<std::uint64_t> resident() const {
    std::vector<std::uint64_t> out;
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
      out.push_back(slots_[s].page);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t total_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t total_misses() const { return misses_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    std::uint64_t page;
    std::uint32_t prev;
    std::uint32_t next;
  };

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::uint32_t home(std::uint64_t page) const {
    return static_cast<std::uint32_t>(mix(page)) & mask_;
  }

  [[nodiscard]] std::uint32_t find_pos(std::uint64_t page) const {
    std::uint32_t pos = home(page);
    while (true) {
      const std::uint32_t e = table_[pos];
      if (e == 0) {
        return kNil;
      }
      if (slots_[e - 1].page == page) {
        return pos;
      }
      pos = (pos + 1) & mask_;
    }
  }

  void table_erase(std::uint32_t pos) {
    std::uint32_t j = pos;
    while (true) {
      table_[pos] = 0;
      while (true) {
        j = (j + 1) & mask_;
        const std::uint32_t e = table_[j];
        if (e == 0) {
          return;
        }
        const std::uint32_t h = home(slots_[e - 1].page);
        if (((j - h) & mask_) >= ((j - pos) & mask_)) {
          table_[pos] = e;
          pos = j;
          break;
        }
      }
    }
  }

  void unlink(std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (s.prev != kNil) {
      slots_[s.prev].next = s.next;
    } else {
      head_ = s.next;
    }
    if (s.next != kNil) {
      slots_[s.next].prev = s.prev;
    } else {
      tail_ = s.prev;
    }
  }

  void link_front(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.prev = kNil;
    s.next = head_;
    if (head_ != kNil) {
      slots_[head_].prev = slot;
    }
    head_ = slot;
    if (tail_ == kNil) {
      tail_ = slot;
    }
  }

  void insert_new(std::uint64_t page) {
    std::uint32_t slot;
    if (free_ != kNil) {
      slot = free_;
      free_ = slots_[slot].next;
    } else if (used_slots_ < capacity_) {
      slot = used_slots_++;
    } else {
      slot = tail_;
      table_erase(find_pos(slots_[slot].page));
      unlink(slot);
      --count_;
    }
    slots_[slot].page = page;
    link_front(slot);
    std::uint32_t pos = home(page);
    while (table_[pos] != 0) {
      pos = (pos + 1) & mask_;
    }
    table_[pos] = slot + 1;
    ++count_;
  }

  std::uint32_t capacity_;
  std::uint64_t page_bytes_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> table_;
  std::uint32_t mask_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t free_ = kNil;
  std::uint32_t count_ = 0;
  std::uint32_t used_slots_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace zc::mem::testing
