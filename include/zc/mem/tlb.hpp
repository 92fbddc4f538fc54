#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <vector>

#include "zc/mem/address.hpp"

namespace zc::mem {

/// Result of streaming an address range through the TLB.
struct TlbAccessResult {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// GPU translation lookaside buffer: an LRU cache over page translations.
///
/// The TLB sits in front of the GPU page table: a miss costs a page-table
/// walk (the page being present in the GPU page table is the concern of
/// XNACK/prefaulting, not of the TLB). Kernels stream their touched ranges
/// through `access_range`; working sets larger than the capacity thrash,
/// which is the mechanism the paper suspects behind the Eager Maps S128
/// variability.
///
/// Implementation: exact LRU whose recency list holds *runs* of pages
/// rather than pages. Within a run the pages are consecutive and
/// ascending, and the last page is the most recent, so a run is exactly
/// what streaming a range leaves behind. An ordered index over run starts,
/// fronted by a small direct-mapped cache of recent lookups, maps a page
/// to its run. Streaming a resident segment then moves one run (or the
/// touched slice of one) to the front in O(1) to O(log R); a miss batch
/// evicts from the least recent run's head and extends the most recent
/// run. Nothing is allocated until the first access. Every access
/// sequence produces the same hit and miss counts, the same resident set
/// and the same LRU order as a per-page LRU.
class Tlb {
 public:
  explicit Tlb(std::uint32_t capacity, std::uint64_t page_bytes);

  /// Touch one page; true on hit. Misses insert the translation (evicting
  /// the least recently used one if full).
  bool access(std::uint64_t page_index);

  /// Touch every page of a range in order.
  TlbAccessResult access_range(AddrRange range);

  /// Drop translations for the range (e.g. on free / unmap).
  void invalidate_range(AddrRange range);

  void invalidate_all();

  /// Call `f(page)` for every resident page, most recently used first.
  template <typename F>
  void for_each_resident(F&& f) const {
    for (std::uint32_t r = head_; r != kNil; r = runs_[r].next) {
      for (std::uint64_t p = runs_[r].end; p > runs_[r].first; --p) {
        f(p - 1);
      }
    }
  }

  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t page_bytes() const { return page_bytes_; }
  [[nodiscard]] std::uint64_t total_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t total_misses() const { return misses_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kHintBits = 10;
  static constexpr std::uint32_t kHintSlots = 1u << kHintBits;

  /// Resident pages [first, end), most recent last, plus recency-list
  /// links (run slots; `prev` is toward the most recent end).
  struct Run {
    std::uint64_t first;
    std::uint64_t end;
    std::uint32_t prev;
    std::uint32_t next;
  };
  /// Page -> run lookup, allocated on first access.
  struct Index {
    /// Recycles `starts` nodes: runs split, merge and die on every miss
    /// batch, and that churn should not go through `malloc`.
    std::pmr::unsynchronized_pool_resource nodes;
    std::pmr::map<std::uint64_t, std::uint32_t> starts{&nodes};  // -> slot
    /// Page hash -> the run slot last found for it. A slot is right
    /// whenever its run still holds the page: live runs are disjoint and
    /// freed runs hold nothing.
    std::array<std::uint32_t, kHintSlots> hint;
  };

  [[nodiscard]] Index& index();
  /// Stream pages [first, end) through the LRU, adding to `r`.
  void touch(std::uint64_t first, std::uint64_t end, TlbAccessResult& r);
  /// Slot of the run holding `page`; else kNil, with `next` set to the
  /// first resident page above it (all ones if none).
  [[nodiscard]] std::uint32_t find_run(std::uint64_t page,
                                       std::uint64_t& next);
  [[nodiscard]] std::uint32_t new_run(std::uint64_t first, std::uint64_t end);
  void free_run(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void link_front(std::uint32_t slot);
  /// Link `slot` just before (more recent than) `at`.
  void link_before(std::uint32_t slot, std::uint32_t at);
  /// Move run `slot`'s first page forward to `first`, within the run.
  void move_first(std::uint32_t slot, std::uint64_t first);
  /// Remove resident pages [a, b) of run `slot`; what remains of the run
  /// keeps its place in the recency order.
  void cut(std::uint32_t slot, std::uint64_t a, std::uint64_t b);
  /// Make non-resident pages [a, b) the most recent, in ascending order.
  void push_front(std::uint64_t a, std::uint64_t b);
  /// Drop the `n` least recently used translations.
  void evict(std::uint64_t n);

  std::uint32_t capacity_;
  std::uint64_t page_bytes_;
  std::vector<Run> runs_;         // run pool; freed slots chain via `next`
  std::unique_ptr<Index> index_;  // null until the first access
  std::uint32_t head_ = kNil;  // most recently used run
  std::uint32_t tail_ = kNil;  // least recently used run
  std::uint32_t free_ = kNil;  // freelist of run slots
  std::uint64_t count_ = 0;    // live translations
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace zc::mem
