#pragma once

#include <cstdint>
#include <iterator>
#include <map>

#include "zc/mem/address.hpp"

namespace zc::mem {

/// A page table as a presence set over page indices.
///
/// Used for both the CPU page table (which pages of an OS allocation have
/// been materialized) and the GPU page table (which pages the GPU can
/// translate without an XNACK fault). Only presence matters to the paper's
/// protocols; permissions and physical frames are out of scope.
///
/// Representation: an interval set of maximal present runs (start -> end,
/// disjoint and never adjacent) plus a maintained page count. Tables hold
/// a few huge regions, so every query and mutation costs O(log R + runs
/// touched) for R runs, independent of how many pages a range spans.
class PageTable {
 public:
  explicit PageTable(std::uint64_t page_bytes);

  [[nodiscard]] std::uint64_t page_bytes() const { return page_bytes_; }

  [[nodiscard]] bool present(std::uint64_t page_index) const {
    const auto it = runs_.upper_bound(page_index);
    return it != runs_.begin() && page_index < std::prev(it)->second;
  }
  [[nodiscard]] bool present_addr(VirtAddr a) const {
    return present(a.value / page_bytes_);
  }

  /// Insert one page; returns true if it was newly inserted.
  bool insert(std::uint64_t page_index) {
    return insert_pages(page_index, page_index + 1) == 1;
  }

  /// Insert every page of the range; returns how many were new.
  std::uint64_t insert_range(AddrRange range);

  /// Remove every page of the range; returns how many were present.
  std::uint64_t remove_range(AddrRange range);

  /// How many pages of the range are absent.
  [[nodiscard]] std::uint64_t count_absent(AddrRange range) const;

  /// How many pages of the range are present.
  [[nodiscard]] std::uint64_t count_present(AddrRange range) const {
    return range.page_count(page_bytes_) - count_absent(range);
  }

  /// Insert pages [first, end); returns how many were new.
  std::uint64_t insert_pages(std::uint64_t first, std::uint64_t end);

  /// Call `f(a, b)` for each maximal run of *absent* pages within
  /// [first, end), in ascending order. `f` must not mutate this table.
  template <typename F>
  void for_each_absent_run(std::uint64_t first, std::uint64_t end,
                           F&& f) const {
    std::uint64_t p = first;
    for (auto it = first_overlap(first); it != runs_.end() && it->first < end;
         ++it) {
      if (it->first > p) {
        f(p, it->first);
      }
      p = it->second;
    }
    if (p < end) {
      f(p, end);
    }
  }

  [[nodiscard]] std::uint64_t size() const { return pages_; }
  void clear() {
    runs_.clear();
    pages_ = 0;
  }

 private:
  using Runs = std::map<std::uint64_t, std::uint64_t>;

  /// The first run that ends after `page` (the one containing it, if any).
  [[nodiscard]] Runs::const_iterator first_overlap(std::uint64_t page) const {
    auto it = runs_.upper_bound(page);
    if (it != runs_.begin() && std::prev(it)->second > page) {
      --it;
    }
    return it;
  }

  std::uint64_t page_bytes_;
  Runs runs_;               ///< present runs: start page -> end page
  std::uint64_t pages_ = 0;  ///< total present pages
};

}  // namespace zc::mem
