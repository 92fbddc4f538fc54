#include "zc/mem/page_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace zc::mem {

namespace {

/// Move run `it`'s start forward to `start` (still inside the run), reusing
/// its node: the run keeps its place in the order, so `next` stays a valid
/// hint.
void move_start(std::map<std::uint64_t, std::uint64_t>& runs,
                std::map<std::uint64_t, std::uint64_t>::iterator it,
                std::uint64_t start) {
  const auto next = std::next(it);
  auto node = runs.extract(it);
  node.key() = start;
  runs.insert(next, std::move(node));
}

}  // namespace

PageTable::PageTable(std::uint64_t page_bytes) : page_bytes_{page_bytes} {
  if (page_bytes_ == 0 || (page_bytes_ & (page_bytes_ - 1)) != 0) {
    throw std::invalid_argument("PageTable: page size must be a power of two");
  }
}

std::uint64_t PageTable::insert_pages(std::uint64_t first, std::uint64_t end) {
  if (first >= end) {
    return 0;
  }
  // The merged run absorbs every run that overlaps or touches [first, end).
  auto it = runs_.upper_bound(first);
  auto grow = runs_.end();
  std::uint64_t covered = 0;
  if (it != runs_.begin() && std::prev(it)->second >= first) {
    grow = std::prev(it);
    if (grow->second >= end) {
      return 0;
    }
    covered = grow->second - first;
  }
  std::uint64_t hi = end;
  while (it != runs_.end() && it->first <= end) {
    covered += std::min(it->second, end) - it->first;
    hi = std::max(hi, it->second);
    it = runs_.erase(it);
  }
  if (grow != runs_.end()) {
    grow->second = hi;
  } else {
    runs_.emplace_hint(it, first, hi);
  }
  const std::uint64_t inserted = (end - first) - covered;
  pages_ += inserted;
  return inserted;
}

std::uint64_t PageTable::insert_range(AddrRange range) {
  return insert_pages(range.first_page(page_bytes_),
                      range.end_page(page_bytes_));
}

std::uint64_t PageTable::remove_range(AddrRange range) {
  const std::uint64_t first = range.first_page(page_bytes_);
  const std::uint64_t end = range.end_page(page_bytes_);
  if (first >= end) {
    return 0;
  }
  std::uint64_t removed = 0;
  auto it = runs_.upper_bound(first);
  if (it != runs_.begin() && std::prev(it)->second > first) {
    // A run starting before `first` keeps its head; if it also reaches
    // past `end` it keeps its tail too, and nothing else can overlap.
    const auto head = std::prev(it);
    const std::uint64_t run_end = head->second;
    removed = std::min(run_end, end) - first;
    if (run_end > end) {
      if (head->first == first) {
        move_start(runs_, head, end);
      } else {
        head->second = first;
        runs_.emplace_hint(it, end, run_end);
      }
      pages_ -= removed;
      return removed;
    }
    if (head->first == first) {
      runs_.erase(head);
    } else {
      head->second = first;
    }
  }
  while (it != runs_.end() && it->first < end) {
    if (it->second > end) {
      removed += end - it->first;
      move_start(runs_, it, end);
      break;
    }
    removed += it->second - it->first;
    it = runs_.erase(it);
  }
  pages_ -= removed;
  return removed;
}

std::uint64_t PageTable::count_absent(AddrRange range) const {
  const std::uint64_t first = range.first_page(page_bytes_);
  const std::uint64_t end = range.end_page(page_bytes_);
  if (first >= end) {
    return 0;
  }
  std::uint64_t present = 0;
  for (auto it = first_overlap(first); it != runs_.end() && it->first < end;
       ++it) {
    present += std::min(it->second, end) - std::max(it->first, first);
  }
  return (end - first) - present;
}

}  // namespace zc::mem
