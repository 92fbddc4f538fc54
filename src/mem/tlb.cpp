#include "zc/mem/tlb.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace zc::mem {

Tlb::Tlb(std::uint32_t capacity, std::uint64_t page_bytes)
    : capacity_{capacity}, page_bytes_{page_bytes} {
  if (capacity_ == 0) {
    throw std::invalid_argument("Tlb: capacity must be positive");
  }
  if (page_bytes_ == 0 || (page_bytes_ & (page_bytes_ - 1)) != 0) {
    throw std::invalid_argument("Tlb: page size must be a power of two");
  }
}

Tlb::Index& Tlb::index() {
  if (index_ == nullptr) {
    index_ = std::make_unique<Index>();
    index_->hint.fill(kNil);
  }
  return *index_;
}

std::uint32_t Tlb::find_run(std::uint64_t page, std::uint64_t& next) {
  Index& ix = index();
  std::uint32_t& hint = ix.hint[static_cast<std::uint32_t>(
      (page * 0x9e3779b97f4a7c15ull) >> (64 - kHintBits))];
  if (hint < runs_.size() && runs_[hint].first <= page &&
      page < runs_[hint].end) {
    return hint;
  }
  const auto it = ix.starts.upper_bound(page);
  if (it != ix.starts.begin() && page < runs_[std::prev(it)->second].end) {
    hint = std::prev(it)->second;
    return hint;
  }
  next = it == ix.starts.end() ? ~std::uint64_t{0} : it->first;
  return kNil;
}

std::uint32_t Tlb::new_run(std::uint64_t first, std::uint64_t end) {
  std::uint32_t slot;
  if (free_ != kNil) {
    slot = free_;
    free_ = runs_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
  }
  runs_[slot] = Run{first, end, kNil, kNil};
  index().starts.emplace(first, slot);
  return slot;
}

void Tlb::free_run(std::uint32_t slot) {
  index_->starts.erase(runs_[slot].first);
  runs_[slot].end = runs_[slot].first;
  runs_[slot].next = free_;
  free_ = slot;
}

void Tlb::unlink(std::uint32_t slot) {
  const Run& s = runs_[slot];
  if (s.prev != kNil) {
    runs_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNil) {
    runs_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
}

void Tlb::link_front(std::uint32_t slot) {
  Run& s = runs_[slot];
  s.prev = kNil;
  s.next = head_;
  if (head_ != kNil) {
    runs_[head_].prev = slot;
  }
  head_ = slot;
  if (tail_ == kNil) {
    tail_ = slot;
  }
}

void Tlb::link_before(std::uint32_t slot, std::uint32_t at) {
  Run& s = runs_[slot];
  s.next = at;
  s.prev = runs_[at].prev;
  if (s.prev != kNil) {
    runs_[s.prev].next = slot;
  } else {
    head_ = slot;
  }
  runs_[at].prev = slot;
}

void Tlb::move_first(std::uint32_t slot, std::uint64_t first) {
  auto& starts = index_->starts;
  const auto it = starts.find(runs_[slot].first);
  const auto next = std::next(it);
  auto node = starts.extract(it);
  node.key() = first;
  starts.insert(next, std::move(node));
  runs_[slot].first = first;
}

void Tlb::cut(std::uint32_t slot, std::uint64_t a, std::uint64_t b) {
  count_ -= b - a;
  const Run x = runs_[slot];
  if (a == x.first && b == x.end) {
    unlink(slot);
    free_run(slot);
  } else if (a == x.first) {
    move_first(slot, b);
  } else if (b == x.end) {
    runs_[slot].end = a;
  } else {
    // The pages above the cut are more recent than those below it.
    runs_[slot].end = a;
    link_before(new_run(b, x.end), slot);
  }
}

void Tlb::push_front(std::uint64_t a, std::uint64_t b) {
  count_ += b - a;
  if (head_ != kNil && runs_[head_].end == a) {
    runs_[head_].end = b;
  } else {
    link_front(new_run(a, b));
  }
}

void Tlb::evict(std::uint64_t n) {
  while (n > 0) {
    const std::uint32_t t = tail_;
    const std::uint64_t len = runs_[t].end - runs_[t].first;
    if (len > n) {
      count_ -= n;
      move_first(t, runs_[t].first + n);
      return;
    }
    n -= len;
    count_ -= len;
    unlink(t);
    free_run(t);
  }
}

void Tlb::touch(std::uint64_t first, std::uint64_t end, TlbAccessResult& r) {
  // Callers keep end - first <= capacity_, so pages touched earlier in the
  // stream are never the LRU victim of a later miss in it.
  std::uint64_t p = first;
  while (p < end) {
    std::uint64_t next = 0;
    if (const std::uint32_t x = find_run(p, next); x != kNil) {
      // Resident up to the end of its run: all hits, no evictions.
      const std::uint64_t b = std::min(runs_[x].end, end);
      r.hits += b - p;
      if (runs_[x].first == p && runs_[x].end == b) {
        if (head_ != x) {
          unlink(x);
          link_front(x);
        }
      } else {
        cut(x, p, b);
        push_front(p, b);
      }
      p = b;
      continue;
    }
    // Absent up to the next resident page: each miss evicts the LRU page
    // once the TLB is full. The victims are the oldest pages whatever the
    // interleaving, so they can be dropped as one batch up front; if the
    // next resident page is among them, the next round misses it.
    const std::uint64_t b = std::min(next, end);
    r.misses += b - p;
    if (count_ + (b - p) > capacity_) {
      evict(count_ + (b - p) - capacity_);
    }
    push_front(p, b);
    p = b;
  }
}

bool Tlb::access(std::uint64_t page_index) {
  TlbAccessResult r;
  touch(page_index, page_index + 1, r);
  hits_ += r.hits;
  misses_ += r.misses;
  return r.hits == 1;
}

TlbAccessResult Tlb::access_range(AddrRange range) {
  TlbAccessResult r;
  const std::uint64_t first = range.first_page(page_bytes_);
  const std::uint64_t end = range.end_page(page_bytes_);
  // Fast path: a sequential stream larger than the TLB is modelled as a
  // complete thrash — every access misses and the TLB ends up holding the
  // last `capacity` pages. (Exact LRU would hit on resident pages at the
  // head of the range, so this over-counts misses there; it is kept as the
  // model's definition of a thrashing sweep.)
  if (end - first > capacity_) {
    r.misses = end - first;
    misses_ += r.misses;
    invalidate_all();
    push_front(end - capacity_, end);
    return r;
  }
  touch(first, end, r);
  hits_ += r.hits;
  misses_ += r.misses;
  return r;
}

void Tlb::invalidate_range(AddrRange range) {
  if (count_ == 0) {
    return;
  }
  const std::uint64_t first = range.first_page(page_bytes_);
  const std::uint64_t end = range.end_page(page_bytes_);
  auto& starts = index_->starts;
  auto it = starts.upper_bound(first);
  if (it != starts.begin() && runs_[std::prev(it)->second].end > first) {
    --it;
  }
  while (it != starts.end() && it->first < end) {
    const std::uint32_t slot = it->second;
    ++it;  // `cut` may erase or re-key this run's node, never the next one
    cut(slot, std::max(first, runs_[slot].first),
        std::min(end, runs_[slot].end));
  }
}

void Tlb::invalidate_all() {
  if (index_ != nullptr) {
    index_->starts.clear();
  }
  runs_.clear();
  head_ = kNil;
  tail_ = kNil;
  free_ = kNil;
  count_ = 0;
}

}  // namespace zc::mem
