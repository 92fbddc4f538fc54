// Differential tests: the run-granular Tlb must be indistinguishable from
// the per-page LRU it replaced (tests/mem/reference_tlb.hpp) — same hit
// and miss counts on every operation, same size, and the same resident
// pages in the same recency order — over random streams of single-page
// accesses, range accesses up to twice the capacity (so the thrash
// shortcut fires too), narrow and wide invalidations and full flushes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "reference_tlb.hpp"
#include "zc/mem/tlb.hpp"
#include "zc/sim/rng.hpp"

namespace zc::mem {
namespace {

constexpr std::uint64_t kPage = 4096;

std::vector<std::uint64_t> resident(const Tlb& tlb) {
  std::vector<std::uint64_t> out;
  tlb.for_each_resident([&](std::uint64_t p) { out.push_back(p); });
  return out;
}

/// A range starting in the first `span` pages, often unaligned, whose
/// length runs from zero up to `max_pages` pages (plus a partial page).
AddrRange random_range(sim::Rng& rng, std::uint64_t span,
                       std::uint64_t max_pages) {
  std::uint64_t base = rng.uniform_index(span) * kPage;
  if (rng.bernoulli(0.3)) {
    base += rng.uniform_index(kPage);
  }
  std::uint64_t bytes = rng.uniform_index(max_pages + 1) * kPage;
  if (bytes > 0 && rng.bernoulli(0.3)) {
    bytes -= rng.uniform_index(kPage);
  }
  return AddrRange{VirtAddr{base}, bytes};
}

void run_stream(std::uint64_t seed, std::uint32_t capacity, int ops) {
  sim::Rng rng{seed * 1000 + capacity};
  Tlb tlb{capacity, kPage};
  testing::ReferenceTlb ref{capacity, kPage};
  const std::uint64_t span = 3ull * capacity + 8;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.uniform_index(20);
    if (kind < 6) {
      const std::uint64_t page = rng.uniform_index(span);
      ASSERT_EQ(tlb.access(page), ref.access(page)) << "op " << op;
    } else if (kind < 15) {
      const AddrRange r = random_range(rng, span, 2ull * capacity + 1);
      const TlbAccessResult got = tlb.access_range(r);
      const TlbAccessResult want = ref.access_range(r);
      ASSERT_EQ(got.hits, want.hits) << "op " << op;
      ASSERT_EQ(got.misses, want.misses) << "op " << op;
    } else if (kind < 17) {
      const AddrRange r = random_range(rng, span, 2);
      tlb.invalidate_range(r);
      ref.invalidate_range(r);
    } else if (kind < 19) {
      const AddrRange r = random_range(rng, span, span);
      tlb.invalidate_range(r);
      ref.invalidate_range(r);
    } else {
      tlb.invalidate_all();
      ref.invalidate_all();
    }
    ASSERT_EQ(tlb.size(), ref.size()) << "op " << op;
    ASSERT_EQ(tlb.total_hits(), ref.total_hits()) << "op " << op;
    ASSERT_EQ(tlb.total_misses(), ref.total_misses()) << "op " << op;
    ASSERT_EQ(resident(tlb), ref.resident()) << "op " << op;
  }
}

class TlbDifferential : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, TlbDifferential,
                         ::testing::Range<std::uint64_t>(1, 101));

TEST_P(TlbDifferential, MatchesPerPageReferenceAtEveryCapacity) {
  for (std::uint32_t capacity = 1; capacity <= 64; ++capacity) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    run_stream(GetParam(), capacity, 120);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(TlbDifferential, ThrashShortcutOverCountsResidentHeadPages) {
  // The n > capacity shortcut counts every page of the sweep as a miss,
  // even pages that were resident when it began; exact LRU would hit them.
  // It is the model's definition of a thrashing sweep and must not drift.
  Tlb tlb{4, kPage};
  testing::ReferenceTlb ref{4, kPage};
  for (std::uint64_t p = 0; p < 4; ++p) {
    (void)tlb.access(p);
    (void)ref.access(p);
  }
  const AddrRange sweep{VirtAddr{0}, 5 * kPage};
  EXPECT_EQ(tlb.access_range(sweep).misses, 5u);
  EXPECT_EQ(ref.access_range(sweep).misses, 5u);
  EXPECT_EQ(resident(tlb), (std::vector<std::uint64_t>{4, 3, 2, 1}));
  EXPECT_EQ(resident(tlb), ref.resident());
}

TEST(TlbDifferential, SteadyStreamsStayAllHits) {
  // Two large buffers and a single page streamed per launch, the shape of
  // a SPECaccel stencil kernel: after the first launch every page hits.
  Tlb tlb{4096, kPage};
  const AddrRange a{VirtAddr{0}, 1536 * kPage};
  const AddrRange b{VirtAddr{1536 * kPage}, 1536 * kPage};
  const AddrRange s{VirtAddr{4000 * kPage}, 8};
  for (int launch = 0; launch < 4; ++launch) {
    const std::uint64_t misses = tlb.access_range(a).misses +
                                 tlb.access_range(b).misses +
                                 tlb.access_range(s).misses;
    EXPECT_EQ(misses, launch == 0 ? 3073u : 0u) << "launch " << launch;
  }
  EXPECT_EQ(tlb.size(), 3073u);
}

}  // namespace
}  // namespace zc::mem
