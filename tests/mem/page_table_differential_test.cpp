// Differential tests: the interval PageTable must agree with a
// std::set<uint64_t> of present pages on every answer — insertions and
// removals report the same counts, absent counts and absent runs match
// (queried repeatedly on a fixed pool of ranges between mutations, so a
// stale answer would show), and presence, size and clear agree.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "zc/mem/page_table.hpp"
#include "zc/sim/rng.hpp"

namespace zc::mem {
namespace {

constexpr std::uint64_t kPage = 4096;
constexpr std::uint64_t kSpan = 160;  // pages the streams touch

using Runs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

AddrRange random_range(sim::Rng& rng) {
  std::uint64_t base = rng.uniform_index(kSpan) * kPage;
  if (rng.bernoulli(0.3)) {
    base += rng.uniform_index(kPage);
  }
  const std::uint64_t max_pages = rng.bernoulli(0.8) ? 12 : kSpan;
  std::uint64_t bytes = rng.uniform_index(max_pages + 1) * kPage;
  if (bytes > 0 && rng.bernoulli(0.3)) {
    bytes -= rng.uniform_index(kPage);
  }
  return AddrRange{VirtAddr{base}, bytes};
}

std::uint64_t ref_insert(std::set<std::uint64_t>& ref, std::uint64_t first,
                         std::uint64_t end) {
  std::uint64_t n = 0;
  for (std::uint64_t p = first; p < end; ++p) {
    n += ref.insert(p).second ? 1 : 0;
  }
  return n;
}

Runs ref_absent_runs(const std::set<std::uint64_t>& ref, std::uint64_t first,
                     std::uint64_t end) {
  Runs out;
  for (std::uint64_t p = first; p < end; ++p) {
    if (ref.contains(p)) {
      continue;
    }
    if (!out.empty() && out.back().second == p) {
      out.back().second = p + 1;
    } else {
      out.emplace_back(p, p + 1);
    }
  }
  return out;
}

void expect_agrees(const PageTable& pt, const std::set<std::uint64_t>& ref,
                   AddrRange r, int op) {
  const std::uint64_t first = r.first_page(kPage);
  const std::uint64_t end = r.end_page(kPage);
  const Runs want = ref_absent_runs(ref, first, end);
  std::uint64_t want_absent = 0;
  for (const auto& [a, b] : want) {
    want_absent += b - a;
  }
  ASSERT_EQ(pt.count_absent(r), want_absent) << "op " << op;
  ASSERT_EQ(pt.count_present(r), (end - first) - want_absent) << "op " << op;
  Runs got;
  pt.for_each_absent_run(first, end, [&](std::uint64_t a, std::uint64_t b) {
    got.emplace_back(a, b);
  });
  ASSERT_EQ(got, want) << "op " << op;
}

class PageTableDifferential : public ::testing::TestWithParam<std::uint64_t> {
};
INSTANTIATE_TEST_SUITE_P(Seeds, PageTableDifferential,
                         ::testing::Range<std::uint64_t>(1, 101));

TEST_P(PageTableDifferential, AgreesWithSetReference) {
  sim::Rng rng{GetParam()};
  PageTable pt{kPage};
  std::set<std::uint64_t> ref;
  std::vector<AddrRange> watched;
  for (int i = 0; i < 6; ++i) {
    watched.push_back(random_range(rng));
  }
  for (int op = 0; op < 800; ++op) {
    const AddrRange r = random_range(rng);
    const std::uint64_t first = r.first_page(kPage);
    const std::uint64_t end = r.end_page(kPage);
    switch (rng.uniform_index(8)) {
      case 0:
      case 1:
        ASSERT_EQ(pt.insert_range(r), ref_insert(ref, first, end))
            << "op " << op;
        break;
      case 2: {
        const std::uint64_t a = rng.uniform_index(kSpan);
        const std::uint64_t b = a + rng.uniform_index(4);
        ASSERT_EQ(pt.insert_pages(a, b), ref_insert(ref, a, b)) << "op " << op;
        break;
      }
      case 3:
      case 4: {
        std::uint64_t removed = 0;
        for (std::uint64_t p = first; p < end; ++p) {
          removed += ref.erase(p);
        }
        ASSERT_EQ(pt.remove_range(r), removed) << "op " << op;
        break;
      }
      case 5:
        expect_agrees(pt, ref, r, op);
        break;
      case 6: {
        const std::uint64_t p = rng.uniform_index(kSpan + 2);
        ASSERT_EQ(pt.present(p), ref.contains(p)) << "op " << op;
        ASSERT_EQ(pt.present_addr(VirtAddr{p * kPage + 1}), ref.contains(p));
        break;
      }
      default:
        if (rng.bernoulli(0.05)) {
          pt.clear();
          ref.clear();
        }
        break;
    }
    ASSERT_EQ(pt.size(), ref.size()) << "op " << op;
    // The same ranges re-asked after every mutation.
    for (const AddrRange& w : watched) {
      expect_agrees(pt, ref, w, op);
    }
  }
}

TEST(PageTableDifferential, RemovingTheMiddleOfARunSplitsIt) {
  PageTable pt{kPage};
  EXPECT_EQ(pt.insert_pages(10, 20), 10u);
  EXPECT_EQ(pt.remove_range(AddrRange{VirtAddr{13 * kPage}, 2 * kPage}), 2u);
  Runs absent;
  pt.for_each_absent_run(8, 22, [&](std::uint64_t a, std::uint64_t b) {
    absent.emplace_back(a, b);
  });
  EXPECT_EQ(absent, (Runs{{8, 10}, {13, 15}, {20, 22}}));
  EXPECT_EQ(pt.size(), 8u);
  // Refilling the hole merges the run back.
  EXPECT_EQ(pt.insert_pages(12, 16), 2u);
  EXPECT_EQ(pt.count_absent(AddrRange{VirtAddr{10 * kPage}, 10 * kPage}), 0u);
}

}  // namespace
}  // namespace zc::mem
