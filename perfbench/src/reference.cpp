// The host-speed reference: a fixed kernel, frozen in the benchmark and
// independent of the apuzc library, timed beside every cell. On a shared
// host the speed of a core drifts by tens of percent over minutes (other
// tenants' load); a pass's host time divided by the reference's time
// beside it cancels that drift and keeps every change of the simulator.
//
// The kernel mixes the simulator's two kinds of host work, because a shared
// host slows them by different amounts: pointer-chasing ordered-map
// lookups, inserts and erases with small variable-size allocations (the
// event queue and present tables, cache- and core-bound), then bulk copies
// through 16 MB of buffers (the byte moves and page traffic, bound by the
// shared cache and memory). It allocates only from its own buffers,
// touched once, so it leaves glibc malloc's state — and with it the
// simulator's heap and page faults — untouched.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <stdexcept>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kReferenceOps = 12000;
constexpr std::uint64_t kReferenceKeys = 4096;
constexpr std::size_t kArenaBytes = 4U << 20;
constexpr std::size_t kCopyBytes = 8U << 20;

/// Buffers allocated and filled (so faulted in) once, before the first
/// timing: the map's arena and the two copy buffers.
struct Buffers {
  std::vector<std::byte> arena = std::vector<std::byte>(kArenaBytes);
  std::vector<std::byte> from = std::vector<std::byte>(kCopyBytes);
  std::vector<std::byte> to = std::vector<std::byte>(kCopyBytes);
  Buffers() {
    std::fill(arena.begin(), arena.end(), std::byte{1});
    std::fill(from.begin(), from.end(), std::byte{2});
    std::fill(to.begin(), to.end(), std::byte{3});
  }
};

Buffers& buffers() {
  static Buffers b;
  return b;
}

}  // namespace

double reference_kernel_s() {
  Buffers& b = buffers();
  std::pmr::monotonic_buffer_resource buffer{
      b.arena.data(), b.arena.size(), std::pmr::null_memory_resource()};
  std::pmr::unsynchronized_pool_resource pool{&buffer};

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sum = 0;
  {
    std::pmr::map<std::uint64_t, std::pmr::vector<std::uint32_t>> table{
        &pool};
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kReferenceOps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t key = (x >> 33) % kReferenceKeys;
      const auto it = table.find(key);
      if (it == table.end()) {
        table.emplace(key, std::pmr::vector<std::uint32_t>(
                               8 + key % 64, static_cast<std::uint32_t>(i),
                               &pool));
      } else {
        sum += it->second.back() + it->second.size();
        table.erase(it);
      }
    }
    sum += table.size();
  }
  // One and a half copies of the buffer: there and half of it back.
  std::copy(b.from.begin(), b.from.end(), b.to.begin());
  std::copy(b.to.begin(), b.to.begin() + kCopyBytes / 2, b.from.begin());
  sum += std::to_integer<std::uint64_t>(b.from[kCopyBytes / 4]);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The same operations every time, so the same result.
  static std::uint64_t first_sum = sum;
  if (sum != first_sum) {
    throw std::logic_error("reference kernel is not deterministic");
  }
  return seconds;
}

void PassClock::reference(double min_s) {
  double spent = 0.0;
  do {
    spent += reference_kernel_s();
    ++ref_runs;
  } while (spent < min_s);
  ref_s += spent;
}

}  // namespace perfbench
