// Reference values computed without the simulator, against which the
// benchmark checks every cell's output.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "zc/service/arrival.hpp"
#include "zc/workloads/service_jobs.hpp"

namespace perfbench {

namespace {

/// The proxy's per-(thread, walker, step) hash (a splitmix64-style mix).
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b,
                                std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
                    c * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 29;
  return x;
}

}  // namespace

double qmcpack_reference_checksum(const zc::workloads::QmcpackParams& params) {
  // Only element 0 of each walker's arrays reaches the checksum: drift
  // moves pos[0], the determinant update adds 1e-6 * pos[0] to psi[0], the
  // accumulation adds psi[0] into the thread's reduce1[0], and the host
  // reads reduce1[0] after every walker. Threads reduce in index order.
  double checksum = 0.0;
  for (int t = 0; t < params.threads; ++t) {
    std::vector<double> pos(static_cast<std::size_t>(params.walkers_per_thread));
    std::vector<double> psi(pos.size(), 1.0);
    for (std::size_t w = 0; w < pos.size(); ++w) {
      pos[w] = 0.01 * static_cast<double>(w);
    }
    double reduce1 = 0.0;
    double acc = 0.0;
    for (int step = 0; step < params.steps; ++step) {
      for (std::size_t w = 0; w < pos.size(); ++w) {
        const std::uint64_t h = mix(static_cast<std::uint64_t>(t), w,
                                    static_cast<std::uint64_t>(step));
        pos[w] += 1e-3 * static_cast<double>(h % 7);
        psi[w] += 1e-6 * pos[w];
        reduce1 += psi[w];
        acc += reduce1;
      }
    }
    checksum += acc;
  }
  return checksum;
}

const PaperRow& paper_table2(const std::string& benchmark) {
  // Bertolli et al., SC'24, Table II (also EXPERIMENTS.md).
  static const PaperRow rows[] = {
      {"stencil", {0.99, 0.99, 0.98}},
      {"lbm", {1.05, 1.043, 1.025}},
      {"ep", {0.89, 0.89, 0.99}},
      {"spC", {7.80, 7.61, 8.10}},
      {"bt", {4.88, 4.77, 5.10}},
  };
  for (const PaperRow& row : rows) {
    if (benchmark == row.benchmark) {
      return row;
    }
  }
  throw std::invalid_argument("no Table II row for " + benchmark);
}

std::vector<double> service_reference_checksums(
    const zc::service::ArrivalParams& arrival,
    const std::vector<std::vector<std::uint64_t>>& completed,
    std::uint64_t page_bytes) {
  // Replay the offered stream, then sum each tenant's completed jobs in id
  // order (the service's own order, so the sums compare bit for bit).
  std::vector<std::vector<std::pair<std::uint64_t, double>>> per_tenant(
      completed.size());
  zc::service::ArrivalProcess stream{arrival};
  while (!stream.done()) {
    const zc::workloads::ServiceJobSpec spec = stream.next().spec;
    const auto t = static_cast<std::size_t>(spec.tenant);
    if (t < completed.size() &&
        std::find(completed[t].begin(), completed[t].end(), spec.id) !=
            completed[t].end()) {
      per_tenant[t].emplace_back(
          spec.id, zc::workloads::service_job_checksum(spec, page_bytes));
    }
  }
  std::vector<double> sums(completed.size(), 0.0);
  for (std::size_t t = 0; t < per_tenant.size(); ++t) {
    std::sort(per_tenant[t].begin(), per_tenant[t].end());
    for (const auto& [id, cs] : per_tenant[t]) {
      sums[t] += cs;
    }
  }
  return sums;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace perfbench
