// Functional tests of the multi-tenant service loop itself: conservation
// of jobs (offered = completed + failed + shed), checksum verification on
// every completed job, same-seed bit-identical stats, parameter
// validation, and the policy ladder's observable differences at benign
// load.
#include "zc/service/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace zc::service {
namespace {

using apu::ServicePolicy;

ServiceParams small_params(ServicePolicy policy, std::uint64_t jobs = 60) {
  ServiceParams p;
  p.config.tenants = 3;
  p.config.policy = policy;
  p.workers = 3;
  p.arrival.tenants = 3;
  p.arrival.sockets = 1;
  p.arrival.jobs = jobs;
  p.arrival.seed = 5;
  return p;
}

void expect_conservation(const ServiceResult& r) {
  std::uint64_t jobs_total = 0;
  for (const auto& t : r.run.service_tenants) {
    EXPECT_EQ(t.offered, t.completed + t.failed + t.shed)
        << "tenant " << t.tenant;
    EXPECT_EQ(t.admitted, t.completed + t.failed) << "tenant " << t.tenant;
    jobs_total += t.offered;
  }
  EXPECT_EQ(r.jobs.size(), jobs_total);  // one lifecycle record per job
  std::uint64_t shed_total = 0;
  for (const auto& t : r.run.service_tenants) {
    shed_total += t.shed;
  }
  EXPECT_EQ(r.sheds.size(), shed_total);
}

TEST(ServiceTest, BenignLoadCompletesEverythingUnderFullPolicy) {
  const ServiceResult r = run_service(small_params(ServicePolicy::Full));
  ASSERT_EQ(r.run.service_tenants.size(), 3u);
  expect_conservation(r);
  EXPECT_EQ(r.checksum_divergences, 0u);
  std::uint64_t completed = 0;
  for (const auto& t : r.run.service_tenants) {
    EXPECT_EQ(t.failed, 0u) << "tenant " << t.tenant;
    EXPECT_EQ(t.shed, 0u) << "tenant " << t.tenant;
    EXPECT_EQ(t.breaker_opens, 0u) << "tenant " << t.tenant;
    completed += t.completed;
    if (t.completed > 0) {
      EXPECT_GT(t.p50_us, 0.0);
      EXPECT_GE(t.p99_us, t.p50_us);
      EXPECT_GE(t.p999_us, t.p99_us);
      EXPECT_GT(t.goodput_jps, 0.0);
      EXPECT_NE(t.checksum, 0.0);
    }
  }
  EXPECT_EQ(completed, 60u);
  // The run checksum is the sum of the per-tenant id-ordered sums.
  double sum = 0.0;
  for (const auto& t : r.run.service_tenants) {
    sum += t.checksum;
  }
  EXPECT_EQ(r.run.checksum, sum);
}

TEST(ServiceTest, EveryPolicyRungRunsCleanAtBenignLoad) {
  for (const ServicePolicy policy :
       {ServicePolicy::Off, ServicePolicy::Admit, ServicePolicy::Fair,
        ServicePolicy::Full}) {
    const ServiceResult r = run_service(small_params(policy, 40));
    expect_conservation(r);
    EXPECT_EQ(r.checksum_divergences, 0u)
        << apu::to_string(policy);
    std::uint64_t completed = 0;
    for (const auto& t : r.run.service_tenants) {
      completed += t.completed;
    }
    EXPECT_EQ(completed, 40u) << apu::to_string(policy);
  }
}

// Same seed, same params: the whole per-tenant stats block must be
// bit-identical across reruns (the acceptance bar's determinism clause).
TEST(ServiceTest, SameSeedRerunsAreBitIdentical) {
  const ServiceResult a = run_service(small_params(ServicePolicy::Full));
  const ServiceResult b = run_service(small_params(ServicePolicy::Full));
  ASSERT_EQ(a.run.service_tenants.size(), b.run.service_tenants.size());
  for (std::size_t i = 0; i < a.run.service_tenants.size(); ++i) {
    const auto& x = a.run.service_tenants[i];
    const auto& y = b.run.service_tenants[i];
    EXPECT_EQ(x.offered, y.offered);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.starvation_boosts, y.starvation_boosts);
    EXPECT_EQ(x.p50_us, y.p50_us);    // bit-identical, not approximate
    EXPECT_EQ(x.p99_us, y.p99_us);
    EXPECT_EQ(x.p999_us, y.p999_us);
    EXPECT_EQ(x.goodput_jps, y.goodput_jps);
    EXPECT_EQ(x.checksum, y.checksum);
    EXPECT_EQ(x.counters.kernels, y.counters.kernels);
    EXPECT_EQ(x.counters.copies, y.counters.copies);
  }
  EXPECT_EQ(a.run.wall_time.ns(), b.run.wall_time.ns());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].tenant, b.jobs[i].tenant);
    EXPECT_EQ(a.jobs[i].job, b.jobs[i].job);
    EXPECT_EQ(a.jobs[i].end.since_start().ns(),
              b.jobs[i].end.since_start().ns());
  }
}

TEST(ServiceTest, DifferentSeedsProduceDifferentSchedules) {
  ServiceParams p2 = small_params(ServicePolicy::Full);
  p2.arrival.seed = 6;
  const ServiceResult a = run_service(small_params(ServicePolicy::Full));
  const ServiceResult b = run_service(p2);
  EXPECT_NE(a.run.wall_time.ns(), b.run.wall_time.ns());
}

// Tenant counters attribute real device consumption: a run's kernels are
// split across tenants and sum to a positive total.
TEST(ServiceTest, TenantCountersAttributeKernels) {
  const ServiceResult r = run_service(small_params(ServicePolicy::Full));
  std::uint64_t kernels = 0;
  std::uint64_t tenants_with_kernels = 0;
  for (const auto& t : r.run.service_tenants) {
    kernels += t.counters.kernels;
    tenants_with_kernels += t.counters.kernels > 0 ? 1 : 0;
  }
  EXPECT_GT(kernels, 0u);
  EXPECT_EQ(tenants_with_kernels, 3u);  // every tenant ran something
}

TEST(ServiceTest, ValidatesParams) {
  {
    ServiceParams p = small_params(ServicePolicy::Full);
    p.config.tenants = 0;  // disabled service
    EXPECT_THROW((void)run_service(p), std::invalid_argument);
  }
  {
    ServiceParams p = small_params(ServicePolicy::Full);
    p.arrival.tenants = 2;  // mismatched with config.tenants
    EXPECT_THROW((void)run_service(p), std::invalid_argument);
  }
  {
    ServiceParams p = small_params(ServicePolicy::Full);
    p.arrival.sockets = 2;  // run is single-socket
    EXPECT_THROW((void)run_service(p), std::invalid_argument);
  }
  {
    ServiceParams p = small_params(ServicePolicy::Full);
    p.weights = {1, 2};  // must be one per tenant
    EXPECT_THROW((void)run_service(p), std::invalid_argument);
  }
  {
    ServiceParams p = small_params(ServicePolicy::Full);
    p.workers = 0;
    EXPECT_THROW((void)run_service(p), std::invalid_argument);
  }
  {
    ServiceParams p = small_params(ServicePolicy::Full);
    p.admit_fraction = 0.0;
    EXPECT_THROW((void)run_service(p), std::invalid_argument);
  }
  {
    ServiceParams p = small_params(ServicePolicy::Full);
    p.deadmit_low = p.deadmit_high;
    EXPECT_THROW((void)run_service(p), std::invalid_argument);
  }
}

// Multi-socket: tenants home to tenant % sockets and both devices see
// kernels.
TEST(ServiceTest, MultiSocketSpreadsTenantsAcrossDevices) {
  ServiceParams p = small_params(ServicePolicy::Full);
  p.config.tenants = 4;
  p.arrival.tenants = 4;
  p.arrival.sockets = 2;
  p.arrival.jobs = 40;
  p.base.sockets = 2;
  const ServiceResult r = run_service(p);
  expect_conservation(r);
  EXPECT_EQ(r.checksum_divergences, 0u);
  ASSERT_EQ(r.run.devices.size(), 2u);
  EXPECT_GT(r.run.devices[0].counters.kernels, 0u);
  EXPECT_GT(r.run.devices[1].counters.kernels, 0u);
  for (const auto& j : r.jobs) {
    EXPECT_EQ(j.device, j.tenant % 2);
  }
}

// The scheduler's interleaving stress mode must not change any tenant's
// completed-work checksum (locks, not luck).
TEST(ServiceTest, StressModePreservesChecksums) {
  const ServiceResult base = run_service(small_params(ServicePolicy::Full));
  ServiceParams p = small_params(ServicePolicy::Full);
  p.base.stress_seed = 1234;
  const ServiceResult stressed = run_service(p);
  ASSERT_EQ(stressed.run.service_tenants.size(),
            base.run.service_tenants.size());
  for (std::size_t i = 0; i < base.run.service_tenants.size(); ++i) {
    // Under a perturbed interleaving the *schedule* may differ (DRR order,
    // quantiles), but completed work and its checksums must not.
    EXPECT_EQ(stressed.run.service_tenants[i].completed,
              base.run.service_tenants[i].completed);
    EXPECT_EQ(stressed.run.service_tenants[i].checksum,
              base.run.service_tenants[i].checksum);
  }
  EXPECT_EQ(stressed.checksum_divergences, 0u);
}

// Regression: a Staged job's `device_alloc` on an exhausted pool used to
// raise hsa::HsaError, which escaped the worker and aborted the whole run.
// With admission still letting the pool run out (4 tenants, Legacy Copy,
// 2 x 512 MB sockets, 2 ms interarrival, arrival seed 1), the run must
// complete, keep every tenant's books, and fail those jobs as OutOfMemory.
TEST(ServiceTest, PoolExhaustionFailsJobsAsOutOfMemory) {
  ServiceParams p;
  p.config.tenants = 4;
  p.config.policy = ServicePolicy::Full;
  p.workers = 4;
  p.arrival.tenants = 4;
  p.arrival.sockets = 2;
  p.arrival.jobs = 180;
  p.arrival.base_interarrival = sim::Duration::microseconds(2000);
  p.arrival.kernel_compute = sim::Duration::microseconds(50);
  p.arrival.seed = 1;
  p.base.config = omp::RuntimeConfig::LegacyCopy;
  p.base.seed = 1;
  apu::Topology t;
  t.sockets = 2;
  t.hbm_bytes = 512ULL << 20;
  p.base.topology = t;

  const ServiceResult r = run_service(p);
  expect_conservation(r);
  EXPECT_EQ(r.checksum_divergences, 0u);
  std::uint64_t failed = 0;
  for (const auto& j : r.jobs) {
    if (j.outcome == trace::ServiceJobOutcome::Failed) {
      ++failed;
      EXPECT_EQ(j.error, "out-of-memory") << "tenant " << j.tenant << " job "
                                          << j.job;
    } else {
      EXPECT_TRUE(j.error.empty());
    }
  }
  EXPECT_GT(failed, 0u);
}

}  // namespace
}  // namespace zc::service
