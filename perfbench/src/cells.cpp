// The benchmark's five workloads. Each is a fixed list of simulation cells
// (program x runtime configuration); a pass runs every cell once, then
// checks every output against a computation made apart from the simulator.

#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/hsa/runtime.hpp"
#include "zc/workloads/spec.hpp"

namespace perfbench {

namespace {

using zc::omp::RuntimeConfig;
using zc::workloads::Program;
using zc::workloads::RunOptions;
using zc::workloads::RunResult;
using Clock = std::chrono::steady_clock;

constexpr RuntimeConfig kAllConfigs[] = {
    RuntimeConfig::LegacyCopy, RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::EagerMaps,
    RuntimeConfig::AdaptiveMaps};

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] RunOptions options_for(RuntimeConfig config,
                                     std::uint64_t seed) {
  RunOptions o;
  o.config = config;
  o.jitter.sigma = kJitterSigma;
  o.seed = seed;
  return o;
}

/// Reference-kernel time after a cell, as a share of the cell's time: long
/// cells get as many samples of the host's speed as short ones.
constexpr double kReferenceShare = 0.1;

/// Run one cell under `clock`: the cell, timed, then reference-kernel runs
/// for at least kReferenceShare of its time (at least one run).
template <class F>
void timed_cell(PassClock& clock, F&& cell) {
  const Clock::time_point start = Clock::now();
  cell();
  const double cell_s = seconds_since(start);
  clock.host_s += cell_s;
  clock.reference(kReferenceShare * cell_s);
}

/// Construct and drop the OffloadStack the first cell would run on.
void probe_stack(const RunOptions& options, const Program& program) {
  zc::apu::Machine::Config machine = zc::omp::OffloadStack::machine_config_for(
      options.config, options.jitter, options.seed);
  if (options.topology) {
    machine.topology = *options.topology;
  }
  const zc::omp::OffloadStack stack{
      std::move(machine),
      zc::omp::OffloadStack::program_for(options.config, program.binary)};
  (void)stack;
}

void add(PassResult& out, const std::string& name, double value) {
  out.counts[name] += value;
}

/// Fold one cell's telemetry into the pass's deterministic counts.
void add_run(PassResult& out, const RunResult& r) {
  using zc::trace::HsaCall;
  out.sim_ms += r.wall_time.ms();
  out.kernels += r.kernels.launches;
  add(out, "sim.events", static_cast<double>(r.sim_events));
  for (const zc::workloads::DeviceStats& d : r.devices) {
    add(out, "mem.tlb_misses", static_cast<double>(d.counters.tlb_misses));
    add(out, "mem.gpu_page_faults",
        static_cast<double>(d.counters.page_faults));
  }
  add(out, "hsa.calls", static_cast<double>(r.stats.total_calls()));
  add(out, "hsa.pool_allocs",
      static_cast<double>(r.stats.count(HsaCall::MemoryPoolAllocate)));
  add(out, "hsa.async_copies",
      static_cast<double>(r.stats.count(HsaCall::MemoryAsyncCopy)));
  add(out, "hsa.copy_bytes", static_cast<double>(r.copies.total_bytes));
  add(out, "hsa.signal_wait_sim_ms",
      r.stats.total_latency(HsaCall::SignalWaitScacquire).ms());
  add(out, "hsa.fault_stall_sim_ms", r.kernels.total_fault_stall.ms());
  add(out, "hsa.tlb_stall_sim_ms", r.kernels.total_tlb_stall.ms());
  add(out, "core.mm_sim_ms", r.ledger.mm().ms());
  add(out, "core.mi_sim_ms", r.ledger.mi().ms());
  add(out, "adapt.decisions",
      static_cast<double>(r.decisions.records().size()));
  add(out, "race.checked_stamps", static_cast<double>(r.race_checked_stamps));
  add(out, "race.pruned_stamps", static_cast<double>(r.race_pruned_stamps));
}

/// Record a failed check: the cell's operations count as failed.
void fail_cell(PassResult& out, std::uint64_t ops, std::string why) {
  out.failed += ops;
  out.errors.push_back(std::move(why));
}

// --- QMCPack ----------------------------------------------------------------

/// The QMCPack NiO proxy at S128, 8 host threads, 40 MC steps.
[[nodiscard]] zc::workloads::QmcpackParams qmcpack_params() {
  zc::workloads::QmcpackParams q;
  q.size = 128;
  q.threads = 8;
  q.steps = 40;
  return q;
}

/// One cell per configuration; `checked` adds an Implicit Z-C cell with the
/// pruned race detector and the static checker reporting.
class Qmcpack final : public Workload {
 public:
  Qmcpack(std::vector<RuntimeConfig> configs, bool checked)
      : configs_{std::move(configs)}, checked_{checked} {}

  void prepare(std::uint64_t seed) override {
    params_ = qmcpack_params();
    program_ = zc::workloads::make_qmcpack(params_);
    cells_.clear();
    for (const RuntimeConfig c : configs_) {
      cells_.push_back(options_for(c, seed));
    }
    if (checked_) {
      RunOptions o = options_for(RuntimeConfig::ImplicitZeroCopy, seed);
      o.race_check_spec = "report:pruned";
      o.check_spec = "report";
      cells_.push_back(std::move(o));
    }
    reference_ = qmcpack_reference_checksum(params_);
    launches_ = static_cast<std::uint64_t>(params_.threads) *
                static_cast<std::uint64_t>(params_.walkers_per_thread) *
                static_cast<std::uint64_t>(params_.steps) * 4U;
  }

  void stack_probe() override { probe_stack(cells_.front(), program_); }

  PassResult run_pass(PassClock& clock) override {
    std::vector<RunResult> runs;
    for (const RunOptions& o : cells_) {
      timed_cell(clock, [&] {
        runs.push_back(zc::workloads::run_program(program_, o));
      });
    }

    PassResult out;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      const std::string cell = std::string{zc::omp::to_string(r.config)} +
                               (cells_[i].check_spec.empty() ? "" : "+checks");
      out.attempted += launches_;
      add_run(out, r);
      if (r.checksum != reference_) {
        fail_cell(out, launches_,
                  cell + ": checksum " + std::to_string(r.checksum) +
                      " != host recomputation " + std::to_string(reference_));
      } else if (r.kernels.launches != launches_) {
        fail_cell(out, launches_,
                  cell + ": " + std::to_string(r.kernels.launches) +
                      " kernel launches, expected " +
                      std::to_string(launches_));
      } else if (!cells_[i].check_spec.empty() &&
                 (!r.races.empty() || !r.check.clean())) {
        fail_cell(out, launches_,
                  cell + ": " + std::to_string(r.races.size()) + " races, " +
                      std::to_string(r.check.findings.size()) + " findings");
      }
    }
    return out;
  }

 private:
  std::vector<RuntimeConfig> configs_;
  bool checked_;
  zc::workloads::QmcpackParams params_;
  Program program_;
  std::vector<RunOptions> cells_;
  double reference_ = 0.0;
  std::uint64_t launches_ = 0;
};

// --- SPECaccel ----------------------------------------------------------------

/// The five SPECaccel proxies at their default (ref-like) scale, each under
/// all five configurations.
class SpecAccel final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    const zc::workloads::StencilParams stencil;
    const zc::workloads::LbmParams lbm;
    const zc::workloads::EpParams ep;
    const zc::workloads::SpcParams spc;
    const zc::workloads::BtParams bt;
    // Closed forms of each proxy's functional checksum, and its launches.
    benches_.clear();
    benches_.push_back({"stencil", zc::workloads::make_stencil(stencil),
                        0.5 * stencil.iterations,
                        static_cast<std::uint64_t>(stencil.iterations)});
    benches_.push_back({"lbm", zc::workloads::make_lbm(lbm),
                        static_cast<double>(lbm.iterations),
                        static_cast<std::uint64_t>(lbm.iterations)});
    benches_.push_back({"ep", zc::workloads::make_ep(ep), 2.0 * ep.batches,
                        static_cast<std::uint64_t>(ep.batches) + 1U});
    benches_.push_back(
        {"spC", zc::workloads::make_spc(spc),
         static_cast<double>(spc.cycles * spc.kernels_per_cycle),
         static_cast<std::uint64_t>(spc.cycles * spc.kernels_per_cycle)});
    benches_.push_back(
        {"bt", zc::workloads::make_bt(bt),
         static_cast<double>(bt.cycles * bt.kernels_per_cycle),
         static_cast<std::uint64_t>(bt.cycles * bt.kernels_per_cycle)});
    seed_ = seed;
  }

  void stack_probe() override {
    probe_stack(options_for(kAllConfigs[0], seed_), benches_.front().program);
  }

  PassResult run_pass(PassClock& clock) override {
    std::vector<RunResult> runs;
    for (const Bench& b : benches_) {
      for (const RuntimeConfig c : kAllConfigs) {
        timed_cell(clock, [&] {
          runs.push_back(zc::workloads::run_program(b.program,
                                                    options_for(c, seed_)));
        });
      }
    }

    PassResult out;
    double err_sum = 0.0;
    int err_cells = 0;
    for (std::size_t bi = 0; bi < benches_.size(); ++bi) {
      const Bench& b = benches_[bi];
      const RunResult* by_config[5] = {};
      for (std::size_t ci = 0; ci < 5; ++ci) {
        const RunResult& r = runs[bi * 5 + ci];
        by_config[ci] = &r;
        const std::string cell =
            b.name + "/" + zc::omp::to_string(r.config);
        out.attempted += b.launches;
        add_run(out, r);
        const double mm = r.ledger.mm().us();
        const double mi = r.ledger.mi().us();
        if (r.checksum != b.checksum) {
          fail_cell(out, b.launches,
                    cell + ": checksum " + std::to_string(r.checksum) +
                        " != closed form " + std::to_string(b.checksum));
        } else if (r.kernels.launches != b.launches) {
          fail_cell(out, b.launches,
                    cell + ": " + std::to_string(r.kernels.launches) +
                        " launches, expected " + std::to_string(b.launches));
        } else if (r.config == RuntimeConfig::LegacyCopy && !(mm > 10.0 * mi)) {
          fail_cell(out, b.launches,
                    cell + ": Table III pattern broken, Copy MM " +
                        std::to_string(mm) + " us vs MI " +
                        std::to_string(mi) + " us");
        } else if ((r.config == RuntimeConfig::ImplicitZeroCopy ||
                    r.config == RuntimeConfig::UnifiedSharedMemory) &&
                   !(mi > 10.0 * mm)) {
          fail_cell(out, b.launches,
                    cell + ": Table III pattern broken, zero-copy MI " +
                        std::to_string(mi) + " us vs MM " +
                        std::to_string(mm) + " us");
        }
      }
      // Table II: Copy makespan over each zero-copy configuration's.
      const PaperRow& paper = paper_table2(b.name);
      const double copy = by_config[0]->wall_time.ms();
      const std::size_t zc_index[3] = {2, 1, 3};  // Z-C, USM, Eager
      for (int k = 0; k < 3; ++k) {
        const double ratio = copy / by_config[zc_index[k]]->wall_time.ms();
        err_sum += std::fabs(std::log(ratio / paper.ratios[k]));
        ++err_cells;
      }
    }
    add(out, "paper_err", err_cells > 0 ? err_sum / err_cells : 0.0);
    return out;
  }

 private:
  struct Bench {
    std::string name;
    Program program;
    double checksum;
    std::uint64_t launches;
  };
  std::vector<Bench> benches_;
  std::uint64_t seed_ = 1;
};

// --- service -----------------------------------------------------------------

/// Four tenants, full policy, 180 jobs at a 2 ms base interarrival on two
/// sockets. The arrival stream has its own fixed seed (1): the host cost of
/// a stream varies 2.5x between stream seeds, so `--seed` only reseeds the
/// machine's jitter. `capped_hbm` limits each socket to 512 MB.
[[nodiscard]] zc::service::ServiceParams service_params(
    RuntimeConfig config, bool capped_hbm, std::uint64_t machine_seed,
    double jitter_sigma) {
  zc::service::ServiceParams p;
  p.config.tenants = 4;
  p.config.policy = zc::apu::ServicePolicy::Full;
  p.workers = 4;
  p.arrival.tenants = 4;
  p.arrival.sockets = 2;
  p.arrival.jobs = 180;
  p.arrival.base_interarrival = zc::sim::Duration::microseconds(2000);
  p.arrival.kernel_compute = zc::sim::Duration::microseconds(50);
  p.arrival.seed = 1;
  p.base.config = config;
  p.base.seed = machine_seed;
  p.base.jitter.sigma = jitter_sigma;
  zc::apu::Topology t;
  t.sockets = 2;
  if (capped_hbm) {
    t.hbm_bytes = 512ULL << 20;
  }
  p.base.topology = t;
  return p;
}

/// Check one completed service run and fold its metrics into `out`.
void check_service(const std::string& cell, const zc::service::ServiceParams& p,
                   const zc::service::ServiceResult& r, PassResult& out) {
  using zc::trace::ServiceJobOutcome;
  const std::uint64_t offered_total = p.arrival.jobs;
  out.attempted += offered_total;
  add_run(out, r.run);

  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t offered = 0;
  double goodput = 0.0;
  std::vector<std::string> problems;
  for (const zc::workloads::TenantServiceStats& t : r.run.service_tenants) {
    offered += t.offered;
    admitted += t.admitted;
    completed += t.completed;
    shed += t.shed;
    failed += t.failed;
    goodput += t.goodput_jps;
    if (t.offered != t.admitted + t.shed ||
        t.admitted != t.completed + t.failed) {
      problems.push_back("tenant " + std::to_string(t.tenant) +
                         " does not conserve jobs");
    }
  }
  if (offered != offered_total) {
    problems.push_back(std::to_string(offered) + " jobs offered, expected " +
                       std::to_string(offered_total));
  }
  if (r.checksum_divergences != 0) {
    problems.push_back(std::to_string(r.checksum_divergences) +
                       " checksum divergences");
  }

  // Completed jobs: sojourn times, and checksums against the closed form.
  const auto tenants = static_cast<std::size_t>(p.config.tenants);
  std::vector<std::vector<std::uint64_t>> done(tenants);
  std::vector<double> sojourn_ms;
  for (const zc::trace::ServiceJobRecord& j : r.jobs) {
    if (j.outcome == ServiceJobOutcome::Completed &&
        static_cast<std::size_t>(j.tenant) < tenants) {
      done[static_cast<std::size_t>(j.tenant)].push_back(j.job);
      sojourn_ms.push_back(j.sojourn().ms());
    }
  }
  const std::uint64_t page =
      zc::omp::OffloadStack::machine_config_for(p.base.config)
          .env.page_bytes();
  const std::vector<double> expected =
      service_reference_checksums(p.arrival, done, page);
  for (const zc::workloads::TenantServiceStats& t : r.run.service_tenants) {
    const auto ti = static_cast<std::size_t>(t.tenant);
    if (ti >= tenants || done[ti].size() != t.completed ||
        expected[ti] != t.checksum) {
      problems.push_back("tenant " + std::to_string(t.tenant) +
                         " checksum differs from service_job_checksum");
    }
  }

  if (!problems.empty()) {
    std::string why = cell + ":";
    for (const std::string& s : problems) {
      why += " " + s + ";";
    }
    fail_cell(out, offered_total, std::move(why));
  } else {
    out.failed += shed + failed;
  }
  add(out, "service.admitted", static_cast<double>(admitted));
  add(out, "service.completed", static_cast<double>(completed));
  add(out, "service.shed", static_cast<double>(shed));
  add(out, "svc_sojourn_p50_ms", quantile(sojourn_ms, 0.50));
  add(out, "svc_sojourn_p90_ms", quantile(sojourn_ms, 0.90));
  add(out, "svc_goodput_jps", goodput);
}

/// `service`: the cell under Implicit Z-C on 512 MB sockets.
/// `service_copy`: the same service under Legacy Copy — the 512 MB cell,
/// which today aborts on an escaped hsa::HsaError, with machine seed 1 and
/// no jitter so it fails identically on every run; plus a seeded Legacy
/// Copy cell on full-size HBM that runs to completion and carries the
/// simulated metrics.
class Service final : public Workload {
 public:
  explicit Service(bool copy) : copy_{copy} {}

  void prepare(std::uint64_t seed) override {
    cells_.clear();
    if (copy_) {
      cells_.push_back(
          {"copy-512MB", service_params(RuntimeConfig::LegacyCopy, true, 1, 0.0),
           true});
      cells_.push_back({"copy-full-hbm",
                        service_params(RuntimeConfig::LegacyCopy, false, seed,
                                       kJitterSigma),
                        false});
    } else {
      cells_.push_back({"zero-copy-512MB",
                        service_params(RuntimeConfig::ImplicitZeroCopy, true,
                                       seed, kJitterSigma),
                        false});
    }
    // Generate the offered job streams (the oracle replays the same ones).
    for (const Cell& c : cells_) {
      zc::service::ArrivalProcess arrivals{c.params.arrival};
      while (!arrivals.done()) {
        (void)arrivals.next();
      }
    }
  }

  void stack_probe() override {
    Program program;
    program.binary.name = "service";
    probe_stack(cells_.front().params.base, program);
  }

  PassResult run_pass(PassClock& clock) override {
    struct Outcome {
      std::optional<zc::service::ServiceResult> result;
      std::string error;
      bool hsa_error = false;
    };
    std::vector<Outcome> outcomes(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      timed_cell(clock, [&] {
        try {
          outcomes[i].result = zc::service::run_service(cells_[i].params);
        } catch (const zc::hsa::HsaError& e) {
          outcomes[i].error = e.what();
          outcomes[i].hsa_error = true;
        } catch (const std::exception& e) {
          outcomes[i].error = e.what();
        }
      });
    }

    PassResult out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& c = cells_[i];
      const Outcome& o = outcomes[i];
      if (o.result) {
        check_service(c.name, c.params, *o.result, out);
        continue;
      }
      out.attempted += c.params.arrival.jobs;
      out.failed += c.params.arrival.jobs;
      if (c.known_fault && o.hsa_error) {
        out.known_faults.push_back(
            c.name + ": hsa::HsaError escaped run_service: " + o.error);
      } else {
        out.errors.push_back(c.name + ": run_service threw: " + o.error);
      }
    }
    return out;
  }

 private:
  struct Cell {
    std::string name;
    zc::service::ServiceParams params;
    bool known_fault;  ///< an escaped hsa::HsaError here is the known fault
  };
  bool copy_;
  std::vector<Cell> cells_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "qmcpack_copy", "qmcpack_zerocopy", "specaccel", "service",
      "service_copy"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "qmcpack_copy") {
    return std::make_unique<Qmcpack>(
        std::vector<RuntimeConfig>{RuntimeConfig::LegacyCopy}, false);
  }
  if (name == "qmcpack_zerocopy") {
    return std::make_unique<Qmcpack>(
        std::vector<RuntimeConfig>{RuntimeConfig::UnifiedSharedMemory,
                                   RuntimeConfig::ImplicitZeroCopy,
                                   RuntimeConfig::EagerMaps,
                                   RuntimeConfig::AdaptiveMaps},
        true);
  }
  if (name == "specaccel") {
    return std::make_unique<SpecAccel>();
  }
  if (name == "service") {
    return std::make_unique<Service>(false);
  }
  if (name == "service_copy") {
    return std::make_unique<Service>(true);
  }
  return nullptr;
}

}  // namespace perfbench
