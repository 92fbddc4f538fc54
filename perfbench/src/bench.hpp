#pragma once

// Shared declarations of the apuzc benchmark binary: the workload interface
// (cells.cpp), the independent reference computations (oracle.cpp) and the
// span recorder the traced build feeds (spans.cpp, trace_wrap.cpp).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "zc/service/service.hpp"
#include "zc/workloads/qmcpack.hpp"

namespace perfbench {

// --- workloads -------------------------------------------------------------

/// What one pass over a workload's cells produced, after its outputs were
/// checked. Everything here is a function of the inputs alone (simulated
/// time, counts), so every pass of a run must produce the same values.
struct PassResult {
  std::uint64_t attempted = 0;  ///< operations the pass attempted
  std::uint64_t failed = 0;     ///< operations whose check failed
  std::uint64_t kernels = 0;    ///< modelled kernel launches completed
  double sim_ms = 0.0;          ///< sum of the cells' simulated makespans
  /// Deterministic per-layer counts and simulated-time metrics, by name.
  std::map<std::string, double> counts;
  /// One line per failed check that is not a known fault.
  std::vector<std::string> errors;
  /// One line per operation group that failed from a known fault.
  std::vector<std::string> known_faults;
};

/// Host time of one pass: the wall seconds of its cells' simulations, and
/// of the reference kernel (reference.cpp) run after every cell.
struct PassClock {
  double host_s = 0.0;  ///< wall seconds spent simulating the cells
  double ref_s = 0.0;   ///< wall seconds of all reference-kernel runs
  int ref_runs = 0;

  /// Reference-kernel runs, at least one, until they took `min_s`.
  void reference(double min_s);
  /// Mean seconds of one reference-kernel run in this pass.
  [[nodiscard]] double ref_mean_s() const {
    return ref_runs > 0 ? ref_s / ref_runs : 0.0;
  }
};

/// Wall seconds of one run of the fixed host-speed reference kernel.
[[nodiscard]] double reference_kernel_s();

/// A workload: `prepare` generates the inputs and builds the programs,
/// `stack_probe` constructs (and drops) the first cell's OffloadStack —
/// together they are the set-up — and `run_pass` simulates every cell
/// once and checks the outputs against the oracles. Only the simulation
/// inside `run_pass` is timed as host time, into `clock`, with
/// reference-kernel runs after every cell.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  virtual void prepare(std::uint64_t seed) = 0;
  virtual void stack_probe() = 0;
  virtual PassResult run_pass(PassClock& clock) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Log-normal jitter on modelled costs; its RNG seed is the only input
/// `--seed` changes. Small enough that a seed seldom reorders two events
/// (so host work, memory peak and the jitter-free reference figures stay
/// put), large enough that every seed gives its own simulated times.
inline constexpr double kJitterSigma = 1e-6;

// --- reference computations, made apart from the simulator -----------------

/// Host-only recomputation of the QMCPack proxy's walker recurrence
/// (drift -> psi -> reduce1 -> acc over thread, walker and step).
[[nodiscard]] double qmcpack_reference_checksum(
    const zc::workloads::QmcpackParams& params);

/// Paper Table II: the Copy / zero-copy makespan ratios of a SPECaccel
/// proxy, in the order Implicit Z-C, Unified Shared Memory, Eager Maps.
struct PaperRow {
  const char* benchmark;
  double ratios[3];
};
/// The row of `benchmark` ("stencil", "lbm", "ep", "spC", "bt").
[[nodiscard]] const PaperRow& paper_table2(const std::string& benchmark);

/// Per-tenant (id-ordered) sums of `service_job_checksum` over the jobs the
/// arrival process offers, restricted to the ids in `completed[tenant]`.
[[nodiscard]] std::vector<double> service_reference_checksums(
    const zc::service::ArrivalParams& arrival,
    const std::vector<std::vector<std::uint64_t>>& completed,
    std::uint64_t page_bytes);

/// Linear-interpolation quantile of `v` (sorted in place); 0 when empty.
[[nodiscard]] double quantile(std::vector<double>& v, double q);

// --- tracing -----------------------------------------------------------------

/// Layers whose host time the traced build attributes. `Workloads` is the
/// remainder: program threads, runner glue and the benchmark's own code.
enum class Layer : std::uint8_t {
  Workloads,
  Sim,
  Mem,
  Hsa,
  Core,
  Race,
  Check,
  Service,
  kCount,
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);
[[nodiscard]] const char* layer_name(Layer layer);

/// True in the binary linked with the wrapped entry points.
[[nodiscard]] bool traced_build();

namespace spans {

/// Begin/end accounting for one pass. While on, every wrapped entry point
/// charges host time to its layer; self time is exclusive (a layer's span
/// time minus the spans it encloses, per virtual thread).
void begin_pass(bool record_spans);
/// Ends the pass and returns each layer's self milliseconds.
[[nodiscard]] std::vector<double> end_pass();
[[nodiscard]] bool active();

/// Calls counted at the wrappers during the current pass, by counter name.
[[nodiscard]] const std::map<std::string, std::uint64_t>& pass_counters();

/// Write the recorded spans of the first recorded pass as a Chrome trace.
void write_chrome_trace(const std::string& path);

// Used by trace_wrap.cpp.
void enter(Layer layer, const char* what);
void exit();
void count(const char* counter);
/// Make `fiber` (nullptr: the scheduler's own stack) the running virtual
/// thread; returns the one that was running.
const void* switch_to(const void* fiber);
/// A fiber's body starts: it inherits the layer that spawned it.
void fiber_started(Layer base);
[[nodiscard]] Layer current_layer();

}  // namespace spans

}  // namespace perfbench
