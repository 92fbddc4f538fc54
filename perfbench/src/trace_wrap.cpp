// Link-time span wrappers of the traced build. CMakeLists.txt passes the
// linker `--wrap=<symbol>` for every mangled symbol named in this file, so
// each call into one of these entry points from another object file lands
// in the `__wrap_` function below, which opens a span of the entry point's
// layer and calls the original through `__real_`. Member functions are
// declared as free functions taking `this` first: the Itanium C++ ABI
// passes both alike, hidden return-slot pointer included.
//
// Calls made inside the object file that defines the entry point are not
// redirected, so the counters below count calls that cross object files.
// The wrapper types come from the declarations (see `Fn`), so a changed
// signature fails to compile and a renamed symbol fails to link; update the
// mangled name here when that happens.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "zc/check/analyzer.hpp"
#include "zc/check/ir.hpp"
#include "zc/core/offload_runtime.hpp"
#include "zc/hsa/runtime.hpp"
#include "zc/mem/memory_system.hpp"
#include "zc/race/detector.hpp"
#include "zc/service/arrival.hpp"
#include "zc/service/queues.hpp"
#include "zc/service/service.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/sim/timeline.hpp"
#include "zc/workloads/service_jobs.hpp"

namespace perfbench {

bool traced_build() { return true; }

}  // namespace perfbench

namespace {

using perfbench::Layer;
namespace spans = perfbench::spans;

/// One open span for the lifetime of the wrapper call (exceptions too).
class Span {
 public:
  Span(Layer layer, const char* what) : on_{spans::active()} {
    if (on_) {
      spans::enter(layer, what);
    }
  }
  Span(Layer layer, const char* what, const char* counter) : Span{layer, what} {
    if (on_) {
      spans::count(counter);
    }
  }
  ~Span() {
    if (on_) {
      spans::exit();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Forwards the scheduler's concurrency hooks to the race detector inside
/// race spans (the hooks are virtual calls, which `--wrap` cannot see).
class RaceHooksProxy final : public zc::sim::ConcurrencyHooks {
 public:
  explicit RaceHooksProxy(zc::sim::ConcurrencyHooks& inner) : inner_{inner} {}

  void on_spawn(int parent_id, int child_id) override {
    const Span s{Layer::Race, "race.on_spawn"};
    inner_.on_spawn(parent_id, child_id);
  }
  void on_finish(int thread_id) override {
    const Span s{Layer::Race, "race.on_finish"};
    inner_.on_finish(thread_id);
  }
  void on_release(const void* obj, zc::sim::SyncKind kind) override {
    const Span s{Layer::Race, "race.on_release"};
    inner_.on_release(obj, kind);
  }
  void on_acquire(const void* obj, zc::sim::SyncKind kind) override {
    const Span s{Layer::Race, "race.on_acquire"};
    inner_.on_acquire(obj, kind);
  }
  void on_lock_acquired(const zc::sim::Mutex& m) override {
    const Span s{Layer::Race, "race.on_lock_acquired"};
    inner_.on_lock_acquired(m);
  }
  void on_access(const void* addr, std::size_t bytes, std::string_view what,
                 bool is_write) override {
    const Span s{Layer::Race, "race.on_access"};
    inner_.on_access(addr, bytes, what, is_write);
  }
  int on_task_begin(std::string_view what, int device) override {
    const Span s{Layer::Race, "race.on_task_begin"};
    return inner_.on_task_begin(what, device);
  }
  void on_task_pages(int task, std::uint64_t first_page, std::uint64_t pages,
                     bool is_write, std::string_view what) override {
    const Span s{Layer::Race, "race.on_task_pages"};
    inner_.on_task_pages(task, first_page, pages, is_write, what);
  }
  void on_host_pages(std::uint64_t first_page, std::uint64_t pages,
                     bool is_write, std::string_view what) override {
    const Span s{Layer::Race, "race.on_host_pages"};
    inner_.on_host_pages(first_page, pages, is_write, what);
  }
  void on_task_acquire(int task, const void* obj) override {
    const Span s{Layer::Race, "race.on_task_acquire"};
    inner_.on_task_acquire(task, obj);
  }
  void on_task_end(int task, const void* completion_obj) override {
    const Span s{Layer::Race, "race.on_task_end"};
    inner_.on_task_end(task, completion_obj);
  }

 private:
  zc::sim::ConcurrencyHooks& inner_;
};

/// Proxies outlive their detectors: the scheduler keeps the last hooks
/// pointer until it is destroyed, right after the detector, and makes no
/// hook call in between.
std::vector<std::unique_ptr<RaceHooksProxy>>& race_proxies() {
  static std::vector<std::unique_ptr<RaceHooksProxy>> proxies;
  return proxies;
}

}  // namespace

namespace sim = zc::sim;
namespace mem = zc::mem;
namespace hsa = zc::hsa;
namespace omp = zc::omp;
namespace chk = zc::check;
namespace svc = zc::service;

// Signature of a wrapped function, read from its declaration so that the
// wrapper's parameter and return types cannot drift from the original's.
template <auto F>
struct Fn;
template <class R, class C, class... A, R (C::*F)(A...)>
struct Fn<F> {
  using Ret = R;
  using Self = C*;
  using Args = std::tuple<A...>;
};
template <class R, class C, class... A, R (C::*F)(A...) const>
struct Fn<F> {
  using Ret = R;
  using Self = const C*;
  using Args = std::tuple<A...>;
};
template <class R, class... A, R (*F)(A...)>
struct Fn<F> {
  using Ret = R;
  using Args = std::tuple<A...>;
};
template <auto F, std::size_t I>
using Arg = std::tuple_element_t<I, typename Fn<F>::Args>;

// Forward argument I: by-value parameters move, references pass through.
#define PB_FWD(F, I) static_cast<Arg<F, I>&&>(a##I)

#define PB_DEFINE(LAYER, NAME, COUNTER, SYM, F, PARAMS, ARGS) \
  extern "C" Fn<F>::Ret __real_##SYM PARAMS;                  \
  extern "C" Fn<F>::Ret __wrap_##SYM PARAMS {                 \
    const Span span{Layer::LAYER, NAME, COUNTER};             \
    return __real_##SYM ARGS;                                 \
  }

#define PB_MEMBER0(L, N, C, SYM, F) \
  PB_DEFINE(L, N, C, SYM, F, (Fn<F>::Self self), (self))
#define PB_MEMBER1(L, N, C, SYM, F)                                      \
  PB_DEFINE(L, N, C, SYM, F, (Fn<F>::Self self, Arg<F, 0> a0), \
            (self, PB_FWD(F, 0)))
#define PB_MEMBER2(L, N, C, SYM, F)                                  \
  PB_DEFINE(L, N, C, SYM, F,                                         \
            (Fn<F>::Self self, Arg<F, 0> a0, Arg<F, 1> a1), \
            (self, PB_FWD(F, 0), PB_FWD(F, 1)))
#define PB_MEMBER3(L, N, C, SYM, F)                                     \
  PB_DEFINE(L, N, C, SYM, F,                                            \
            (Fn<F>::Self self, Arg<F, 0> a0, Arg<F, 1> a1,     \
             Arg<F, 2> a2),                                             \
            (self, PB_FWD(F, 0), PB_FWD(F, 1), PB_FWD(F, 2)))
#define PB_MEMBER4(L, N, C, SYM, F)                                      \
  PB_DEFINE(L, N, C, SYM, F,                                             \
            (Fn<F>::Self self, Arg<F, 0> a0, Arg<F, 1> a1,      \
             Arg<F, 2> a2, Arg<F, 3> a3),                                \
            (self, PB_FWD(F, 0), PB_FWD(F, 1), PB_FWD(F, 2), PB_FWD(F, 3)))
#define PB_MEMBER6(L, N, C, SYM, F)                                       \
  PB_DEFINE(L, N, C, SYM, F,                                              \
            (Fn<F>::Self self, Arg<F, 0> a0, Arg<F, 1> a1,       \
             Arg<F, 2> a2, Arg<F, 3> a3, Arg<F, 4> a4, Arg<F, 5> a5),     \
            (self, PB_FWD(F, 0), PB_FWD(F, 1), PB_FWD(F, 2), PB_FWD(F, 3), \
             PB_FWD(F, 4), PB_FWD(F, 5)))
#define PB_FREE1(L, N, C, SYM, F) \
  PB_DEFINE(L, N, C, SYM, F, (Arg<F, 0> a0), (PB_FWD(F, 0)))
#define PB_FREE2(L, N, C, SYM, F)                                  \
  PB_DEFINE(L, N, C, SYM, F, (Arg<F, 0> a0, Arg<F, 1> a1), \
            (PB_FWD(F, 0), PB_FWD(F, 1)))

// Private scheduler members cannot be named from here; their types are
// spelled out (scheduler.hpp: block_current, maybe_yield, wake).
#define PB_WRAP_RAW(LAYER, NAME, COUNTER, SYM, RET, PARAMS, ARGS) \
  extern "C" RET __real_##SYM PARAMS;                             \
  extern "C" RET __wrap_##SYM PARAMS {                            \
    const Span span{Layer::LAYER, NAME, COUNTER};                 \
    return __real_##SYM ARGS;                                     \
  }

// clang-format off

// --- sim: scheduler loop, blocking and wake-ups ------------------------------
PB_MEMBER0(Sim, "sim.run", "sim.run",
    _ZN2zc3sim9Scheduler3runEv,
    &sim::Scheduler::run)
PB_MEMBER1(Sim, "sim.sleep_for", "sim.sleep_for",
    _ZN2zc3sim9Scheduler9sleep_forENS0_8DurationE,
    &sim::Scheduler::sleep_for)
PB_WRAP_RAW(Sim, "sim.block_current", "sim.block_current", _ZN2zc3sim9Scheduler13block_currentEv, void, (sim::Scheduler* self), (self))
PB_MEMBER0(Sim, "sim.reschedule", "sim.reschedule",
    _ZN2zc3sim9Scheduler10rescheduleEv,
    &sim::Scheduler::reschedule)
PB_WRAP_RAW(Sim, "sim.maybe_yield", "sim.maybe_yield", _ZN2zc3sim9Scheduler11maybe_yieldEv, void, (sim::Scheduler* self), (self))
PB_WRAP_RAW(Sim, "sim.wake", "sim.wake", _ZN2zc3sim9Scheduler4wakeERNS0_13VirtualThreadENS0_9TimePointE, void, (sim::Scheduler* self, sim::VirtualThread& t, sim::TimePoint at), (self, t, at))
PB_MEMBER2(Sim, "sim.wait", "sim.wait",
    _ZN2zc3sim8WaitList4waitERNS0_9SchedulerESt17basic_string_viewIcSt11char_traitsIcEE,
    &sim::WaitList::wait)
PB_MEMBER3(Sim, "sim.wait_for", "sim.wait_for",
    _ZN2zc3sim8WaitList8wait_forERNS0_9SchedulerENS0_8DurationESt17basic_string_viewIcSt11char_traitsIcEE,
    &sim::WaitList::wait_for)
PB_MEMBER2(Sim, "sim.notify_all", "sim.notify_all",
    _ZN2zc3sim8WaitList10notify_allERNS0_9SchedulerENS0_9TimePointE,
    &sim::WaitList::notify_all)
PB_MEMBER3(Sim, "sim.notify_one", "sim.notify_one",
    _ZN2zc3sim8WaitList10notify_oneERNS0_9SchedulerEPNS0_13VirtualThreadENS0_9TimePointE,
    &sim::WaitList::notify_one)
PB_MEMBER2(Sim, "sim.reserve", "sim.reserve",
    _ZN2zc3sim16ResourceTimeline7reserveENS0_9TimePointENS0_8DurationE,
    &sim::ResourceTimeline::reserve)

// --- mem: address space, page tables, TLB, residency -------------------------
PB_MEMBER1(Mem, "mem.find", "mem.find_calls",
    _ZN2zc3mem12AddressSpace4findENS0_8VirtAddrE,
    static_cast<mem::Allocation* (mem::AddressSpace::*)(mem::VirtAddr)>(&mem::AddressSpace::find))
PB_MEMBER1(Mem, "mem.find", "mem.find_calls",
    _ZNK2zc3mem12AddressSpace4findENS0_8VirtAddrE,
    static_cast<const mem::Allocation* (mem::AddressSpace::*)(mem::VirtAddr) const>(&mem::AddressSpace::find))
PB_MEMBER1(Mem, "mem.translate", "mem.translate",
    _ZN2zc3mem12AddressSpace9translateENS0_8VirtAddrE,
    &mem::AddressSpace::translate)
PB_MEMBER3(Mem, "mem.allocate", "mem.allocate",
    _ZN2zc3mem12AddressSpace8allocateEmNS0_7MemKindENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    &mem::AddressSpace::allocate)
PB_MEMBER1(Mem, "mem.free", "mem.free",
    _ZN2zc3mem12AddressSpace4freeENS0_8VirtAddrE,
    &mem::AddressSpace::free)
PB_MEMBER1(Mem, "mem.allocation_translate", "mem.allocation_translate",
    _ZN2zc3mem10Allocation9translateENS0_8VirtAddrE,
    &mem::Allocation::translate)
PB_MEMBER3(Mem, "mem.os_alloc", "mem.os_alloc",
    _ZN2zc3mem12MemorySystem8os_allocEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi,
    &mem::MemorySystem::os_alloc)
PB_MEMBER4(Mem, "mem.os_alloc_placed", "mem.os_alloc_placed",
    _ZN2zc3mem12MemorySystem15os_alloc_placedEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_9PlacementEi,
    &mem::MemorySystem::os_alloc_placed)
PB_MEMBER1(Mem, "mem.os_free", "mem.os_free",
    _ZN2zc3mem12MemorySystem7os_freeENS0_8VirtAddrE,
    &mem::MemorySystem::os_free)
PB_MEMBER3(Mem, "mem.pool_alloc", "mem.pool_alloc",
    _ZN2zc3mem12MemorySystem10pool_allocEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi,
    &mem::MemorySystem::pool_alloc)
PB_MEMBER3(Mem, "mem.try_pool_alloc", "mem.try_pool_alloc",
    _ZN2zc3mem12MemorySystem14try_pool_allocEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi,
    &mem::MemorySystem::try_pool_alloc)
PB_MEMBER2(Mem, "mem.pool_fits", "mem.pool_fits",
    _ZNK2zc3mem12MemorySystem9pool_fitsEmi,
    &mem::MemorySystem::pool_fits)
PB_MEMBER1(Mem, "mem.pool_free", "mem.pool_free",
    _ZN2zc3mem12MemorySystem9pool_freeENS0_8VirtAddrE,
    &mem::MemorySystem::pool_free)
PB_MEMBER2(Mem, "mem.host_touch", "mem.host_touch",
    _ZN2zc3mem12MemorySystem10host_touchENS0_9AddrRangeEi,
    &mem::MemorySystem::host_touch)
PB_MEMBER2(Mem, "mem.gpu_absent_pages", "mem.gpu_absent_pages",
    _ZNK2zc3mem12MemorySystem16gpu_absent_pagesENS0_9AddrRangeEi,
    static_cast<std::uint64_t (mem::MemorySystem::*)(mem::AddrRange, int) const>(&mem::MemorySystem::gpu_absent_pages))
PB_MEMBER3(Mem, "mem.gpu_absent_pages", "mem.gpu_absent_pages",
    _ZNK2zc3mem12MemorySystem16gpu_absent_pagesENS0_9AddrRangeEiPNS0_10AllocationE,
    static_cast<std::uint64_t (mem::MemorySystem::*)(mem::AddrRange, int, mem::Allocation*) const>(&mem::MemorySystem::gpu_absent_pages))
PB_MEMBER1(Mem, "mem.cpu_resident_pages", "mem.cpu_resident_pages",
    _ZNK2zc3mem12MemorySystem18cpu_resident_pagesENS0_9AddrRangeE,
    &mem::MemorySystem::cpu_resident_pages)
PB_MEMBER2(Mem, "mem.remote_pages", "mem.remote_pages",
    _ZNK2zc3mem12MemorySystem12remote_pagesENS0_9AddrRangeEi,
    &mem::MemorySystem::remote_pages)
PB_MEMBER2(Mem, "mem.migrate_pages", "mem.migrate_pages",
    _ZN2zc3mem12MemorySystem13migrate_pagesENS0_9AddrRangeEi,
    &mem::MemorySystem::migrate_pages)
PB_MEMBER2(Mem, "mem.gpu_fault_in", "mem.gpu_fault_in",
    _ZN2zc3mem12MemorySystem12gpu_fault_inENS0_9AddrRangeEi,
    &mem::MemorySystem::gpu_fault_in)
PB_MEMBER2(Mem, "mem.prefault", "mem.prefault",
    _ZN2zc3mem12MemorySystem8prefaultENS0_9AddrRangeEi,
    &mem::MemorySystem::prefault)
PB_MEMBER2(Mem, "mem.tlb_access", "mem.tlb_access",
    _ZN2zc3mem12MemorySystem10tlb_accessENS0_9AddrRangeEi,
    &mem::MemorySystem::tlb_access)
PB_MEMBER1(Mem, "mem.count_absent", "mem.count_absent",
    _ZNK2zc3mem9PageTable12count_absentENS0_9AddrRangeE,
    &mem::PageTable::count_absent)
PB_MEMBER1(Mem, "mem.insert_range", "mem.insert_range",
    _ZN2zc3mem9PageTable12insert_rangeENS0_9AddrRangeE,
    &mem::PageTable::insert_range)
PB_MEMBER1(Mem, "mem.remove_range", "mem.remove_range",
    _ZN2zc3mem9PageTable12remove_rangeENS0_9AddrRangeE,
    &mem::PageTable::remove_range)
PB_MEMBER1(Mem, "mem.tlb_access_range", "mem.tlb_access_range",
    _ZN2zc3mem3Tlb12access_rangeENS0_9AddrRangeE,
    &mem::Tlb::access_range)
PB_MEMBER1(Mem, "mem.tlb_invalidate_range", "mem.tlb_invalidate_range",
    _ZN2zc3mem3Tlb16invalidate_rangeENS0_9AddrRangeE,
    &mem::Tlb::invalidate_range)
PB_MEMBER0(Mem, "mem.tlb_invalidate_all", "mem.tlb_invalidate_all",
    _ZN2zc3mem3Tlb14invalidate_allEv,
    &mem::Tlb::invalidate_all)

// --- hsa: signals, pools, copies, prefaults, dispatch ------------------------
PB_MEMBER0(Hsa, "hsa.signal_create", "hsa.signal_create",
    _ZN2zc3hsa7Runtime13signal_createEv,
    &hsa::Runtime::signal_create)
PB_MEMBER1(Hsa, "hsa.signal_wait_scacquire", "hsa.signal_wait_scacquire",
    _ZN2zc3hsa7Runtime21signal_wait_scacquireENS0_6SignalE,
    &hsa::Runtime::signal_wait_scacquire)
PB_MEMBER4(Hsa, "hsa.memory_pool_allocate", "hsa.memory_pool_allocate",
    _ZN2zc3hsa7Runtime20memory_pool_allocateEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEbi,
    &hsa::Runtime::memory_pool_allocate)
PB_MEMBER4(Hsa, "hsa.try_memory_pool_allocate", "hsa.try_memory_pool_allocate",
    _ZN2zc3hsa7Runtime24try_memory_pool_allocateEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEbi,
    &hsa::Runtime::try_memory_pool_allocate)
PB_MEMBER1(Hsa, "hsa.memory_pool_free", "hsa.memory_pool_free",
    _ZN2zc3hsa7Runtime16memory_pool_freeENS_3mem8VirtAddrE,
    &hsa::Runtime::memory_pool_free)
PB_MEMBER6(Hsa, "hsa.memory_async_copy", "hsa.memory_async_copy",
    _ZN2zc3hsa7Runtime17memory_async_copyENS_3mem8VirtAddrES3_mbbi,
    &hsa::Runtime::memory_async_copy)
PB_MEMBER2(Hsa, "hsa.svm_attributes_set_prefault", "hsa.svm_attributes_set_prefault",
    _ZN2zc3hsa7Runtime27svm_attributes_set_prefaultENS_3mem9AddrRangeEi,
    &hsa::Runtime::svm_attributes_set_prefault)
PB_MEMBER2(Hsa, "hsa.try_svm_attributes_set_prefault", "hsa.try_svm_attributes_set_prefault",
    _ZN2zc3hsa7Runtime31try_svm_attributes_set_prefaultENS_3mem9AddrRangeEi,
    &hsa::Runtime::try_svm_attributes_set_prefault)
PB_MEMBER2(Hsa, "hsa.migrate_pages", "hsa.migrate_pages",
    _ZN2zc3hsa7Runtime13migrate_pagesENS_3mem9AddrRangeEi,
    &hsa::Runtime::migrate_pages)
PB_MEMBER4(Hsa, "hsa.dispatch_kernel", "hsa.dispatch_kernel",
    _ZN2zc3hsa7Runtime15dispatch_kernelERKNS0_12KernelLaunchEiNS_3sim9TimePointESt4spanIKNS0_6SignalELm18446744073709551615EE,
    &hsa::Runtime::dispatch_kernel)
PB_MEMBER2(Hsa, "hsa.run_kernel", "hsa.run_kernel",
    _ZN2zc3hsa7Runtime10run_kernelERKNS0_12KernelLaunchEi,
    &hsa::Runtime::run_kernel)

// --- core: the OpenMP offload runtime's entry points -------------------------
PB_MEMBER3(Core, "core.host_alloc", "core.host_alloc",
    _ZN2zc3omp14OffloadRuntime10host_allocEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi,
    &omp::OffloadRuntime::host_alloc)
PB_MEMBER4(Core, "core.host_alloc_placed", "core.host_alloc_placed",
    _ZN2zc3omp14OffloadRuntime17host_alloc_placedEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_3mem9PlacementEi,
    &omp::OffloadRuntime::host_alloc_placed)
PB_MEMBER1(Core, "core.host_free", "core.host_free",
    _ZN2zc3omp14OffloadRuntime9host_freeENS_3mem8VirtAddrE,
    &omp::OffloadRuntime::host_free)
PB_MEMBER1(Core, "core.host_first_touch", "core.host_first_touch",
    _ZN2zc3omp14OffloadRuntime16host_first_touchENS_3mem9AddrRangeE,
    &omp::OffloadRuntime::host_first_touch)
PB_MEMBER1(Core, "core.host_read", "core.host_read",
    _ZN2zc3omp14OffloadRuntime9host_readENS_3mem9AddrRangeE,
    &omp::OffloadRuntime::host_read)
PB_MEMBER2(Core, "core.target_data_begin", "core.target_data_begin",
    _ZN2zc3omp14OffloadRuntime17target_data_beginESt4spanIKNS0_8MapEntryELm18446744073709551615EEi,
    &omp::OffloadRuntime::target_data_begin)
PB_MEMBER2(Core, "core.target_data_end", "core.target_data_end",
    _ZN2zc3omp14OffloadRuntime15target_data_endESt4spanIKNS0_8MapEntryELm18446744073709551615EEi,
    &omp::OffloadRuntime::target_data_end)
PB_MEMBER2(Core, "core.target_enter_data", "core.target_enter_data",
    _ZN2zc3omp14OffloadRuntime17target_enter_dataESt4spanIKNS0_8MapEntryELm18446744073709551615EEi,
    &omp::OffloadRuntime::target_enter_data)
PB_MEMBER2(Core, "core.target_exit_data", "core.target_exit_data",
    _ZN2zc3omp14OffloadRuntime16target_exit_dataESt4spanIKNS0_8MapEntryELm18446744073709551615EEi,
    &omp::OffloadRuntime::target_exit_data)
PB_MEMBER2(Core, "core.target_update_to", "core.target_update_to",
    _ZN2zc3omp14OffloadRuntime16target_update_toERKNS0_8MapEntryEi,
    &omp::OffloadRuntime::target_update_to)
PB_MEMBER2(Core, "core.target_update_from", "core.target_update_from",
    _ZN2zc3omp14OffloadRuntime18target_update_fromERKNS0_8MapEntryEi,
    &omp::OffloadRuntime::target_update_from)
PB_MEMBER1(Core, "core.target", "core.target_calls",
    _ZN2zc3omp14OffloadRuntime6targetERKNS0_12TargetRegionE,
    &omp::OffloadRuntime::target)
PB_MEMBER2(Core, "core.target_nowait", "core.target_calls",
    _ZN2zc3omp14OffloadRuntime13target_nowaitERKNS0_12TargetRegionESt4spanIPKNS0_10TargetTaskELm18446744073709551615EE,
    &omp::OffloadRuntime::target_nowait)
PB_MEMBER1(Core, "core.target_wait", "core.target_wait",
    _ZN2zc3omp14OffloadRuntime11target_waitERNS0_10TargetTaskE,
    &omp::OffloadRuntime::target_wait)
PB_MEMBER3(Core, "core.device_alloc", "core.device_alloc",
    _ZN2zc3omp14OffloadRuntime12device_allocEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi,
    &omp::OffloadRuntime::device_alloc)
PB_MEMBER1(Core, "core.device_free", "core.device_free",
    _ZN2zc3omp14OffloadRuntime11device_freeENS_3mem8VirtAddrE,
    &omp::OffloadRuntime::device_free)
PB_MEMBER3(Core, "core.target_memcpy", "core.target_memcpy",
    _ZN2zc3omp14OffloadRuntime13target_memcpyENS_3mem8VirtAddrES3_m,
    &omp::OffloadRuntime::target_memcpy)
PB_MEMBER2(Core, "core.migrate_to_device", "core.migrate_to_device",
    _ZN2zc3omp14OffloadRuntime17migrate_to_deviceENS_3mem9AddrRangeEi,
    &omp::OffloadRuntime::migrate_to_device)

// --- check: offload-IR recording and the static analysis ---------------------
PB_FREE2(Check, "check.analyze", "check.analyze",
    _ZN2zc5check7analyzeERKNS0_9OffloadIRENS_3omp13RuntimeConfigE,
    &chk::analyze)
PB_MEMBER2(Check, "check.record", "check.record",
    _ZN2zc5check8Recorder6recordERNS_3sim9SchedulerENS0_4IrOpE,
    &chk::Recorder::record)
PB_MEMBER0(Check, "check.build", "check.build",
    _ZNK2zc5check8Recorder5buildEv,
    &chk::Recorder::build)
PB_MEMBER1(Check, "check.issue_token", "check.issue_token",
    _ZN2zc5check8Recorder11issue_tokenERNS_3sim9SchedulerE,
    &chk::Recorder::issue_token)
PB_MEMBER1(Check, "check.push_suppress", "check.push_suppress",
    _ZN2zc5check8Recorder13push_suppressERNS_3sim9SchedulerE,
    &chk::Recorder::push_suppress)
PB_MEMBER1(Check, "check.pop_suppress", "check.pop_suppress",
    _ZN2zc5check8Recorder12pop_suppressERNS_3sim9SchedulerE,
    &chk::Recorder::pop_suppress)
PB_MEMBER4(Check, "check.add_buffer", "check.add_buffer",
    _ZN2zc5check8Recorder10add_bufferERNS_3sim9SchedulerENS_3mem9AddrRangeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_7BufKindE,
    &chk::Recorder::add_buffer)
PB_MEMBER2(Check, "check.add_global", "check.add_global",
    _ZN2zc5check8Recorder10add_globalENS_3mem9AddrRangeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    &chk::Recorder::add_global)

// --- service: the run, arrivals, DRR queues ----------------------------------
PB_FREE1(Service, "service.run_service", "service.run_service",
    _ZN2zc7service11run_serviceERKNS0_13ServiceParamsE,
    &svc::run_service)
PB_MEMBER0(Service, "service.arrival_next", "service.arrival_next",
    _ZN2zc7service14ArrivalProcess4nextEv,
    &svc::ArrivalProcess::next)
PB_MEMBER1(Service, "service.drr_push", "service.drr_push",
    _ZN2zc7service12DrrScheduler4pushERKNS0_9QueuedJobE,
    &svc::DrrScheduler::push)
PB_MEMBER1(Service, "service.drr_push_front", "service.drr_push_front",
    _ZN2zc7service12DrrScheduler10push_frontERKNS0_9QueuedJobE,
    &svc::DrrScheduler::push_front)
PB_MEMBER2(Service, "service.drr_pop", "service.drr_pop",
    _ZN2zc7service12DrrScheduler3popENS_3sim9TimePointERKSt6vectorIcSaIcEE,
    &svc::DrrScheduler::pop)

// --- workloads: a service job's own body, run on a service worker ------------
PB_FREE2(Workloads, "workloads.run_service_job", "workloads.run_service_job",
    _ZN2zc9workloads15run_service_jobERNS_3omp12OffloadStackERKNS0_14ServiceJobSpecE,
    &zc::workloads::run_service_job)

// clang-format on

// --- context switches, fiber creation and the race detector ------------------

extern "C" void __real__ZN2zc3sim5Fiber6resumeEv(sim::Fiber* self);
extern "C" void __wrap__ZN2zc3sim5Fiber6resumeEv(sim::Fiber* self) {
  if (!spans::active()) {
    __real__ZN2zc3sim5Fiber6resumeEv(self);
    return;
  }
  // Restores the resumer as the running context, on unwinding too.
  struct Resumed {
    const void* previous;
    ~Resumed() { (void)spans::switch_to(previous); }
  };
  const Resumed guard{spans::switch_to(self)};
  __real__ZN2zc3sim5Fiber6resumeEv(self);
}

extern "C" sim::VirtualThread& __real__ZN2zc3sim9Scheduler5spawnENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE(
    sim::Scheduler* self, std::string name, std::function<void()> body);
extern "C" sim::VirtualThread& __wrap__ZN2zc3sim9Scheduler5spawnENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE(
    sim::Scheduler* self, std::string name, std::function<void()> body) {
  if (!spans::active()) {
    return __real__ZN2zc3sim9Scheduler5spawnENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE(
        self, std::move(name), std::move(body));
  }
  // The new virtual thread's own code belongs to the layer that spawned it.
  const Layer base = spans::current_layer();
  const Span span{Layer::Sim, "sim.spawn"};
  return __real__ZN2zc3sim9Scheduler5spawnENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE(
      self, std::move(name), [base, fn = std::move(body)] {
        spans::fiber_started(base);
        fn();
      });
}

extern "C" std::unique_ptr<zc::race::Detector> __real__ZN2zc4race13make_detectorERNS_3apu7MachineE(
    zc::apu::Machine& machine);
extern "C" std::unique_ptr<zc::race::Detector> __wrap__ZN2zc4race13make_detectorERNS_3apu7MachineE(
    zc::apu::Machine& machine) {
  std::unique_ptr<zc::race::Detector> detector =
      __real__ZN2zc4race13make_detectorERNS_3apu7MachineE(machine);
  if (detector != nullptr && spans::active() &&
      machine.sched().hooks() == detector.get()) {
    race_proxies().push_back(std::make_unique<RaceHooksProxy>(*detector));
    machine.sched().set_hooks(race_proxies().back().get());
  }
  return detector;
}
