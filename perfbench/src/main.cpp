// apuzc benchmark binary: set up one workload several times, then simulate
// whole passes over its cells for a fixed host time, check every output,
// and print the metrics — human-readable lines, then one JSON object as
// the last line of standard output.
//
//   apuzc_perfbench --workload <name> --seed <n> --seconds <s>
//                   [--trace 0|1] [--plant <factor>] [--chrome <path>]
//
// --trace 1 needs the traced binary (apuzc_perfbench_traced) and reports
// the per-layer metrics instead of the end-to-end ones. --plant <factor>
// busy-waits after each pass so the pass takes <factor> times as long: a
// planted host slowdown for testing the host_s bound.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::PassResult;
using Clock = std::chrono::steady_clock;

/// Set-ups timed before every pass (set-up takes microseconds, so the
/// median needs many samples, spread over the run like the passes).
constexpr int kSetupsPerPass = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double plant = 1.0;
  std::string chrome;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "apuzc_perfbench: %s\nusage: apuzc_perfbench --workload <name> "
               "--seed <n> --seconds <s> [--trace 0|1] [--plant <factor>] "
               "[--chrome <path>]\nworkloads:",
               why.c_str());
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fputc('\n', stderr);
  std::exit(2);
}

[[nodiscard]] Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--plant") {
        a.plant = std::stod(value);
      } else if (flag == "--chrome") {
        a.chrome = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) {
    usage("--workload is required");
  }
  if (!(a.seconds > 0.0) || !(a.plant >= 1.0)) {
    usage("--seconds must be > 0 and --plant >= 1");
  }
  return a;
}

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Usage {
  double minflt = 0.0;
  double stime_s = 0.0;
  double utime_s = 0.0;
};

[[nodiscard]] Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_minflt),
          static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6,
          static_cast<double>(ru.ru_utime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec) * 1e-6};
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Busy-wait (the planted slowdown burns host CPU like real work would).
void spin_for(double seconds) {
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < seconds) {
  }
}

[[nodiscard]] bool same_outputs(const PassResult& a, const PassResult& b) {
  return a.attempted == b.attempted && a.failed == b.failed &&
         a.kernels == b.kernels && a.sim_ms == b.sim_ms &&
         a.counts == b.counts && a.errors == b.errors &&
         a.known_faults == b.known_faults;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Deterministic per-layer counts and simulated metrics (PassResult::counts).
const char* const kCounts[][2] = {
    {"sim.events", "count"},
    {"mem.tlb_misses", "count"},
    {"mem.gpu_page_faults", "count"},
    {"hsa.calls", "count"},
    {"hsa.pool_allocs", "count"},
    {"hsa.async_copies", "count"},
    {"hsa.copy_bytes", "B"},
    {"race.checked_stamps", "count"},
    {"race.pruned_stamps", "count"},
    {"service.admitted", "count"},
    {"service.completed", "count"},
    {"service.shed", "count"},
    {"adapt.decisions", "count"},
    {"core.mm_sim_ms", "ms"},
    {"core.mi_sim_ms", "ms"},
    {"hsa.signal_wait_sim_ms", "ms"},
    {"hsa.fault_stall_sim_ms", "ms"},
    {"hsa.tlb_stall_sim_ms", "ms"},
    {"paper_err", "1"},
    {"svc_sojourn_p50_ms", "ms"},
    {"svc_sojourn_p90_ms", "ms"},
    {"svc_goodput_jps", "1/s"},
};

/// Calls counted at the traced build's wrappers.
const char* const kWrapperCounts[] = {"mem.find_calls", "core.target_calls"};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  if (perfbench::make_workload(args.workload) == nullptr) {
    usage("unknown workload " + args.workload);
  }
  if (args.trace && !perfbench::traced_build()) {
    usage("--trace 1 needs the traced binary apuzc_perfbench_traced");
  }

  // --- set-up: inputs, programs, the first cell's stack. Repeated before
  // every pass too, so its median spans the run as host_s does ----------
  std::vector<double> setup_samples;
  const auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<perfbench::Workload> w =
        perfbench::make_workload(args.workload);
    w->prepare(args.seed);
    w->stack_probe();
    setup_samples.push_back(seconds_since(start));
    return w;
  };
  const std::unique_ptr<perfbench::Workload> workload = set_up();

  // --- passes: the first warms up; with --trace 1 timed passes alternate
  // between tracing on and off, so the run measures its own overhead ------
  const int min_passes = args.trace ? 3 : 2;
  const Clock::time_point run_start = Clock::now();
  std::vector<double> host_s;
  std::vector<double> host_ref;
  std::vector<double> ref_s;
  std::vector<double> traced_host_s;
  std::vector<double> minflt;
  std::vector<double> stime_s;
  std::vector<std::vector<double>> layer_ms(perfbench::kLayerCount);
  std::map<std::string, std::uint64_t> wrapper_counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  PassResult first;
  std::vector<std::string> errors;
  bool recorded = false;
  for (int pass = 0; pass < min_passes || seconds_since(run_start) < args.seconds;
       ++pass) {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      (void)set_up();
    }
    const bool traced = args.trace && pass % 2 == 1;
    if (traced) {
      perfbench::spans::begin_pass(!recorded);
      recorded = true;
    }
    const Usage before = usage_now();
    perfbench::PassClock clock;
    PassResult r = workload->run_pass(clock);
    const Usage after = usage_now();
    if (traced) {
      std::vector<double> ms = perfbench::spans::end_pass();
      // The reference kernel ran between cells, outside every layer.
      ms[static_cast<std::size_t>(perfbench::Layer::Workloads)] -=
          clock.ref_s * 1e3;
      for (int l = 0; l < perfbench::kLayerCount; ++l) {
        layer_ms[static_cast<std::size_t>(l)].push_back(
            ms[static_cast<std::size_t>(l)]);
      }
      wrapper_counts = perfbench::spans::pass_counters();
    }
    double sim_host_s = clock.host_s;
    if (args.plant > 1.0) {
      spin_for((args.plant - 1.0) * sim_host_s);
      sim_host_s *= args.plant;
    }
    attempted += r.attempted;
    failed += r.failed;
    if (pass == 0) {
      first = r;
      errors = r.errors;
      continue;  // warm-up: lazy allocator and page-cache state settle
    }
    if (!same_outputs(first, r)) {
      errors.push_back("pass " + std::to_string(pass) +
                       " differs from pass 0: the simulation is not "
                       "deterministic");
    }
    if (traced) {
      traced_host_s.push_back(sim_host_s);
    } else {
      host_s.push_back(sim_host_s);
      host_ref.push_back(sim_host_s / clock.ref_mean_s());
      ref_s.push_back(clock.ref_mean_s());
    }
    minflt.push_back(after.minflt - before.minflt);
    stime_s.push_back(after.stime_s - before.stime_s);
  }

  // --- report --------------------------------------------------------------
  const double host = median(host_s);
  // The mean, not the median: a shared host switches between a faster and
  // a slower speed from pass to pass, and the median of such a two-humped
  // sample jumps between the humps where the mean moves smoothly.
  const double host_in_ref = mean(host_ref);
  const auto kernels = static_cast<double>(first.kernels);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_samples), "s"},
        {"host_ref", host_in_ref, "ref"},
        {"kernels_per_ref", host_in_ref > 0.0 ? kernels / host_in_ref : 0.0,
         "1/ref"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_ms", first.sim_ms, "ms"},
    };
  } else {
    metrics.push_back({"host_s", host, "s"});
    metrics.push_back(
        {"kernels_per_s", host > 0.0 ? kernels / host : 0.0, "1/s"});
    metrics.push_back({"ref_ms", median(ref_s) * 1e3, "ms"});
    for (int l = 0; l < perfbench::kLayerCount; ++l) {
      metrics.push_back(
          {std::string{perfbench::layer_name(static_cast<perfbench::Layer>(l))} +
               ".self_ms",
           median(layer_ms[static_cast<std::size_t>(l)]), "ms"});
    }
    const double traced_host = median(traced_host_s);
    metrics.push_back({"trace.host_s", traced_host, "s"});
    metrics.push_back({"trace.overhead_s", traced_host - host, "s"});
    metrics.push_back({"os.minflt", median(minflt), "count"});
    metrics.push_back({"os.stime_s", median(stime_s), "s"});
    for (const char* name : kWrapperCounts) {
      const auto it = wrapper_counts.find(name);
      metrics.push_back(
          {name,
           it == wrapper_counts.end() ? 0.0 : static_cast<double>(it->second),
           "count"});
    }
    for (const auto& [name, unit] : kCounts) {
      const auto it = first.counts.find(name);
      metrics.push_back(
          {name, it == first.counts.end() ? 0.0 : it->second, unit});
    }
    if (!args.chrome.empty()) {
      perfbench::spans::write_chrome_trace(args.chrome);
    }
  }

  const bool correct = errors.empty();
  std::printf("workload %s, seed %llu, %zu timed passes%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              host_s.size() + traced_host_s.size(),
              args.trace ? " (alternating traced/untraced)" : "");
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& f : first.known_faults) {
    std::printf("known fault: %s\n", f.c_str());
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const struct {
    const char* label;
    const std::vector<double>* values;
  } series[] = {{"untraced pass host seconds", &host_s},
                {"untraced pass host_ref", &host_ref},
                {"traced pass host seconds", &traced_host_s}};
  for (const auto& [label, values] : series) {
    if (!values->empty()) {
      std::printf("%s:", label);
      for (const double t : *values) {
        std::printf(" %.4f", t);
      }
      std::printf("\n");
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!args.trace) {
    // Raw host time, and the simulated per-workload metrics (deterministic),
    // so one untraced run shows every output.
    std::printf("  %-24s %.6g s\n  %-24s %.6g ms\n", "host_s", host,
                "ref_ms", median(ref_s) * 1e3);
    for (const auto& [name, unit] : kCounts) {
      const auto it = first.counts.find(name);
      std::printf("  %-24s %.6g %s\n", name,
                  it == first.counts.end() ? 0.0 : it->second, unit);
    }
  }
  print_json(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apuzc_perfbench: %s\n", e.what());
    return 1;
  }
}
