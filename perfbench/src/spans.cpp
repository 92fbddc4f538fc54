// In-memory span recorder of the traced build. Host time is charged to the
// innermost open span of the virtual thread that is running; a virtual
// thread that blocks stops charging until the scheduler resumes it, so a
// layer's self time is its span time minus its child spans, per thread.

#include <array>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Workloads:
      return "workloads";
    case Layer::Sim:
      return "sim";
    case Layer::Mem:
      return "mem";
    case Layer::Hsa:
      return "hsa";
    case Layer::Core:
      return "core";
    case Layer::Race:
      return "race";
    case Layer::Check:
      return "check";
    case Layer::Service:
      return "service";
    case Layer::kCount:
      break;
  }
  return "?";
}

namespace spans {

namespace {

using Clock = std::chrono::steady_clock;

/// Spans kept for the Chrome trace (the first recorded pass only).
constexpr std::size_t kMaxRecordedSpans = 200000;

struct Context {
  Layer base = Layer::Workloads;
  std::vector<Layer> stack;
  std::vector<std::int64_t> open;  ///< recorded span index per open span
  int tid = 0;
};

struct SpanRecord {
  const char* what;
  Layer layer;
  int tid;
  std::int64_t begin_ns;
  std::int64_t end_ns;
};

struct State {
  bool on = false;
  bool record = false;
  std::int64_t last_ns = 0;
  std::array<std::int64_t, kLayerCount> self_ns{};
  Context main;
  std::unordered_map<const void*, Context> fibers;
  Context* current = &main;
  const void* current_id = nullptr;
  std::unordered_map<const char*, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> counters_by_name;
  std::vector<SpanRecord> recorded;
  int next_tid = 1;
};

State& state() {
  static State s;
  return s;
}

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Charge the time since the last event to the running context's layer.
void charge(State& s, std::int64_t t) {
  const Context& c = *s.current;
  const Layer l = c.stack.empty() ? c.base : c.stack.back();
  s.self_ns[static_cast<std::size_t>(l)] += t - s.last_ns;
  s.last_ns = t;
}

}  // namespace

void begin_pass(bool record_spans) {
  State& s = state();
  s.self_ns.fill(0);
  s.main = Context{};
  s.fibers.clear();
  s.current = &s.main;
  s.current_id = nullptr;
  s.counters.clear();
  s.record = record_spans;
  if (record_spans) {
    s.recorded.clear();
  }
  s.next_tid = 1;
  s.on = true;
  s.last_ns = now_ns();
}

std::vector<double> end_pass() {
  State& s = state();
  charge(s, now_ns());
  s.on = false;
  s.record = false;
  s.counters_by_name.clear();
  for (const auto& [name, n] : s.counters) {
    s.counters_by_name[name] += n;
  }
  std::vector<double> ms(kLayerCount);
  for (int i = 0; i < kLayerCount; ++i) {
    ms[static_cast<std::size_t>(i)] =
        static_cast<double>(s.self_ns[static_cast<std::size_t>(i)]) * 1e-6;
  }
  return ms;
}

bool active() { return state().on; }

const std::map<std::string, std::uint64_t>& pass_counters() {
  return state().counters_by_name;
}

void enter(Layer layer, const char* what) {
  State& s = state();
  const std::int64_t t = now_ns();
  charge(s, t);
  Context& c = *s.current;
  c.stack.push_back(layer);
  if (s.record && s.recorded.size() < kMaxRecordedSpans) {
    c.open.push_back(static_cast<std::int64_t>(s.recorded.size()));
    s.recorded.push_back({what, layer, c.tid, t, t});
  } else {
    c.open.push_back(-1);
  }
}

void exit() {
  State& s = state();
  const std::int64_t t = now_ns();
  charge(s, t);
  Context& c = *s.current;
  if (c.stack.empty()) {
    return;
  }
  c.stack.pop_back();
  const std::int64_t idx = c.open.back();
  c.open.pop_back();
  if (idx >= 0) {
    s.recorded[static_cast<std::size_t>(idx)].end_ns = t;
  }
}

void count(const char* counter) { ++state().counters[counter]; }

const void* switch_to(const void* fiber) {
  State& s = state();
  charge(s, now_ns());
  const void* previous = s.current_id;
  s.current_id = fiber;
  if (fiber == nullptr) {
    s.current = &s.main;
    return previous;
  }
  auto [it, inserted] = s.fibers.try_emplace(fiber);
  if (inserted) {
    it->second.tid = s.next_tid++;
  }
  s.current = &it->second;
  return previous;
}

void fiber_started(Layer base) {
  State& s = state();
  if (!s.on) {
    return;
  }
  charge(s, now_ns());
  Context& c = *s.current;
  c.base = base;
  c.stack.clear();
  c.open.clear();
}

Layer current_layer() {
  const Context& c = *state().current;
  return c.stack.empty() ? c.base : c.stack.back();
}

void write_chrome_trace(const std::string& path) {
  const State& s = state();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  const std::int64_t t0 = s.recorded.empty() ? 0 : s.recorded.front().begin_ns;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRecord& r : s.recorded) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",", r.what, layer_name(r.layer), r.tid,
                 static_cast<double>(r.begin_ns - t0) * 1e-3,
                 static_cast<double>(r.end_ns - r.begin_ns) * 1e-3);
    first = false;
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  std::fclose(f);
}

}  // namespace spans

}  // namespace perfbench
