#pragma once

#include <cstdint>
#include <string_view>

#include "zc/sim/time.hpp"

namespace zc::trace {

/// How one service job left the system. `Shed` jobs carry no span (they
/// never dispatched); `Failed` jobs ran and raised a structured
/// `OffloadError`; `Completed` jobs ran to a verified checksum.
enum class ServiceJobOutcome {
  Completed,
  Failed,
  Shed,
};

[[nodiscard]] constexpr const char* to_string(ServiceJobOutcome o) {
  switch (o) {
    case ServiceJobOutcome::Completed:
      return "completed";
    case ServiceJobOutcome::Failed:
      return "failed";
    case ServiceJobOutcome::Shed:
      return "shed";
  }
  return "?";
}

/// One job's lifecycle through the multi-tenant service, for the
/// chrome-trace service lanes (one track per tenant). Like the other trace
/// records, it depends on nothing above `zc::sim`: the service layer fills
/// it in, the trace layer renders it.
struct ServiceJobRecord {
  int tenant = 0;
  std::uint64_t job = 0;       ///< arrival ordinal within the tenant
  int device = 0;
  std::uint64_t pages = 0;     ///< working-set footprint in pages
  sim::TimePoint arrival;      ///< when the arrival process offered the job
  sim::TimePoint start;        ///< dispatch (== arrival for shed jobs)
  sim::TimePoint end;          ///< retirement (== arrival for shed jobs)
  ServiceJobOutcome outcome = ServiceJobOutcome::Completed;
  /// For a job that failed with an `OffloadError`: its error-code name
  /// (e.g. "out-of-memory"); empty otherwise.
  std::string_view error;

  [[nodiscard]] sim::Duration queue_wait() const { return start - arrival; }
  [[nodiscard]] sim::Duration sojourn() const { return end - arrival; }
};

}  // namespace zc::trace
