// Shared pieces of the benchmark harness: the clock, the percentile rule,
// the outcome fingerprint and the report every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/taps_scheduler.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "svc/request.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile: the 1-based rank of the sample that is the
/// q-th percentile of n sorted samples (q in (0, 100]). The epsilon keeps
/// products such as 99.9% of 10000 from rounding up a rank.
inline std::size_t percentile_rank(double q, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; with fewer it is a handful of outliers, not a percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

inline bool percentile_supported(double q, std::size_t n) {
  return n > 0 && n - percentile_rank(q, n) >= kMinSamplesBeyond;
}

/// q-th percentile of `samples` (sorted in place). Empty input gives 0.
inline double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[percentile_rank(q, samples.size()) - 1];
}

inline double median_of(std::vector<double> samples) { return percentile(samples, 50.0); }

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over a finished simulation's outcome: the SimStats outcome fields
/// and every flow's state, remaining, bytes_sent and completion_time bits.
/// Engine work counters (SimEffort) are left out, as everywhere else.
inline std::uint64_t outcome_fingerprint(const taps::sim::SimStats& stats,
                                         const taps::net::Network& net) {
  std::uint64_t h = kFnvBasis;
  h = fnv1a(h, &stats.end_time, sizeof(stats.end_time));
  h = fnv1a(h, &stats.events, sizeof(stats.events));
  h = fnv1a(h, &stats.completions, sizeof(stats.completions));
  h = fnv1a(h, &stats.misses, sizeof(stats.misses));
  for (const taps::net::Flow& f : net.flows()) {
    const auto state = static_cast<std::uint8_t>(f.state);
    h = fnv1a(h, &state, sizeof(state));
    h = fnv1a(h, &f.remaining, sizeof(double));
    h = fnv1a(h, &f.bytes_sent, sizeof(double));
    h = fnv1a(h, &f.completion_time, sizeof(double));
  }
  return h;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): its metrics, how many
/// operations it attempted, which of them failed a check, and the outcome
/// of every simulation (checked against the recorded ones by run.py).
struct Report {
  std::vector<Metric> metrics;
  /// Layers (or single metrics) this workload does not measure; their
  /// per-layer metrics read 0.
  std::vector<std::string> not_measured;
  std::size_t attempted = 0;
  std::size_t failed = 0;  // attempted operations that failed a check
  std::vector<std::string> failures;
  /// key -> "<16-hex fingerprint> <task completion ratio>".
  std::vector<std::pair<std::string, std::string>> outcomes;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string what) { failures.push_back(std::move(what)); }
};

/// The planner's work counters as core.* metrics. `arrivals` is the number
/// of task arrivals the counters cover; `scale` turns a total into the
/// reported figure (per pass for the simulations, as is for the service).
inline void add_taps_counters(Report& report, const taps::core::TapsCounters& c,
                              double arrivals, const std::function<double(double)>& scale) {
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  const double planned = d(c.flows_planned);
  const double reused = d(c.cross_arrival_reuse_flows + c.checkpoint_reuse_flows);
  const double decided = d(c.tasks_accepted + c.tasks_rejected);
  report.add("core.flows_planned", scale(planned), "count");
  report.add("core.flows_per_arrival", arrivals > 0 ? planned / arrivals : 0.0, "ratio");
  report.add("core.reuse_ratio", reused + planned > 0 ? reused / (reused + planned) : 0.0,
             "ratio");
  report.add("core.reject_ratio", decided > 0 ? d(c.tasks_rejected) / decided : 0.0, "ratio");
  report.add("core.preemptions", scale(d(c.tasks_preempted)), "count");
  report.add("core.session_restarts", scale(d(c.session_restarts)), "count");
  report.add("core.fast_rejects", scale(d(c.pod_fast_rejects)), "count");
  report.add("core.slice_grants", scale(d(c.slice_grants)), "count");
  report.add("core.full_sorts", scale(d(c.full_sorts)), "count");
  report.add("core.occupancy_trims", scale(d(c.occupancy_trims)), "count");
}

/// Adds the counters add_taps_counters reads from `b` into `a` (summing
/// shards or simulations).
inline void accumulate(taps::core::TapsCounters& a, const taps::core::TapsCounters& b) {
  a.tasks_accepted += b.tasks_accepted;
  a.tasks_rejected += b.tasks_rejected;
  a.tasks_preempted += b.tasks_preempted;
  a.flows_planned += b.flows_planned;
  a.cross_arrival_reuse_flows += b.cross_arrival_reuse_flows;
  a.checkpoint_reuse_flows += b.checkpoint_reuse_flows;
  a.session_restarts += b.session_restarts;
  a.pod_fast_rejects += b.pod_fast_rejects;
  a.slice_grants += b.slice_grants;
  a.full_sorts += b.full_sorts;
  a.occupancy_trims += b.occupancy_trims;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Report run_fig7_taps(const Options& o);
Report run_fig7_baselines(const Options& o);
Report run_svc_mixed(const Options& o);
/// Whether a service response counts as a failed operation rather than a
/// decision (accepted, planner reject, budget exhausted).
bool is_failure(taps::svc::Reason r);
/// Returns the number of failed self-test checks (0 = all passed).
int run_self_tests();

}  // namespace perfbench
