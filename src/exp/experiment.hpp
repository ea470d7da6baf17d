// One-call experiment execution: scenario × scheduler -> metrics.
// Every bench binary is a thin sweep over this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "metrics/collector.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"

namespace taps::sim {
class TimelineRecorder;
}  // namespace taps::sim

namespace taps::exp {

enum class SchedulerKind { kFairSharing, kD3, kPdq, kBaraat, kVarys, kTaps, kD2Tcp };

[[nodiscard]] const char* to_string(SchedulerKind k);
/// The paper's six evaluated schedulers, in its plotting order.
[[nodiscard]] const std::vector<SchedulerKind>& all_schedulers();
/// The paper's six plus the D2TCP extension (discussed in the paper's
/// related work; implemented here as a fluid model — see sched/d2tcp.hpp).
[[nodiscard]] const std::vector<SchedulerKind>& extended_schedulers();
/// Parse a scheduler name ("taps", "pdq", ...); throws on unknown names.
[[nodiscard]] SchedulerKind parse_scheduler(const std::string& name);

[[nodiscard]] std::unique_ptr<sim::Scheduler> make_scheduler(SchedulerKind kind,
                                                             std::size_t max_paths);

struct ExperimentResult {
  metrics::RunMetrics metrics;
  sim::SimStats stats;
  double wall_seconds = 0.0;
};

/// A completed run with its state kept alive (Fig. 14 needs the network to
/// classify transmission segments after the fact).
struct ExperimentRun {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<sim::Scheduler> scheduler;
  ExperimentResult result;
};

/// Build the scenario's topology + workload (seeded from the scenario) and
/// run it under `kind`, optionally recording transmissions. A non-null
/// `timeline` recorder is attached to both the simulator (data-plane events;
/// tee'd with `observer` when both are given) and, for schedulers that emit
/// decision hooks, the scheduler (grants/preemptions) — recording is pure,
/// so results are bit-identical with or without it.
[[nodiscard]] ExperimentRun run_experiment_full(const workload::Scenario& scenario,
                                                SchedulerKind kind,
                                                sim::TransmitObserver* observer = nullptr,
                                                sim::TimelineRecorder* timeline = nullptr);

/// Convenience wrapper returning just the result.
[[nodiscard]] ExperimentResult run_experiment(const workload::Scenario& scenario,
                                              SchedulerKind kind);

}  // namespace taps::exp
