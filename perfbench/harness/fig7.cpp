// The two simulation workloads, both on the paper's Fig. 7 scenario
// (Scenario::fat_tree(false): k=8 fat-tree, 30 tasks, mean 96 flows/task,
// 1500 tasks/s):
//   fig7_taps       one pass = TAPS at mean deadlines 20, 25, ..., 60 ms;
//   fig7_baselines  one pass = Fair Sharing, D3, PDQ, Baraat and Varys at
//                   the 40 ms operating point.
// A run makes a fixed number of passes that depends only on its arguments,
// and every simulation of every pass draws its own task set from --seed, so
// the metrics average over many task sets instead of hanging on one.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "core/taps_scheduler.hpp"
#include "exp/experiment.hpp"
#include "metrics/collector.hpp"
#include "traced_scheduler.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/task_generator.hpp"

namespace perfbench {
namespace {

using taps::exp::SchedulerKind;

/// Passes per run: sized so one run takes about --seconds on a 4-core x86
/// box at the time the benchmark was written. The count depends on the
/// arguments alone, never on how fast the code runs, so every commit does
/// the same work for the same arguments. A traced run simulates each pass
/// twice, so it makes half the passes.
std::size_t pass_count(const Options& o, double nominal_pass_s) {
  const auto n = std::max(3L, std::lround(o.seconds / nominal_pass_s));
  return static_cast<std::size_t>(o.trace ? (n + 1) / 2 : n);
}

std::uint64_t scenario_seed(std::uint64_t seed, std::size_t pass, int deadline_ms) {
  return taps::util::hash_combine(taps::util::hash_combine(seed, pass),
                                  static_cast<std::uint64_t>(deadline_ms));
}

const char* layer_key(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kFairSharing: return "fair_sharing";
    case SchedulerKind::kD3: return "d3";
    case SchedulerKind::kPdq: return "pdq";
    case SchedulerKind::kBaraat: return "baraat";
    case SchedulerKind::kVarys: return "varys";
    case SchedulerKind::kTaps: return "taps";
    case SchedulerKind::kD2Tcp: return "d2tcp";
  }
  return "?";
}

constexpr SchedulerKind kBaselines[] = {SchedulerKind::kFairSharing, SchedulerKind::kD3,
                                        SchedulerKind::kPdq, SchedulerKind::kBaraat,
                                        SchedulerKind::kVarys};

struct SimSpec {
  SchedulerKind kind = SchedulerKind::kTaps;
  int deadline_ms = 40;
  std::size_t pass = 0;
  std::uint64_t seed = 0;
};

/// One simulation's inputs, built from scratch: the set-up a run pays.
/// Members are destroyed in reverse order, so the network goes before the
/// topology it points into.
struct Prepared {
  std::unique_ptr<taps::topo::Topology> topology;
  std::unique_ptr<taps::net::Network> network;
  std::unique_ptr<taps::sim::Scheduler> scheduler;
  double topo_s = 0.0;
  double workload_s = 0.0;  // workload generation, network registration, scheduler
};

struct SimResult {
  double run_s = 0.0;
  CallbackTimes times;
  taps::sim::SimStats stats;
  taps::core::TapsCounters taps;
  std::uint64_t fingerprint = 0;
  double tcr = 0.0;
  std::string problem;  // empty when the outcome passed its checks
};

/// Outcome checks that hold for any seed: the run reached quiescence, the
/// flow census agrees with SimStats, and completed flows delivered every
/// byte by their deadline.
std::string check_outcome(const taps::sim::SimStats& stats, const taps::net::Network& net) {
  std::size_t completed = 0;
  std::size_t missed = 0;
  for (const taps::net::Flow& f : net.flows()) {
    switch (f.state) {
      case taps::net::FlowState::kCompleted:
        ++completed;
        if (f.completion_time > f.spec.deadline + taps::sim::kTimeEpsilon) {
          return "flow " + std::to_string(f.id()) + " completed after its deadline";
        }
        if (std::abs(f.bytes_sent - f.spec.size) > 1e-6 * f.spec.size + taps::sim::kByteEpsilon) {
          return "flow " + std::to_string(f.id()) + " completed with bytes_sent != size";
        }
        break;
      case taps::net::FlowState::kMissed:
        ++missed;
        break;
      case taps::net::FlowState::kRejected:
        break;
      case taps::net::FlowState::kPending:
      case taps::net::FlowState::kActive:
        return "flow " + std::to_string(f.id()) + " unfinished at quiescence";
    }
  }
  if (completed != stats.completions || missed != stats.misses) {
    return "flow census disagrees with SimStats";
  }
  return {};
}

taps::workload::Scenario fig7_scenario(const SimSpec& spec) {
  taps::workload::Scenario s = taps::workload::Scenario::fat_tree(false);
  s.workload.mean_deadline = spec.deadline_ms / 1000.0;
  s.seed = spec.seed;
  return s;
}

Prepared prepare(const taps::workload::Scenario& s, SchedulerKind kind) {
  Prepared p;
  const auto t0 = Clock::now();
  p.topology = taps::workload::make_topology(s);
  const auto t1 = Clock::now();
  // Same generation path as exp::run_experiment_full, so a (scheduler,
  // scenario) pair here reproduces the figure bench's run exactly.
  p.network = std::make_unique<taps::net::Network>(*p.topology);
  taps::util::Rng rng(s.seed);
  taps::util::Rng workload_rng = rng.fork("workload");
  (void)taps::workload::generate(*p.network, s.workload, workload_rng);
  p.scheduler = taps::exp::make_scheduler(kind, s.max_paths);
  const auto t2 = Clock::now();
  p.topo_s = seconds_between(t0, t1);
  p.workload_s = seconds_between(t1, t2);
  return p;
}

/// FluidSimulator::run over prepared inputs, with the scheduler behind a
/// TracedScheduler in `mode`, or bare when `mode` is empty.
SimResult run_prepared(Prepared& p, std::optional<TracedScheduler::Mode> mode) {
  std::optional<TracedScheduler> traced;
  if (mode) traced.emplace(*p.scheduler, *mode);
  taps::sim::Scheduler& driven =
      traced ? static_cast<taps::sim::Scheduler&>(*traced) : *p.scheduler;
  taps::sim::FluidSimulator simulator(*p.network, driven);
  SimResult r;
  const auto t0 = Clock::now();
  r.stats = simulator.run();
  r.run_s = seconds_between(t0, Clock::now());
  if (traced) r.times = traced->times();
  r.fingerprint = outcome_fingerprint(r.stats, *p.network);
  r.tcr = taps::metrics::collect(*p.network).task_completion_ratio;
  r.problem = check_outcome(r.stats, *p.network);
  if (const auto* t = dynamic_cast<const taps::core::TapsScheduler*>(p.scheduler.get())) {
    r.taps = t->counters();
  }
  return r;
}

std::string outcome_key(const SimSpec& spec) {
  return std::string(taps::exp::to_string(spec.kind)) + "/" + std::to_string(spec.deadline_ms) +
         "ms/pass" + std::to_string(spec.pass);
}

std::string outcome_value(const SimResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 " %.17g", r.fingerprint, r.tcr);
  return buf;
}

/// set-up is a few ms per pass, so one sample is mostly noise.
constexpr int kSetupsPerPass = 3;

/// Accumulates one workload's simulations into its report.
class Fig7Run {
 public:
  Fig7Run(const Options& o, std::size_t passes) : o_(o), passes_(passes) {}

  void run_pass(const std::vector<SimSpec>& specs) {
    double topo[kSetupsPerPass] = {};
    double workload[kSetupsPerPass] = {};
    const double wall_before = wall_;
    for (const SimSpec& spec : specs) {
      ++report_.attempted;
      // Set each simulation up several times over; the last set-up runs.
      std::optional<Prepared> sim;
      for (int rep = 0; rep < kSetupsPerPass; ++rep) {
        sim.reset();
        sim.emplace(prepare(fig7_scenario(spec), spec.kind));
        topo[rep] += sim->topo_s;
        workload[rep] += sim->workload_s;
      }
      const SimResult plain = run_prepared(*sim, TracedScheduler::Mode::kArrivalOnly);
      wall_ += plain.run_s;
      tcr_sum_ += plain.tcr;
      decisions_.insert(decisions_.end(), plain.times.arrival_samples.begin(),
                      plain.times.arrival_samples.end());
      report_.outcomes.emplace_back(outcome_key(spec), outcome_value(plain));
      std::string problem = plain.problem;
      if (o_.trace) {
        Prepared again = prepare(fig7_scenario(spec), spec.kind);
        const SimResult traced = run_prepared(again, TracedScheduler::Mode::kAllCallbacks);
        if (traced.fingerprint != plain.fingerprint && problem.empty()) {
          problem = "traced fingerprint differs from untraced";
        }
        add_traced(spec, traced);
      }
      if (!problem.empty()) {
        ++report_.failed;
        report_.fail(outcome_key(spec) + ": " + problem);
      }
    }
    pass_wall_.push_back(wall_ - wall_before);
    for (int rep = 0; rep < kSetupsPerPass; ++rep) {
      setup_.push_back(topo[rep] + workload[rep]);
      topo_.push_back(topo[rep]);
      workload_.push_back(workload[rep]);
    }
  }

  Report finish() {
    const auto per_pass = [&](double total) { return total / static_cast<double>(passes_); };
    const std::size_t sims = report_.attempted;
    const std::size_t decisions = decisions_.size();
    if (!percentile_supported(95.0, decisions)) report_.fail("too few decisions for p95");
    report_.add("setup_s", median_of(setup_), "s");
    report_.add("wall_s", per_pass(wall_), "s");
    report_.add("decide_p50_ms", percentile(decisions_, 50.0) * 1e3, "ms");
    report_.add("decide_p95_ms", percentile(decisions_, 95.0) * 1e3, "ms");
    report_.add("task_completion_ratio", tcr_sum_ / static_cast<double>(sims), "ratio");
    std::ostringstream note;
    note << passes_ << " passes, " << sims << " simulations, " << decisions << " decisions";
    report_.notes.push_back(note.str());
    std::ostringstream passes;
    passes << "wall_s of each pass:";
    for (const double w : pass_wall_) passes << " " << w;
    report_.notes.push_back(passes.str());

    report_.not_measured.emplace_back("svc");
    report_.add("topo.build_s", median_of(topo_), "s");
    report_.add("workload.generate_s", median_of(workload_), "s");
    if (!o_.trace) return std::move(report_);

    report_.add("sim.self_s", per_pass(traced_wall_ - callbacks_), "s");
    report_.add("sim.events", per_pass(static_cast<double>(events_)), "count");
    report_.add("sim.flows_touched", per_pass(static_cast<double>(flows_touched_)), "count");
    report_.add("trace.overhead_s", per_pass(traced_wall_ - wall_), "s");
    if (has_taps_) {
      add_core_metrics(per_pass);
    } else {
      report_.not_measured.emplace_back("core");
    }
    if (has_baselines_) {
      add_sched_metrics(per_pass);
    } else {
      report_.not_measured.emplace_back("sched");
    }
    std::ostringstream acc;
    acc << "traced wall " << per_pass(traced_wall_) << " s/pass = sim.self_s "
        << per_pass(traced_wall_ - callbacks_) << " + scheduler callbacks " << per_pass(callbacks_);
    report_.notes.push_back(acc.str());
    return std::move(report_);
  }

 private:
  void add_traced(const SimSpec& spec, const SimResult& r) {
    traced_wall_ += r.run_s;
    callbacks_ += r.times.total_s();
    events_ += r.stats.events;
    flows_touched_ += r.stats.effort.flows_touched;
    if (spec.kind == SchedulerKind::kTaps) {
      has_taps_ = true;
      core_.bind_s += r.times.bind_s;
      core_.arrival_s += r.times.arrival_s;
      core_.finished_s += r.times.finished_s;
      core_.rates_s += r.times.rates_s;
      core_arrivals_ += r.times.arrival_samples.size();
      accumulate(counters_, r.taps);
    } else {
      has_baselines_ = true;
      rates_by_kind_[static_cast<std::size_t>(spec.kind)] += r.times.rates_s;
      sched_.rates_s += r.times.rates_s;
      sched_.rates_calls += r.times.rates_calls;
      sched_other_s_ += r.times.bind_s + r.times.arrival_s + r.times.finished_s;
    }
  }

  template <typename PerPass>
  void add_core_metrics(const PerPass& per_pass) {
    const double planned = static_cast<double>(counters_.flows_planned);
    report_.add("core.arrival_s", per_pass(core_.arrival_s), "s");
    report_.add("core.rates_s", per_pass(core_.rates_s), "s");
    report_.add("core.finish_s", per_pass(core_.finished_s), "s");
    report_.add("core.bind_s", per_pass(core_.bind_s), "s");
    report_.add("core.us_per_flow_planned", planned > 0 ? core_.arrival_s / planned * 1e6 : 0.0,
                "us");
    add_taps_counters(report_, counters_, static_cast<double>(core_arrivals_), per_pass);
  }

  template <typename PerPass>
  void add_sched_metrics(const PerPass& per_pass) {
    report_.add("sched.rates_s", per_pass(sched_.rates_s), "s");
    for (const SchedulerKind k : kBaselines) {
      report_.add(std::string("sched.rates_s.") + layer_key(k),
                  per_pass(rates_by_kind_[static_cast<std::size_t>(k)]), "s");
    }
    report_.add("sched.rates_calls", per_pass(static_cast<double>(sched_.rates_calls)), "count");
    report_.add("sched.rates_us_per_call",
                sched_.rates_calls > 0
                    ? sched_.rates_s / static_cast<double>(sched_.rates_calls) * 1e6
                    : 0.0,
                "us");
    report_.add("sched.other_s", per_pass(sched_other_s_), "s");
  }

  const Options& o_;
  std::size_t passes_;
  Report report_;
  std::vector<double> setup_, topo_, workload_, decisions_, pass_wall_;
  double wall_ = 0.0;
  double tcr_sum_ = 0.0;
  double traced_wall_ = 0.0;
  double callbacks_ = 0.0;
  std::size_t events_ = 0;
  std::size_t flows_touched_ = 0;
  bool has_taps_ = false;
  bool has_baselines_ = false;
  CallbackTimes core_;
  std::size_t core_arrivals_ = 0;
  CallbackTimes sched_;
  double sched_other_s_ = 0.0;
  double rates_by_kind_[8] = {};
  taps::core::TapsCounters counters_;
};

}  // namespace

SimCheck simulate_for_check(const taps::workload::Scenario& scenario, SchedulerKind kind,
                            std::optional<TracedScheduler::Mode> mode) {
  Prepared p = prepare(scenario, kind);
  const SimResult r = run_prepared(p, mode);
  return {r.fingerprint, r.times, r.problem};
}

Report run_fig7_taps(const Options& o) {
  const std::size_t passes = pass_count(o, /*nominal_pass_s=*/4.2);
  Fig7Run run(o, passes);
  for (std::size_t p = 0; p < passes; ++p) {
    std::vector<SimSpec> specs;
    for (int ms = 20; ms <= 60; ms += 5) {
      specs.push_back({SchedulerKind::kTaps, ms, p, scenario_seed(o.seed, p, ms)});
    }
    run.run_pass(specs);
  }
  return run.finish();
}

Report run_fig7_baselines(const Options& o) {
  const std::size_t passes = pass_count(o, /*nominal_pass_s=*/3.7);
  Fig7Run run(o, passes);
  for (std::size_t p = 0; p < passes; ++p) {
    std::vector<SimSpec> specs;
    for (const SchedulerKind k : kBaselines) {
      // Each baseline draws its own task set: a heavy task set then weighs
      // on one scheduler, not on all five, which steadies the pass total.
      const std::uint64_t seed =
          taps::util::hash_combine(scenario_seed(o.seed, p, 40), static_cast<std::uint64_t>(k));
      specs.push_back({k, 40, p, seed});
    }
    run.run_pass(specs);
  }
  return run.finish();
}

}  // namespace perfbench
