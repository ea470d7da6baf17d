// A forwarding sim::Scheduler that times calls into the scheduler it wraps.
//
// The simulator sees only this decorator; every callback is forwarded
// unchanged, so a run with it attached produces the same outcome as one
// without (checked by the self-tests and by every traced run). In
// kArrivalOnly mode only on_task_arrival is timed: that is the controller's
// decision time, an end-to-end metric. kAllCallbacks adds bind,
// on_flow_finished and assign_rates, which the per-layer numbers need.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

struct CallbackTimes {
  double bind_s = 0.0;
  double arrival_s = 0.0;
  double finished_s = 0.0;
  double rates_s = 0.0;
  std::size_t rates_calls = 0;
  /// Host seconds of each on_task_arrival call, in call order.
  std::vector<double> arrival_samples;

  [[nodiscard]] double total_s() const { return bind_s + arrival_s + finished_s + rates_s; }
};

// taps-threading: single-domain -- driven by one simulator like the scheduler it wraps
class TracedScheduler final : public taps::sim::Scheduler {
 public:
  enum class Mode { kArrivalOnly, kAllCallbacks };

  TracedScheduler(taps::sim::Scheduler& inner, Mode mode) : inner_(&inner), mode_(mode) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void bind(taps::net::Network& net) override {
    if (mode_ == Mode::kArrivalOnly) {
      inner_->bind(net);
      return;
    }
    const auto t0 = Clock::now();
    inner_->bind(net);
    times_.bind_s += seconds_between(t0, Clock::now());
  }

  void on_task_arrival(taps::net::TaskId id, double now) override {
    const auto t0 = Clock::now();
    inner_->on_task_arrival(id, now);
    const double dt = seconds_between(t0, Clock::now());
    times_.arrival_s += dt;
    times_.arrival_samples.push_back(dt);
  }

  void on_flow_finished(taps::net::FlowId id, double now) override {
    if (mode_ == Mode::kArrivalOnly) {
      inner_->on_flow_finished(id, now);
      return;
    }
    const auto t0 = Clock::now();
    inner_->on_flow_finished(id, now);
    times_.finished_s += seconds_between(t0, Clock::now());
  }

  double assign_rates(double now) override {
    if (mode_ == Mode::kArrivalOnly) return inner_->assign_rates(now);
    const auto t0 = Clock::now();
    const double next = inner_->assign_rates(now);
    times_.rates_s += seconds_between(t0, Clock::now());
    times_.rates_calls += 1;
    return next;
  }

  [[nodiscard]] const CallbackTimes& times() const { return times_; }

 private:
  taps::sim::Scheduler* inner_;
  Mode mode_;
  CallbackTimes times_;
};

/// What the self-tests need from one simulation.
struct SimCheck {
  std::uint64_t fingerprint = 0;
  CallbackTimes times;
  std::string problem;  // empty when the outcome passed its checks
};

/// Runs `kind` on `scenario` from scratch, behind a TracedScheduler in
/// `mode` or bare when `mode` is empty.
SimCheck simulate_for_check(const taps::workload::Scenario& scenario,
                            taps::exp::SchedulerKind kind,
                            std::optional<TracedScheduler::Mode> mode);

}  // namespace perfbench
