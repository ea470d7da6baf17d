// Self-tests of the benchmark's own code: the percentile rule, the failure
// classification of every svc::Reason, and decorator transparency.
#include <iostream>
#include <string>

#include "common.hpp"
#include "svc/service.hpp"
#include "traced_scheduler.hpp"

namespace perfbench {
namespace {

class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++failed_;
      std::cerr << "self-test FAILED: " << what << "\n";
    }
  }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] int checks() const { return checks_; }

 private:
  int checks_ = 0;
  int failed_ = 0;
};

void test_percentiles(Checker& c) {
  c.expect(percentile_rank(50.0, 270) == 135, "p50 of 270 is rank 135");
  c.expect(percentile_rank(95.0, 270) == 257, "p95 of 270 is rank 257");
  c.expect(percentile_rank(100.0, 7) == 7 && percentile_rank(0.1, 7) == 1, "rank is clamped");
  c.expect(percentile_supported(95.0, 270), "p95 of 270 leaves 13 beyond");
  c.expect(!percentile_supported(99.0, 270), "p99 of 270 leaves 2 beyond");
  c.expect(percentile_supported(95.0, 200), "p95 of 200 leaves exactly 10 beyond");
  c.expect(!percentile_supported(95.0, 199), "p95 of 199 leaves 9 beyond");
  c.expect(percentile_supported(99.0, 1000) && !percentile_supported(99.0, 999),
           "p99 needs 1000 samples");
  c.expect(!percentile_supported(50.0, 0) && !percentile_supported(50.0, 19) &&
               percentile_supported(50.0, 20),
           "the median needs 20 samples");
  c.expect(percentile_supported(99.9, 10000) && !percentile_supported(99.9, 9999),
           "p99.9 needs 10000 samples (no rounding up of 99.9% of 10000)");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  c.expect(percentile(v, 50.0) == 50.0 && percentile(v, 95.0) == 95.0 &&
               percentile(v, 100.0) == 100.0,
           "percentile of 1..100");
  std::vector<double> empty;
  c.expect(percentile(empty, 50.0) == 0.0, "percentile of nothing is 0");
}

void test_reason_classification(Checker& c) {
  using taps::svc::Reason;
  std::size_t decisions = 0;
  for (std::size_t i = 0; i < taps::svc::kReasonCount; ++i) {
    const auto r = static_cast<Reason>(i);
    const std::string name = taps::svc::to_string(r);
    c.expect(name != "?", "reason " + std::to_string(i) + " has a name");
    const bool decision =
        r == Reason::kAccepted || r == Reason::kPlannerReject || r == Reason::kBudgetExhausted;
    decisions += decision ? 1 : 0;
    c.expect(is_failure(r) == !decision, "classification of " + name);
  }
  c.expect(decisions == 3, "three reasons are decisions");
  // A reason added past kReasonCount would be neither named nor classified.
  c.expect(std::string(taps::svc::to_string(static_cast<Reason>(taps::svc::kReasonCount))) == "?",
           "kReasonCount covers every reason");
}

void test_decorator_transparency(Checker& c) {
  using taps::exp::SchedulerKind;
  taps::workload::Scenario s = taps::workload::Scenario::fat_tree(false);
  s.workload.task_count = 8;
  s.workload.flows_per_task_mean = 24.0;
  s.workload.mean_deadline = 0.030;
  s.seed = 7;
  for (const SchedulerKind k : taps::exp::all_schedulers()) {
    const std::string name = taps::exp::to_string(k);
    const SimCheck bare = simulate_for_check(s, k, std::nullopt);
    const SimCheck arrival = simulate_for_check(s, k, TracedScheduler::Mode::kArrivalOnly);
    const SimCheck all = simulate_for_check(s, k, TracedScheduler::Mode::kAllCallbacks);
    c.expect(bare.problem.empty(), name + " outcome checks: " + bare.problem);
    c.expect(arrival.fingerprint == bare.fingerprint, name + " arrival-only decorator is transparent");
    c.expect(all.fingerprint == bare.fingerprint, name + " full decorator is transparent");
    c.expect(all.times.arrival_samples.size() == 8 && arrival.times.arrival_samples.size() == 8,
             name + " decorator times every arrival");
    c.expect(all.times.rates_calls > 0 && arrival.times.rates_calls == 0,
             name + " only the full decorator times assign_rates");
  }
}

}  // namespace

int run_self_tests() {
  Checker c;
  test_percentiles(c);
  test_reason_classification(c);
  test_decorator_transparency(c);
  std::cerr << "self-test: " << c.checks() - c.failed() << "/" << c.checks() << " checks passed\n";
  return c.failed();
}

}  // namespace perfbench
