// svc_mixed: the admission service under an open-loop arrival stream.
//
// A started svc::AdmissionService (8 pod shards plus the global cross-pod
// domain, threads=0 so the dispatcher processes batches itself) receives a
// mixed single-flow stream at a fixed 30 000 requests per wall-clock second
// from one generator thread, which also polls take_responses. About 30% of
// the tasks span two pods. The same stream is also queued up front into a
// fresh started service (drain run) and processed in pump() mode (the
// reference): all three must answer every seq exactly once, bitwise alike.
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "svc/service.hpp"
#include "topo/fattree.hpp"
#include "util/rng.hpp"

namespace perfbench {

bool is_failure(taps::svc::Reason r) {
  using taps::svc::Reason;
  switch (r) {
    case Reason::kAccepted:
    case Reason::kPlannerReject:
    case Reason::kBudgetExhausted:
      return false;  // decisions
    case Reason::kCrossShard:  // cannot happen with cross-pod admission on
    case Reason::kMalformed:
    case Reason::kOutOfOrder:
    case Reason::kDuplicate:
    case Reason::kQueueFull:
    case Reason::kAbandoned:
    case Reason::kShutdown:
      return true;
  }
  return true;
}

namespace {

using taps::svc::AdmissionService;
using taps::svc::Reason;
using taps::svc::TaskRequest;
using taps::svc::TaskResponse;

constexpr double kOfferedPerSecond = 30000.0;
/// Share of --seconds spent in the open loop; the drain and pump runs of the
/// same stream take most of the rest.
constexpr double kOpenLoopShare = 0.4;
constexpr int kSetups = 7;
constexpr int kDrains = 15;
/// The open loop's latency percentiles are medians over consecutive windows
/// of this many seconds of offered load, so one host stall moves one
/// window's percentile rather than the run's.
constexpr double kWindowSeconds = 1.0;
/// How often the generator collects responses. Latencies are measured to
/// within this.
constexpr auto kPollInterval = std::chrono::microseconds(5);
/// A run that has not received every response after this long has lost
/// some; it stops waiting and counts them as failed.
constexpr double kGiveUpSeconds = 60.0;

/// bench_svc_admission's mixed stream (single-flow tasks, ~30% spanning two
/// pods, transfers of 2-20 ms at 1.2-3x deadline slack) with a 1 ms mean
/// virtual arrival gap, ten times denser.
std::vector<TaskRequest> mixed_stream(const taps::topo::FatTree& ft, std::size_t n,
                                      std::uint64_t seed) {
  const int half = ft.k() / 2;
  const double capacity = ft.graph().links().front().capacity;
  taps::util::Rng rng(seed);
  std::vector<TaskRequest> out;
  out.reserve(n);
  double arrival = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    arrival += rng.exponential(0.001) + 1e-7;
    const int src_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
    int dst_pod = src_pod;
    if (rng.bernoulli(0.3)) {
      while (dst_pod == src_pod) dst_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
    }
    const auto host = [&](int pod) {
      return ft.host(pod, static_cast<int>(rng.uniform_int(0, half - 1)),
                     static_cast<int>(rng.uniform_int(0, half - 1)));
    };
    const taps::topo::NodeId src = host(src_pod);
    taps::topo::NodeId dst = src;
    while (dst == src) dst = host(dst_pod);
    const double transfer = rng.uniform_real(0.002, 0.02);
    TaskRequest req;
    req.arrival = arrival;
    req.deadline = arrival + rng.uniform_real(1.2, 3.0) * transfer;
    req.flows.push_back({src, dst, transfer * capacity});
    out.push_back(std::move(req));
  }
  return out;
}

taps::svc::ServiceConfig service_config(std::size_t n) {
  taps::svc::ServiceConfig c;
  c.shards = 8;
  c.threads = 0;
  // The drain run queues the whole stream at once; a full queue would be a
  // benchmark artefact, not a decision.
  c.queue_capacity = n + 1;
  return c;
}

/// FNV-1a over every field of a response, so two runs can be compared
/// bitwise without keeping either run's responses.
std::uint64_t digest(const TaskResponse& r) {
  std::uint64_t h = kFnvBasis;
  h = fnv1a(h, &r.seq, sizeof r.seq);
  h = fnv1a(h, &r.client_tag, sizeof r.client_tag);
  h = fnv1a(h, &r.reason, sizeof r.reason);
  for (const taps::svc::FlowGrant& g : r.grants) {
    const std::size_t links = g.path.links.size();
    h = fnv1a(h, &links, sizeof links);
    h = fnv1a(h, g.path.links.data(), links * sizeof(g.path.links[0]));
    for (const taps::util::Interval& iv : g.slices.intervals()) {
      h = fnv1a(h, &iv.lo, sizeof iv.lo);
      h = fnv1a(h, &iv.hi, sizeof iv.hi);
    }
    h = fnv1a(h, "|", 1);
  }
  for (const taps::svc::Seq s : r.preempted) h = fnv1a(h, &s, sizeof s);
  return h;
}

/// Checks one run's responses: every seq answered exactly once, with no
/// failure reason and, when reference digests are given, bitwise equal to
/// the reference run. Marks each bad seq in `bad`.
class AnswerCheck {
 public:
  /// Expects the seqs [0, expected); by default every seq of the stream.
  AnswerCheck(const std::vector<std::uint64_t>* reference, std::vector<std::uint8_t>& bad,
              std::string run, std::size_t expected = 0)
      : reference_(reference),
        bad_(&bad),
        seen_(expected > 0 ? expected : bad.size(), 0),
        run_(std::move(run)) {}

  /// Returns false for a response whose seq is out of range.
  bool take(const TaskResponse& r) {
    if (r.seq >= seen_.size()) {
      note("seq out of range");
      return false;
    }
    const auto i = static_cast<std::size_t>(r.seq);
    if (seen_[i]++ != 0) {
      mark(i, "answered twice");
    } else {
      ++answered_;
      if (is_failure(r.reason)) mark(i, std::string("failed: ") + taps::svc::to_string(r.reason));
      if (reference_ != nullptr && digest(r) != (*reference_)[i]) mark(i, "differs from pump()");
    }
    return true;
  }

  void finish() {
    for (std::size_t i = 0; i < seen_.size(); ++i) {
      if (seen_[i] == 0) mark(i, "never answered");
    }
  }

  [[nodiscard]] std::size_t answered() const { return answered_; }
  std::vector<std::string> problems;

 private:
  void mark(std::size_t i, const std::string& what) {
    (*bad_)[i] = 1;
    note(what);
  }
  void note(const std::string& what) {
    if (problems.size() < 5) problems.push_back(run_ + ": seq problem: " + what);
  }

  const std::vector<std::uint64_t>* reference_;
  std::vector<std::uint8_t>* bad_;
  std::vector<std::uint8_t> seen_;
  std::size_t answered_ = 0;
  std::string run_;
};

struct PumpRun {
  std::vector<std::uint64_t> digests;
  double seconds = 0.0;
  std::vector<double> decide_s;   // each request's submit() plus its own pump()
  std::vector<double> process_s;  // the pump() part alone
  double global_busy_s = 0.0;    // traced: decide time of requests the global domain took
  std::size_t unattributed = 0;  // traced: requests not seen on exactly the expected shards
  std::size_t accepted = 0;
  std::size_t completing = 0;    // accepted and never preempted
};

/// The reference: pump() mode, one submit() and one pump() per request, so
/// each request's decision is timed on its own. Traced, each decision is
/// also attributed to the shard whose processed count moved.
PumpRun pump_run(const taps::topo::FatTree& ft, const std::vector<TaskRequest>& stream,
                 bool traced, AnswerCheck& check) {
  AdmissionService service(ft, service_config(stream.size()));
  PumpRun out;
  out.digests.assign(stream.size(), 0);
  out.decide_s.reserve(stream.size());
  out.process_s.reserve(stream.size());
  std::vector<std::uint8_t> preempted(stream.size(), 0);
  std::vector<std::uint8_t> accepted(stream.size(), 0);
  // Responses are digested as they come, so the run's memory stays bounded.
  const auto collect = [&] {
    for (const TaskResponse& r : service.take_responses()) {
      if (!check.take(r)) continue;
      const auto i = static_cast<std::size_t>(r.seq);
      out.digests[i] = digest(r);
      accepted[i] = r.accepted() ? 1 : 0;
      for (const taps::svc::Seq s : r.preempted) {
        if (s < stream.size()) preempted[static_cast<std::size_t>(s)] = 1;
      }
    }
  };
  constexpr std::size_t kCollectEvery = 1024;
  const std::size_t global = service.global_domain();
  std::vector<std::size_t> processed(service.shard_count(), 0);

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::size_t enqueued_before = traced ? service.stats().enqueued : 0;
    const auto d0 = Clock::now();
    (void)service.submit(stream[i]);
    const auto p0 = Clock::now();
    service.pump();
    const auto p1 = Clock::now();
    const double dt = seconds_between(d0, p1);
    out.decide_s.push_back(dt);
    out.process_s.push_back(seconds_between(p0, p1));
    if (traced) {
      // A request answered inside submit() reaches no shard; one that was
      // queued must move exactly one shard's processed count, by one.
      const bool enqueued = service.stats().enqueued != enqueued_before;
      std::size_t moved = 0;
      bool on_global = false;
      for (std::size_t s = 0; s < processed.size(); ++s) {
        const std::size_t now_processed = service.shard(s).stats().processed;
        moved += now_processed - processed[s];
        on_global = on_global || (s == global && now_processed != processed[s]);
        processed[s] = now_processed;
      }
      if (moved != (enqueued ? 1U : 0U)) ++out.unattributed;
      if (on_global) out.global_busy_s += dt;
    }
    if (i % kCollectEvery == kCollectEvery - 1) collect();
  }
  out.seconds = seconds_between(t0, Clock::now());
  collect();
  check.finish();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    out.accepted += accepted[i];
    out.completing += accepted[i] != 0 && preempted[i] == 0 ? 1 : 0;
  }
  return out;
}

struct OpenLoopRun {
  std::vector<double> answer_s;  // due time -> response seen
  std::vector<double> submit_s;  // traced: inside submit()
  std::vector<double> after_submit_s;  // traced: submit() returned -> response seen
  double late_max_s = 0.0;
  taps::svc::ServiceStats stats;
  std::vector<taps::svc::ShardStats> shards;
};

OpenLoopRun open_loop_run(const taps::topo::FatTree& ft, const std::vector<TaskRequest>& stream,
                          bool traced, AnswerCheck& check) {
  const std::size_t n = stream.size();
  AdmissionService service(ft, service_config(n));
  service.start();
  OpenLoopRun out;
  out.answer_s.assign(n, 0.0);
  std::vector<Clock::time_point> submitted;
  if (traced) {
    out.submit_s.reserve(n);
    submitted.resize(n);
    out.after_submit_s.assign(n, 0.0);
  }
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / kOfferedPerSecond));
  };
  std::size_t next = 0;
  auto last_poll = start;
  while (check.answered() < n) {
    auto now = Clock::now();
    while (next < n && due(next) <= now) {
      out.late_max_s = std::max(out.late_max_s, seconds_between(due(next), now));
      (void)service.submit(stream[next]);
      if (traced) {
        const auto done = Clock::now();
        out.submit_s.push_back(seconds_between(now, done));
        submitted[next] = done;
      }
      ++next;
      now = Clock::now();
    }
    // Polling takes the service lock; polling without pause would contend
    // with the dispatcher for it and slow the service being measured.
    if (now - last_poll < kPollInterval) continue;
    last_poll = now;
    const std::vector<TaskResponse> responses = service.take_responses();
    const auto seen = Clock::now();
    for (const TaskResponse& r : responses) {
      if (!check.take(r)) continue;
      const auto i = static_cast<std::size_t>(r.seq);
      out.answer_s[i] = seconds_between(due(i), seen);
      if (traced) out.after_submit_s[i] = seconds_between(submitted[i], seen);
    }
    if (seconds_between(start, seen) > kGiveUpSeconds) break;
  }
  service.stop();
  for (const TaskResponse& r : service.take_responses()) (void)check.take(r);
  out.stats = service.stats();
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    out.shards.push_back(service.shard(s).stats());
  }
  return out;
}

/// The drain run: the stream's first `n` requests queued into a fresh
/// service before start(); returns the seconds from start() until the
/// service is idle. Responses to a prefix equal the full stream's, since a
/// response depends only on the requests before it.
double drain_run(const taps::topo::FatTree& ft, const std::vector<TaskRequest>& stream,
                 std::size_t n, AnswerCheck& check) {
  AdmissionService service(ft, service_config(stream.size()));
  for (std::size_t i = 0; i < n; ++i) (void)service.submit(stream[i]);
  const auto t0 = Clock::now();
  service.start();
  service.wait_idle();
  const double seconds = seconds_between(t0, Clock::now());
  service.stop();
  for (const TaskResponse& r : service.take_responses()) (void)check.take(r);
  check.finish();
  return seconds;
}

/// The q-th percentile of each consecutive window of `per_window` requests
/// (in due order).
std::vector<double> window_percentiles(const std::vector<double>& answers,
                                       std::size_t per_window, double q) {
  std::vector<double> per;
  for (std::size_t lo = 0; lo + per_window <= answers.size(); lo += per_window) {
    std::vector<double> w(answers.begin() + static_cast<std::ptrdiff_t>(lo),
                          answers.begin() + static_cast<std::ptrdiff_t>(lo + per_window));
    per.push_back(percentile(w, q));
  }
  return per;
}

double us(double s) { return s * 1e6; }

}  // namespace

Report run_svc_mixed(const Options& o) {
  Report report;
  const auto n = static_cast<std::size_t>(
      std::lround(kOfferedPerSecond * std::max(o.seconds, 1.0) * kOpenLoopShare));

  // Set-up, several times over: topology, stream, service construction.
  std::vector<double> setup, topo_s, stream_s, construct_s;
  std::unique_ptr<taps::topo::FatTree> ft;
  std::vector<TaskRequest> stream;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    ft = std::make_unique<taps::topo::FatTree>(taps::topo::FatTreeConfig::scaled());
    const auto t1 = Clock::now();
    stream = mixed_stream(*ft, n, o.seed);
    const auto t2 = Clock::now();
    { const AdmissionService service(*ft, service_config(n)); }
    const auto t3 = Clock::now();
    topo_s.push_back(seconds_between(t0, t1));
    stream_s.push_back(seconds_between(t1, t2));
    construct_s.push_back(seconds_between(t2, t3));
    setup.push_back(seconds_between(t0, t3));
  }

  std::vector<std::uint8_t> bad(n, 0);
  AnswerCheck pump_check(nullptr, bad, "pump");
  const PumpRun reference = pump_run(*ft, stream, /*traced=*/false, pump_check);
  AnswerCheck open_check(&reference.digests, bad, "open loop");
  const OpenLoopRun open = open_loop_run(*ft, stream, o.trace, open_check);
  open_check.finish();
  std::vector<double> drains;
  const std::size_t drain_n = n / kDrains;
  for (int i = 0; i < kDrains; ++i) {
    AnswerCheck drain_check(&reference.digests, bad, "drain " + std::to_string(i), drain_n);
    drains.push_back(drain_run(*ft, stream, drain_n, drain_check));
    for (const std::string& p : drain_check.problems) report.fail(p);
  }
  const double drain_s = median_of(drains);

  report.attempted = n;
  for (const auto* c : {&pump_check, &open_check}) {
    for (const std::string& p : c->problems) report.fail(p);
  }
  for (const std::uint8_t b : bad) report.failed += b;
  if (report.failed > 0) report.fail(std::to_string(report.failed) + " requests failed");
  std::uint64_t all = kFnvBasis;
  for (const std::uint64_t d : reference.digests) all = fnv1a(all, &d, sizeof d);
  char outcome[64];
  std::snprintf(outcome, sizeof outcome, "%016" PRIx64 " %.17g", all,
                static_cast<double>(reference.completing) / static_cast<double>(n));
  report.outcomes.emplace_back("responses/n=" + std::to_string(n), outcome);

  std::vector<double> decide = reference.decide_s;
  report.add("setup_s", median_of(setup), "s");
  report.add("wall_s", drain_s, "s");
  report.add("decide_p50_ms", percentile(decide, 50.0) * 1e3, "ms");
  report.add("decide_p95_ms", percentile(decide, 95.0) * 1e3, "ms");
  report.add("task_completion_ratio",
             static_cast<double>(reference.completing) / static_cast<double>(n), "ratio");

  const std::size_t per_window =
      std::min(n, static_cast<std::size_t>(kOfferedPerSecond * kWindowSeconds));
  if (!percentile_supported(99.0, per_window)) report.fail("too few answers for p99");
  const std::vector<double> window_p99 = window_percentiles(open.answer_s, per_window, 99.0);
  report.add("svc.admit_p50_us",
             us(median_of(window_percentiles(open.answer_s, per_window, 50.0))), "us");
  report.add("svc.admit_p99_us", us(median_of(window_p99)), "us");
  report.add("topo.build_s", median_of(topo_s), "s");
  report.add("workload.generate_s", median_of(stream_s), "s");
  report.add("svc.construct_s", median_of(construct_s), "s");
  report.add("svc.drain_per_s", static_cast<double>(drain_n) / drain_s, "1/s");
  report.add("svc.accept_ratio",
             static_cast<double>(reference.accepted) / static_cast<double>(n), "ratio");
  report.add("svc.gen_late_max_us", us(open.late_max_s), "us");

  const taps::svc::ServiceStats& st = open.stats;
  report.add("svc.batches", static_cast<double>(st.batches), "count");
  report.add("svc.mean_batch",
             st.batches > 0 ? static_cast<double>(st.enqueued) / static_cast<double>(st.batches)
                            : 0.0,
             "count");
  report.add("svc.max_queue_depth", static_cast<double>(st.max_queue_depth), "count");
  report.add("svc.cross_pod_share",
             static_cast<double>(st.cross_pod_enqueued) / static_cast<double>(n), "ratio");
  report.add("svc.budget_rejects",
             static_cast<double>(st.by_reason[static_cast<std::size_t>(Reason::kBudgetExhausted)]),
             "count");
  taps::core::TapsCounters counters;
  std::size_t compactions = 0;
  std::size_t processed = 0;
  for (const taps::svc::ShardStats& s : open.shards) {
    accumulate(counters, s.taps);
    compactions += s.compactions;
    processed += s.processed;
  }
  report.add("svc.compactions", static_cast<double>(compactions), "count");
  add_taps_counters(report, counters, static_cast<double>(processed),
                    [](double v) { return v; });

  std::ostringstream note;
  note << n << " requests at " << kOfferedPerSecond << "/s; " << decide.size()
       << " decisions timed; drain " << static_cast<double>(drain_n) / drain_s
       << "/s; generator late by up to " << us(open.late_max_s) << " us";
  report.notes.push_back(note.str());
  std::vector<double> answers = open.answer_s;
  std::ostringstream dist;
  dist << "open-loop answer us: p50 " << us(percentile(answers, 50.0)) << " p90 "
       << us(percentile(answers, 90.0)) << " p99 " << us(percentile(answers, 99.0))
       << " p99.9 " << us(percentile(answers, 99.9)) << "; p99 of each " << kWindowSeconds
       << " s window:";
  for (const double w : window_p99) dist << " " << us(w);
  dist << "; drains s:";
  for (const double d : drains) dist << " " << d;
  report.notes.push_back(dist.str());

  if (o.trace) {
    AnswerCheck traced_check(&reference.digests, bad, "traced pump");
    const PumpRun traced = pump_run(*ft, stream, /*traced=*/true, traced_check);
    for (const std::string& p : traced_check.problems) report.fail(p);
    if (traced.unattributed != 0) {
      report.fail(std::to_string(traced.unattributed) + " requests not attributed to one shard");
    }
    std::vector<double> submit = open.submit_s;
    std::vector<double> after = open.after_submit_s;
    std::vector<double> process = traced.process_s;
    double busy = 0.0;
    for (const double d : traced.decide_s) busy += d;
    report.add("svc.submit_us_p50", us(percentile(submit, 50.0)), "us");
    report.add("svc.submit_us_p99", us(percentile(submit, 99.0)), "us");
    report.add("svc.after_submit_us_p50", us(percentile(after, 50.0)), "us");
    report.add("svc.after_submit_us_p99", us(percentile(after, 99.0)), "us");
    report.add("svc.process_us_p50", us(percentile(process, 50.0)), "us");
    report.add("svc.process_us_p99", us(percentile(process, 99.0)), "us");
    report.add("svc.global_busy_share", busy > 0 ? traced.global_busy_s / busy : 0.0, "ratio");
    report.add("trace.overhead_s", traced.seconds - reference.seconds, "s");
  }
  // The shards' planner callbacks cannot be wrapped from outside the
  // service, and the service runs no simulator or baseline scheduler.
  report.not_measured = {"sim", "sched", "core.arrival_s", "core.rates_s", "core.finish_s",
                           "core.bind_s", "core.us_per_flow_planned"};
  return report;
}

}  // namespace perfbench
