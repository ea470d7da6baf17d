// End-to-end throughput of the admission controller service: a pod-local
// arrival stream on the scaled fat-tree pushed through svc::AdmissionService
// in its three operating points —
//   - admit/global_seq:       shards=1, pumped inline (the paper's single
//                             global controller);
//   - admit/sharded8_seq:     shards=8, pumped inline (sharded domains,
//                             still one thread — isolates the sharding win
//                             from the threading win);
//   - admit/sharded8_threads4: shards=8, dispatcher + 4 workers, batches of
//                             64 (the full service: submit-all then
//                             wait_idle).
// A second, mixed stream (~30% of tasks span two pods) measures
// hierarchical cross-pod admission through the same three operating points
// (admit_mixed/...).
//
// One sample = one fresh service admitting the whole stream; construction
// is untimed. Derived metrics record admissions/sec and the accept ratio
// per configuration, the sharded and threaded
// speedups over the global sequential baseline, and — on the mixed stream —
// the sharded service's accept-ratio agreement with the unsharded global
// controller (the admission-quality cost of going hierarchical).
//
// `--quick` shrinks the streams to CI-smoke scale. With `--json` the run
// writes BENCH_svc_admission.json for scripts/bench_compare.py.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "svc/service.hpp"
#include "topo/fattree.hpp"
#include "util/rng.hpp"

namespace {

using taps::bench::BenchRunner;

/// Pod-local single-flow tasks with strictly increasing arrivals (the
/// service's submit path requires monotone arrival order): ~2-20 ms
/// transfers at moderate deadline slack, so the planner accepts most of the
/// stream and every shard carries a live working set while admitting.
std::vector<taps::svc::TaskRequest> pod_local_stream(const taps::topo::FatTree& ft,
                                                     std::size_t n, std::uint64_t seed) {
  const int half = ft.k() / 2;
  const double capacity = ft.graph().links().front().capacity;
  taps::util::Rng rng(seed);
  std::vector<taps::svc::TaskRequest> out;
  out.reserve(n);
  double arrival = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    arrival += rng.exponential(0.01) + 1e-7;
    const int pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
    const auto host = [&] {
      return ft.host(pod, static_cast<int>(rng.uniform_int(0, half - 1)),
                     static_cast<int>(rng.uniform_int(0, half - 1)));
    };
    const taps::topo::NodeId src = host();
    taps::topo::NodeId dst = src;
    while (dst == src) dst = host();
    const double transfer = rng.uniform_real(0.002, 0.02);
    taps::svc::TaskRequest req;
    req.arrival = arrival;
    req.deadline = arrival + rng.uniform_real(1.2, 3.0) * transfer;
    req.flows.push_back({src, dst, transfer * capacity});
    out.push_back(std::move(req));
  }
  return out;
}

/// Mixed arrival stream: same shape as pod_local_stream, but ~30% of tasks
/// span two pods, which the sharded service admits on its global domain
/// under the per-pod uplink budget.
std::vector<taps::svc::TaskRequest> mixed_stream(const taps::topo::FatTree& ft,
                                                 std::size_t n, std::uint64_t seed) {
  const int half = ft.k() / 2;
  const double capacity = ft.graph().links().front().capacity;
  taps::util::Rng rng(seed);
  std::vector<taps::svc::TaskRequest> out;
  out.reserve(n);
  double arrival = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    arrival += rng.exponential(0.01) + 1e-7;
    const int src_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
    int dst_pod = src_pod;
    if (rng.bernoulli(0.3)) {
      while (dst_pod == src_pod) {
        dst_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
      }
    }
    const auto host = [&](int pod) {
      return ft.host(pod, static_cast<int>(rng.uniform_int(0, half - 1)),
                     static_cast<int>(rng.uniform_int(0, half - 1)));
    };
    const taps::topo::NodeId src = host(src_pod);
    taps::topo::NodeId dst = src;
    while (dst == src) dst = host(dst_pod);
    const double transfer = rng.uniform_real(0.002, 0.02);
    taps::svc::TaskRequest req;
    req.arrival = arrival;
    req.deadline = arrival + rng.uniform_real(1.2, 3.0) * transfer;
    req.flows.push_back({src, dst, transfer * capacity});
    out.push_back(std::move(req));
  }
  return out;
}

struct RunOutcome {
  double seconds = 0.0;
  std::size_t accepted = 0;
};

/// One timed admission run: fresh service (untimed), then submit the whole
/// stream and drain it — pump() inline, or wait_idle() on a started service.
RunOutcome run_stream(const taps::topo::FatTree& ft,
                      const std::vector<taps::svc::TaskRequest>& requests,
                      const taps::svc::ServiceConfig& config, bool started) {
  taps::svc::AdmissionService service(ft, config);
  if (started) service.start();
  const auto t0 = std::chrono::steady_clock::now();
  for (const taps::svc::TaskRequest& r : requests) (void)service.submit(r);
  if (started) {
    service.wait_idle();
  } else {
    service.pump();
  }
  const auto t1 = std::chrono::steady_clock::now();
  service.stop();
  const taps::svc::ServiceStats stats = service.stats();
  if (stats.responses != requests.size()) {
    std::cerr << "bench_svc_admission: response count mismatch ("
              << stats.responses << " != " << requests.size() << ")\n";
  }
  return {std::chrono::duration<double>(t1 - t0).count(), stats.accepted};
}

struct ConfigResult {
  double median = 0.0;
  std::size_t accepted = 0;
};

/// Time `repeats` runs of one configuration and record samples plus the
/// derived admissions/sec and accept-ratio metrics.
ConfigResult bench_config(BenchRunner& runner, const std::string& name,
                          const taps::topo::FatTree& ft,
                          const std::vector<taps::svc::TaskRequest>& requests,
                          const taps::svc::ServiceConfig& config, bool started) {
  const std::size_t repeats = runner.options().repeats;
  std::vector<double> samples;
  samples.reserve(repeats);
  std::size_t accepted = 0;
  (void)run_stream(ft, requests, config, started);  // warmup, untimed
  for (std::size_t r = 0; r < repeats; ++r) {
    const RunOutcome out = run_stream(ft, requests, config, started);
    samples.push_back(out.seconds);
    accepted = out.accepted;
  }
  const double median = runner.add_samples(name, std::move(samples)).median;
  runner.add_metric(name + "/admissions_per_sec",
                    static_cast<double>(accepted) / median);
  runner.add_metric(name + "/accept_ratio",
                    static_cast<double>(accepted) /
                        static_cast<double>(requests.size()));
  return {median, accepted};
}

}  // namespace

int main(int argc, char** argv) {
  taps::util::Cli cli("bench_svc_admission",
                      "admission-service throughput: pod-local and mixed cross-pod "
                      "arrival streams through the global sequential controller, the "
                      "pod-sharded hierarchical controller, and the batched+threaded "
                      "service");
  taps::bench::add_common_options(cli);
  cli.add_flag("quick", "tiny CI-smoke scale (shorter arrival stream)");
  if (!cli.parse(argc, argv)) return 1;
  const taps::bench::CommonOptions o = taps::bench::read_common_options(cli);
  const bool quick = cli.flag("quick");

  taps::bench::banner("svc_admission", "admission controller service throughput", o);
  if (quick) std::cout << "(quick mode: CI-smoke scale)\n\n";

  BenchRunner runner;
  runner.options().repeats = std::max<std::size_t>(o.repeats, 5);

  const taps::topo::FatTree ft(taps::topo::FatTreeConfig::scaled());  // k=8, 128 hosts
  const std::size_t n = quick ? 1000 : 20000;
  const std::vector<taps::svc::TaskRequest> requests = pod_local_stream(ft, n, o.seed);

  taps::svc::ServiceConfig config;
  config.queue_capacity = requests.size() + 1;  // submit-all never backpressures
  config.shard.compact_interval = 1024;

  config.shards = 1;
  config.threads = 0;
  const ConfigResult global_seq =
      bench_config(runner, "admit/global_seq", ft, requests, config, /*started=*/false);

  config.shards = 8;
  const ConfigResult sharded_seq =
      bench_config(runner, "admit/sharded8_seq", ft, requests, config, /*started=*/false);

  config.threads = 4;
  config.max_batch = 64;
  const ConfigResult sharded_threaded = bench_config(runner, "admit/sharded8_threads4", ft,
                                                     requests, config, /*started=*/true);

  runner.add_metric("admit/sharded_speedup", global_seq.median / sharded_seq.median);
  runner.add_metric("admit/threaded_speedup", global_seq.median / sharded_threaded.median);

  // Hierarchical cross-pod admission: the mixed stream through the same
  // operating points. Spanning tasks ride the dedicated global domain
  // (local reserve -> global commit).
  const std::vector<taps::svc::TaskRequest> mixed = mixed_stream(ft, n, o.seed + 1);
  config.shards = 1;
  config.threads = 0;
  const ConfigResult mixed_global =
      bench_config(runner, "admit_mixed/global_seq", ft, mixed, config, /*started=*/false);

  config.shards = 8;
  const ConfigResult mixed_sharded =
      bench_config(runner, "admit_mixed/sharded8_seq", ft, mixed, config, /*started=*/false);

  config.threads = 4;
  const ConfigResult mixed_threaded = bench_config(runner, "admit_mixed/sharded8_threads4",
                                                   ft, mixed, config, /*started=*/true);


  runner.add_metric("admit_mixed/sharded_speedup", mixed_global.median / mixed_sharded.median);
  runner.add_metric("admit_mixed/threaded_speedup",
                    mixed_global.median / mixed_threaded.median);
  // Admission-quality agreement with the unsharded controller: 1.0 means
  // hierarchical admission accepted exactly as much of the mixed stream.
  runner.add_metric("admit_mixed/accept_agreement",
                    static_cast<double>(mixed_sharded.accepted) /
                        static_cast<double>(std::max<std::size_t>(1, mixed_global.accepted)));

  for (const auto& [name, value] : runner.metrics()) {
    std::cout << "metric  " << name << " = " << value << "\n";
  }

  taps::bench::maybe_write_metrics_csv(o, runner);
  taps::bench::maybe_write_json(o, "svc_admission", runner);
  return 0;
}
