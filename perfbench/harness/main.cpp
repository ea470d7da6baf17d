// perfbench_harness: runs one benchmark workload and prints one JSON line
// with its metrics, checks and the context they were measured in. run.py
// builds this binary, runs it and turns the line into the benchmark result.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench_harness --self-test
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + json_string(items[i]);
  }
  return out + "]";
}

/// Why this binary must not report timings, or empty when it may.
std::string build_refusal() {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("not a Release build: ") + PERFBENCH_BUILD_TYPE;
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
  return {};
}

/// Peak RSS of this process. getrusage's ru_maxrss also counts the RSS of
/// the process that exec'd this one (Linux carries it across execve), so
/// the kernel's own high-water mark of this address space comes first.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int usage_error(const std::string& what) {
  std::cerr << "perfbench_harness: " << what << "\n"
            << "usage: perfbench_harness --workload <fig7_taps|fig7_baselines|svc_mixed> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
            << "       perfbench_harness --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool self_test = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage_error("bad --seed " + value);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0.0)) {
        return usage_error("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage_error("bad --trace " + value);
      o.trace = value == "1";
    } else {
      return usage_error("unknown argument " + arg);
    }
  }

  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "perfbench_harness: refusing to measure: " << refusal << "\n";
    return 3;
  }
  if (self_test) return perfbench::run_self_tests() == 0 ? 0 : 1;
  if (!have_seed || o.seconds <= 0.0) return usage_error("--seed and --seconds are required");

  // svc_mixed runs a generator and the service's dispatcher: two threads.
  const unsigned nproc = std::thread::hardware_concurrency();
  if (o.workload == "svc_mixed" && nproc < 2) {
    std::cerr << "perfbench_harness: svc_mixed needs 2 cores, have " << nproc << "\n";
    return 3;
  }

  perfbench::Report report;
  if (o.workload == "fig7_taps") {
    report = perfbench::run_fig7_taps(o);
  } else if (o.workload == "fig7_baselines") {
    report = perfbench::run_fig7_baselines(o);
  } else if (o.workload == "svc_mixed") {
    report = perfbench::run_svc_mixed(o);
  } else {
    return usage_error("unknown workload '" + o.workload + "'");
  }
  report.add("peak_rss_mb", peak_rss_mb(), "MB");

  std::ostringstream js;
  js << "{\"context\":{\"workload\":" << json_string(o.workload) << ",\"seed\":" << o.seed
     << ",\"seconds\":" << json_number(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"nproc\":" << nproc << ",\"compiler\":" << json_string(__VERSION__)
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS) << "}";
  js << ",\"attempted\":" << report.attempted << ",\"failed\":" << report.failed
     << ",\"failures\":" << json_list(report.failures)
     << ",\"not_measured\":" << json_list(report.not_measured)
     << ",\"notes\":" << json_list(report.notes) << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    js << (i > 0 ? "," : "") << json_string(m.name) << ":{\"value\":" << json_number(m.value)
       << ",\"unit\":" << json_string(m.unit) << "}";
  }
  js << "},\"outcomes\":{";
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    js << (i > 0 ? "," : "") << json_string(report.outcomes[i].first) << ":"
       << json_string(report.outcomes[i].second);
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
