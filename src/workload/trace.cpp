#include "workload/trace.hpp"

#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "util/csv.hpp"

namespace taps::workload {

void save_trace(const net::Network& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace for writing: " + path);
  util::CsvWriter csv(out);
  csv.row("task", "arrival", "deadline", "flow", "src", "dst", "size");
  for (const auto& t : net.tasks()) {
    for (const net::FlowId fid : t.spec.flows) {
      const auto& f = net.flow(fid);
      csv.row(static_cast<long long>(t.id()), t.spec.arrival, t.spec.deadline,
              static_cast<long long>(fid), static_cast<long long>(f.spec.src),
              static_cast<long long>(f.spec.dst), f.spec.size);
    }
  }
}

std::size_t load_trace(net::Network& net, const std::string& path) {
  if (!net.tasks().empty()) {
    throw std::invalid_argument("load_trace expects an empty network");
  }
  const auto rows = util::read_csv(path);
  if (rows.empty()) throw std::runtime_error("empty trace: " + path);

  struct PendingTask {
    double arrival = 0.0;
    double deadline = 0.0;
    std::vector<net::FlowSpec> flows;
  };
  std::map<long long, PendingTask> tasks;  // ordered by original task id

  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& r = rows[i];
    if (r.size() != 7) throw std::runtime_error("malformed trace row in " + path);
    PendingTask& t = tasks[std::stoll(r[0])];
    t.arrival = std::stod(r[1]);
    t.deadline = std::stod(r[2]);
    net::FlowSpec fs;
    fs.src = static_cast<topo::NodeId>(std::stol(r[4]));
    fs.dst = static_cast<topo::NodeId>(std::stol(r[5]));
    fs.size = std::stod(r[6]);
    try {
      net.check_flow(fs, t.arrival, t.deadline);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(path + ": data row " + std::to_string(i) + ": " + e.what());
    }
    t.flows.push_back(fs);
  }
  for (const auto& [id, t] : tasks) {
    net.add_task(t.arrival, t.deadline, t.flows);
  }
  return tasks.size();
}

}  // namespace taps::workload
