// Workload traces: persist a generated workload to CSV and reload it, so a
// run can be reproduced or inspected independently of the generator.
//
// Format (one row per flow, header included):
//   task,arrival,deadline,flow,src,dst,size
#pragma once

#include <string>

#include "net/network.hpp"

namespace taps::workload {

/// Write the tasks/flows registered in `net` to `path`.
void save_trace(const net::Network& net, const std::string& path);

/// Load a trace into `net` (which must be empty). Hosts are referenced by
/// node id and must exist in the bound topology. Returns the task count.
/// Throws std::invalid_argument naming the data row (1-based, header
/// excluded) of the first flow Network::check_flow rejects.
std::size_t load_trace(net::Network& net, const std::string& path);

}  // namespace taps::workload
