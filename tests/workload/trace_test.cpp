#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "topo/fattree.hpp"
#include "topo/tree.hpp"
#include "workload/task_generator.hpp"

namespace taps::workload {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Trace, RoundTripPreservesWorkload) {
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network original(tree);
  WorkloadConfig c;
  c.task_count = 20;
  c.flows_per_task_mean = 5.0;
  util::Rng rng(31);
  (void)generate(original, c, rng);

  const std::string path = temp_path("taps_trace_roundtrip.csv");
  save_trace(original, path);

  net::Network loaded(tree);
  const std::size_t tasks = load_trace(loaded, path);
  EXPECT_EQ(tasks, original.tasks().size());
  ASSERT_EQ(loaded.flows().size(), original.flows().size());
  for (std::size_t i = 0; i < original.flows().size(); ++i) {
    const auto& a = original.flows()[i].spec;
    const auto& b = loaded.flows()[i].spec;
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_DOUBLE_EQ(a.size, b.size);
    EXPECT_DOUBLE_EQ(a.deadline, b.deadline);
    EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
  }
  std::remove(path.c_str());
}

TEST(Trace, LoadRejectsNonEmptyNetwork) {
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network net(tree);
  WorkloadConfig c;
  c.task_count = 2;
  util::Rng rng(1);
  (void)generate(net, c, rng);
  const std::string path = temp_path("taps_trace_nonempty.csv");
  save_trace(net, path);
  EXPECT_THROW((void)load_trace(net, path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileThrows) {
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network net(tree);
  EXPECT_THROW((void)load_trace(net, "/nonexistent/trace.csv"), std::runtime_error);
}

TEST(Trace, MalformedRowThrows) {
  const std::string path = temp_path("taps_trace_bad.csv");
  {
    std::ofstream out(path);
    out << "task,arrival,deadline,flow,src,dst,size\n1,0.0,1.0\n";
  }
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network net(tree);
  EXPECT_THROW((void)load_trace(net, path), std::runtime_error);
  std::remove(path.c_str());
}


TEST(Trace, InvalidFlowsAreRejectedWithTheirRowNumber) {
  const topo::FatTree ft(topo::FatTreeConfig::scaled());
  const topo::NodeId h0 = ft.hosts()[0];
  const topo::NodeId h1 = ft.hosts()[1];
  const topo::NodeId sw = ft.core_switch(0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* what;
    topo::NodeId src;
    topo::NodeId dst;
    double size;
    double arrival;
    double deadline;
  };
  const Case cases[] = {
      {"switch src", sw, h1, 1e6, 0.0, 1.0},   {"src == dst", h0, h0, 1e6, 0.0, 1.0},
      {"negative size", h0, h1, -5.0, 0.0, 1.0}, {"zero size", h0, h1, 0.0, 0.0, 1.0},
      {"dst out of range", h0, 99999, 1e6, 0.0, 1.0}, {"NaN arrival", h0, h1, 1e6, nan, 1.0},
      {"deadline == arrival", h0, h1, 1e6, 1.0, 1.0},
  };
  const std::string path = temp_path("taps_trace_invalid.csv");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    net::FlowSpec fs;
    fs.src = c.src;
    fs.dst = c.dst;
    fs.size = c.size;
    net::Network net(ft);
    EXPECT_THROW((void)net.add_task(c.arrival, c.deadline, {&fs, 1}), std::invalid_argument);
    EXPECT_TRUE(net.tasks().empty());
    EXPECT_TRUE(net.flows().empty());

    {
      std::ofstream out(path);
      out << "task,arrival,deadline,flow,src,dst,size\n"
          << "0,0,1,0," << h0 << ',' << h1 << ",1000000\n"
          << "1," << c.arrival << ',' << c.deadline << ",1," << c.src << ',' << c.dst << ','
          << c.size << '\n';
    }
    net::Network loaded(ft);
    try {
      (void)load_trace(loaded, path);
      ADD_FAILURE() << "load_trace accepted the row";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("data row 2"), std::string::npos) << e.what();
    }
  }
  std::remove(path.c_str());

  // A later wave may not arrive before its task.
  net::Network net(ft);
  net::FlowSpec fs;
  fs.src = h0;
  fs.dst = h1;
  fs.size = 1e6;
  const net::TaskId tid = net.add_task(1.0, 2.0, {&fs, 1});
  EXPECT_THROW(net.extend_task(tid, 0.5, {&fs, 1}), std::invalid_argument);
  EXPECT_EQ(net.flows().size(), 1u);
}

}  // namespace
}  // namespace taps::workload
