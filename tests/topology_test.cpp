// Tests for the sysfs topology reader (support/topology.hpp):
//
//  * parse_cpu_list handles every kernel cpulist shape (singletons,
//    ranges, mixtures) and skips malformed chunks instead of throwing;
//  * detect() against a FABRICATED sysfs tree in a temp directory
//    groups CPUs into L3 domains from cache/index3/shared_cpu_list,
//    falls back to topology/package_id where index3 is absent, and
//    annotates domains with their NUMA node;
//  * detect() against an empty root degrades to exactly one domain
//    holding every CPU — the shape that makes every domain-aware
//    policy coincide with its domain-oblivious counterpart;
//  * domain_of() answers 0 for CPUs the detection never saw;
//  * on the real machine every online CPU maps to a valid domain.
#include "support/topology.hpp"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace scm {
namespace {

namespace fs = std::filesystem;

TEST(ParseCpuList, HandlesKernelShapes) {
  EXPECT_EQ(parse_cpu_list("0"), (std::vector<int>{0}));
  EXPECT_EQ(parse_cpu_list("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpu_list("0-2,8,10-11"),
            (std::vector<int>{0, 1, 2, 8, 10, 11}));
  EXPECT_TRUE(parse_cpu_list("").empty());
}

TEST(ParseCpuList, SkipsMalformedChunksInsteadOfThrowing) {
  // The well-formed chunks survive; garbage between them is dropped.
  EXPECT_EQ(parse_cpu_list("0-1,zap,3"), (std::vector<int>{0, 1, 3}));
  EXPECT_TRUE(parse_cpu_list("nonsense").empty());
}

// Builds a miniature /sys under a fresh temp directory. Layout is the
// real kernel layout; content is whatever the test dictates.
class FakeSysfs {
 public:
  FakeSysfs() {
#if defined(__unix__) || defined(__APPLE__)
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    root_ = fs::temp_directory_path() /
            ("scm-topo-" + std::to_string(pid) + "-" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  ~FakeSysfs() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << content << "\n";
  }

  [[nodiscard]] std::string path() const { return root_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path root_;
};

// Two L3 complexes of two CPUs each, one NUMA node per complex — the
// canonical chiplet shape.
TEST(CpuTopology, GroupsByL3SharingAndAnnotatesNuma) {
  FakeSysfs sys;
  sys.write("devices/system/cpu/online", "0-3");
  for (int c = 0; c < 4; ++c) {
    const std::string base = "devices/system/cpu/cpu" + std::to_string(c);
    sys.write(base + "/cache/index3/shared_cpu_list", c < 2 ? "0-1" : "2-3");
  }
  sys.write("devices/system/node/node0/cpulist", "0-1");
  sys.write("devices/system/node/node1/cpulist", "2-3");

  const CpuTopology topo = CpuTopology::detect(sys.path());
  ASSERT_EQ(topo.domain_count(), 2);
  EXPECT_EQ(topo.domains[0].cpus, (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.domains[1].cpus, (std::vector<int>{2, 3}));
  EXPECT_EQ(topo.domains[0].numa_node, 0);
  EXPECT_EQ(topo.domains[1].numa_node, 1);
  EXPECT_EQ(topo.domain_of(0), 0);
  EXPECT_EQ(topo.domain_of(3), 1);
}

// No index3 anywhere (VMs, old kernels): package_id decides.
TEST(CpuTopology, FallsBackToPackageId) {
  FakeSysfs sys;
  sys.write("devices/system/cpu/online", "0-3");
  for (int c = 0; c < 4; ++c) {
    sys.write("devices/system/cpu/cpu" + std::to_string(c) +
                  "/topology/package_id",
              c < 2 ? "0" : "1");
  }
  const CpuTopology topo = CpuTopology::detect(sys.path());
  ASSERT_EQ(topo.domain_count(), 2);
  EXPECT_EQ(topo.domains[0].cpus, (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.domains[1].cpus, (std::vector<int>{2, 3}));
  // No node files fabricated: NUMA stays unknown, never invented.
  EXPECT_EQ(topo.domains[0].numa_node, -1);
}

// Nothing readable at all: one domain, every CPU, nothing crashes.
TEST(CpuTopology, EmptyRootDegradesToOneDomain) {
  FakeSysfs sys;  // exists but holds no files
  const CpuTopology topo = CpuTopology::detect(sys.path());
  ASSERT_EQ(topo.domain_count(), 1);
  EXPECT_FALSE(topo.domains[0].cpus.empty());
  // Unknown CPUs answer the always-present domain 0.
  EXPECT_EQ(topo.domain_of(9999), 0);
}

// Mixed detection: CPUs with an L3 key and CPUs with only a package id
// land in distinct domains (the keys never collide by construction).
TEST(CpuTopology, MixedKeysStayDistinct) {
  FakeSysfs sys;
  sys.write("devices/system/cpu/online", "0-2");
  sys.write("devices/system/cpu/cpu0/cache/index3/shared_cpu_list", "0");
  sys.write("devices/system/cpu/cpu1/topology/package_id", "7");
  sys.write("devices/system/cpu/cpu2/topology/package_id", "7");
  const CpuTopology topo = CpuTopology::detect(sys.path());
  ASSERT_EQ(topo.domain_count(), 2);
  EXPECT_EQ(topo.domain_of(0), 0);
  EXPECT_EQ(topo.domain_of(1), 1);
  EXPECT_EQ(topo.domain_of(2), 1);
}

// The real machine: whatever sysfs says, the answers must be
// internally consistent — every CPU maps into system()'s domains.
TEST(CpuTopology, SystemTopologyMapsEveryCpuToADomain) {
  const CpuTopology& topo = CpuTopology::system();
  ASSERT_GE(topo.domain_count(), 1);
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  for (int cpu = 0; cpu < cpus; ++cpu) {
    const int d = topo.domain_of(cpu);
    EXPECT_GE(d, 0) << "cpu " << cpu;
    EXPECT_LT(d, topo.domain_count()) << "cpu " << cpu;
  }
}

}  // namespace
}  // namespace scm
