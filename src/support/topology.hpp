// CPU topology from sysfs, for domain-aware placement.
//
// The paper's composition costs are cache-coherence costs, and
// coherence is not flat: two threads sharing an L3 slice exchange a
// line in tens of nanoseconds, two threads on different packages pay a
// cross-socket round trip several times that. The sharding and
// combining layers can exploit the difference — pin workers so
// domains fill compactly or interleave (workload::set_pin_workers) —
// but only if somebody tells them where the domain boundaries are. This header does exactly that,
// once, from /sys/devices/system/cpu:
//
//   cpu<N>/cache/index3/shared_cpu_list   — L3 sharing domains (best
//                                           granularity: the last
//                                           level before DRAM)
//   cpu<N>/topology/package_id            — fallback when index3 is
//                                           absent (VMs, old kernels)
//   /sys/devices/system/node/node<K>/cpulist — NUMA node per domain,
//                                           recorded for reporting
//
// Degradation is graceful and total: any unreadable file collapses to
// "one domain holding every CPU", which makes every domain-aware
// policy coincide with its domain-oblivious counterpart — correct
// everywhere, informative where sysfs exists. detect() takes the
// sysfs root as a parameter so tests fabricate miniature machines in a
// temp directory; system() caches one detection per process.
#pragma once

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace scm {

// Parses the kernel's cpulist format: comma-separated decimal ranges,
// e.g. "0-3,8,10-11". Malformed chunks are skipped rather than fatal —
// a topology misread must degrade, never crash a benchmark.
inline std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream ss(text);
  std::string chunk;
  while (std::getline(ss, chunk, ',')) {
    const auto dash = chunk.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(chunk));
      } else {
        const int lo = std::stoi(chunk.substr(0, dash));
        const int hi = std::stoi(chunk.substr(dash + 1));
        for (int c = lo; c <= hi; ++c) cpus.push_back(c);
      }
    } catch (...) {
      // skip malformed chunk
    }
  }
  return cpus;
}

struct CpuTopology {
  struct Domain {
    std::vector<int> cpus;
    int numa_node = -1;  // -1: unknown / no NUMA information
  };

  std::vector<Domain> domains;

  [[nodiscard]] int domain_count() const noexcept {
    return static_cast<int>(domains.size());
  }

  // Domain index of a CPU; 0 (the always-present first domain) for
  // CPUs the detection never saw — the single-domain degradation.
  [[nodiscard]] int domain_of(int cpu) const noexcept {
    for (std::size_t d = 0; d < domains.size(); ++d) {
      const auto& cs = domains[d].cpus;
      if (std::find(cs.begin(), cs.end(), cpu) != cs.end()) {
        return static_cast<int>(d);
      }
    }
    return 0;
  }

  // One detection pass against `sysfs_root` (default the real /sys).
  static CpuTopology detect(const std::string& sysfs_root = "/sys") {
    CpuTopology topo;
    const std::string cpu_root = sysfs_root + "/devices/system/cpu";

    std::vector<int> online = parse_cpu_list(read_file(cpu_root + "/online"));
    if (online.empty()) {
      const int n = static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()));
      for (int c = 0; c < n; ++c) online.push_back(c);
    }

    // Group CPUs by L3 sharing set; fall back to package id, then to
    // one catch-all domain. The grouping key is the raw file text —
    // two CPUs share a domain exactly when the kernel reports the
    // same sharing set.
    std::vector<std::string> keys;
    for (const int cpu : online) {
      const std::string base = cpu_root + "/cpu" + std::to_string(cpu);
      std::string key = read_file(base + "/cache/index3/shared_cpu_list");
      if (key.empty()) {
        const std::string pkg = read_file(base + "/topology/package_id");
        key = pkg.empty() ? std::string("all") : "pkg:" + pkg;
      }
      const auto it = std::find(keys.begin(), keys.end(), key);
      std::size_t idx;
      if (it == keys.end()) {
        keys.push_back(key);
        topo.domains.emplace_back();
        idx = topo.domains.size() - 1;
      } else {
        idx = static_cast<std::size_t>(it - keys.begin());
      }
      topo.domains[idx].cpus.push_back(cpu);
    }

    // NUMA annotation (reporting only): the node whose cpulist holds
    // the domain's first CPU.
    const std::string node_root = sysfs_root + "/devices/system/node";
    for (int node = 0; node < 1024; ++node) {
      const std::string list =
          read_file(node_root + "/node" + std::to_string(node) + "/cpulist");
      if (list.empty()) break;
      for (const int cpu : parse_cpu_list(list)) {
        for (auto& d : topo.domains) {
          if (d.numa_node < 0 && !d.cpus.empty() && d.cpus.front() == cpu) {
            d.numa_node = node;
          }
        }
      }
    }
    return topo;
  }

  // The process-wide topology, detected once on first use.
  static const CpuTopology& system() {
    static const CpuTopology topo = detect();
    return topo;
  }

 private:
  static std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return {};
    std::string line;
    std::getline(in, line);
    // Trim trailing whitespace so identical sharing sets compare equal
    // regardless of the kernel's newline habits.
    while (!line.empty() &&
           (line.back() == '\n' || line.back() == '\r' ||
            line.back() == ' ')) {
      line.pop_back();
    }
    return line;
  }
};

}  // namespace scm
