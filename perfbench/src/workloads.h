// The three workloads and the run loop they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;    // scratch directory for the WAL and socket
  std::string trace_out;  // span dump path (traced run)
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string meta;   // JSON object: sizes, threads, sample counts, ...
  std::string error;  // set when the run could not complete
};

bool KnownWorkload(const std::string& name);

/// Sets up, measures and checks one workload. With cfg.trace the report
/// holds per-layer metrics, otherwise end-to-end metrics.
RunReport RunWorkload(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
