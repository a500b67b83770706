// The three benchmark workloads. Each drives core::Pleroma from one thread
// (threads = 1, metrics registry on, program tracer off), checks its outputs
// against an exact oracle, and fills a RunResult.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  MetricList metrics;
  /// Virtual-time outputs of the run's deterministic part: identical for
  /// identical seeds.
  std::vector<std::pair<std::string, std::uint64_t>> digest;
  /// Failed correctness checks, by description.
  std::vector<std::string> checkFailures;
  /// Timed-phase wall and thread CPU seconds (noise provenance).
  double timedWallS = 0.0;
  double timedCpuS = 0.0;
  SpanLog spans;
};

const std::vector<std::string>& workloadNames();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult runWorkload(const RunOptions& opts);

}  // namespace perfbench
