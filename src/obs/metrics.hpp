// MetricsRegistry — named counters, gauges, and log-bucketed latency
// histograms for the running system (tentpole of the observability layer).
//
// Design constraints, in order:
//  * Near-zero hot-path cost. A metric handle is a raw pointer resolved
//    once at attach time; an update is one load of the family enable flag
//    plus, when enabled, a plain add. The simulation is single-threaded,
//    so values are plain integers and doubles, not atomics. Components
//    that were never attached skip even that via a null-pointer check.
//  * Mergeable. Registries from independent partitions combine exactly
//    (counters add, histograms add bucket-wise), which is what lets
//    multi-controller benches report fleet-wide percentiles.
//  * Disablement is per *family* — the prefix before the first '.' of the
//    metric name ("flow_table.lookups" belongs to family "flow_table") —
//    so a whole subsystem's instrumentation is switched with one flag.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime. Registration is mutex-guarded; updates are not.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/json.hpp"

namespace pleroma::obs {

class MetricsRegistry;

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept {
    if (*enabled_) value_ += by;
  }
  std::uint64_t value() const noexcept { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(const bool* enabled) noexcept : enabled_(enabled) {}
  std::uint64_t value_ = 0;
  const bool* enabled_;
};

/// Last-write-wins instantaneous value (queue depths, ratios, snapshots).
class Gauge {
 public:
  void set(double v) noexcept {
    if (*enabled_) value_ = v;
  }
  void add(double by) noexcept {
    if (*enabled_) value_ += by;
  }
  double value() const noexcept { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const bool* enabled) noexcept : enabled_(enabled) {}
  double value_ = 0.0;
  const bool* enabled_;
};

/// Log-bucketed histogram: geometric buckets with kSubBuckets linear
/// sub-buckets per power of two (~12% relative resolution), plus exact
/// count/sum/min/max. Bucket 0 absorbs values < 1.0 (and all non-positive
/// values); percentile queries answer with the bucket upper bound clamped
/// to the observed [min, max].
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kOctaves = 64;
  static constexpr int kBucketCount = 1 + kOctaves * kSubBuckets;

  void record(double v) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// 0.0 when empty.
  double min() const noexcept;
  double max() const noexcept;
  /// Nearest-rank percentile estimate, q in [0, 1]; 0.0 when empty.
  double percentile(double q) const;

  std::uint64_t bucketValue(int index) const {
    return buckets_[static_cast<std::size_t>(index)];
  }

  /// Bucket geometry, exposed for tests: index 0 covers [0, 1); index
  /// 1 + o*kSubBuckets + s covers [2^o * (1 + s/kSubBuckets),
  /// 2^o * (1 + (s+1)/kSubBuckets)).
  static int bucketIndex(double v) noexcept;
  static double bucketLowerBound(int index) noexcept;
  static double bucketUpperBound(int index) noexcept;

  void merge(const Histogram& other) noexcept;

 private:
  friend class MetricsRegistry;
  explicit Histogram(const bool* enabled) noexcept : enabled_(enabled) {}
  void reset() noexcept;

  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  // valid only when count_ > 0
  double max_ = 0.0;
  const bool* enabled_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Gets or creates; names are "family.metric" (family = prefix before
  /// the first '.', or the whole name when there is none).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  void setFamilyEnabled(const std::string& family, bool enabled);
  void setAllFamiliesEnabled(bool enabled);
  bool familyEnabled(const std::string& family) const;
  static std::string familyOf(const std::string& name);

  /// The family's enable flag itself (created on demand, stable for the
  /// registry's lifetime). Hot paths that update several metrics per event
  /// gate the whole block on one load of this flag instead of paying the
  /// per-metric check on each handle.
  const bool* familyEnabledFlag(const std::string& family);

  /// Adds every metric of `other` into this registry (creating missing
  /// ones). A name registered as a different metric kind throws.
  void merge(const MetricsRegistry& other);

  /// Zeroes all values; registrations and enable flags are kept.
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, mean, min, max, p50, p90, p99}}}; zero-count metrics included.
  JsonValue toJson() const;
  /// One line per metric, sorted by name.
  std::string toText() const;

 private:
  bool* familyFlag(const std::string& family);

  mutable std::mutex mu_;  // guards the maps (registration), not the values
  std::map<std::string, std::unique_ptr<bool>> families_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace pleroma::obs
