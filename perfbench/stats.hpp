// The benchmark's statistics: tail-aware percentiles, in-memory spans with
// per-name self time, and the named metric list a run prints. Kept free of
// PLEROMA types so the self-tests exercise it on synthetic data.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Samples are reported only with enough of them beyond the percentile.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank q-quantile (0 < q <= 1) of `samples`, or nullopt when fewer
/// than kMinTail samples lie strictly beyond it: a tail the sample cannot
/// support is refused, never extrapolated.
template <typename T>
std::optional<double> percentile(std::span<const T> in, double q) {
  const std::size_t n = in.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, n) - 1;
  if (n - (idx + 1) < kMinTail) return std::nullopt;
  std::vector<T> samples(in.begin(), in.end());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return static_cast<double>(samples[idx]);
}
template <typename T>
std::optional<double> percentile(const std::vector<T>& samples, double q) {
  return percentile(std::span<const T>(samples), q);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Division that reports 0 for an empty base instead of NaN.
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Value at the nearest rank of the q-quantile (0 <= q <= 1) of a non-empty
/// sample, with no tail requirement.
inline double rankValue(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(v.size() - 1) + 1e-9));
  return v[idx];
}

/// Rank, among a run's blocks ordered fastest first, of the figure a
/// BlockSeries reports: the 2nd percentile, the fast edge of the run.
inline constexpr double kFastRank = 0.02;
/// The fewest blocks whose fast edge is used: with fewer, a run rarely
/// holds a quiet block, and the whole run's figure is steadier.
inline constexpr std::size_t kMinEdgeBlocks = 50;

/// A stream of per-unit wall times in µs (per event of a step, or per call),
/// kept whole and also cut into consecutive blocks of `block` samples, of
/// which only each block's median and mean are kept; a trailing partial
/// block is dropped.
///
/// The median and the rate are the fast edge over blocks: the 2nd
/// percentile of the blocks' medians, and the rate at the 2nd percentile of
/// their mean times. Interference from outside the program (a shared
/// machine's varying speed) only ever slows a block down. It comes in
/// stretches of seconds to tens of seconds that can raise even the fastest
/// block of a stretch by 40%, so a run's median, or even its lower decile,
/// follows how much of the run the stretches covered; the fast edge
/// follows the program's own speed as long as some of the run was quiet.
/// With fewer than kMinEdgeBlocks blocks the median and the rate are the
/// whole run's instead.
///
/// Tails are the whole run's: a p99 needs blocks of 1,000 samples and a p90
/// of 100, and a quiet stretch that long is rare, while the slowest few
/// percent of a run come from the stretches of interference that every run
/// has.
class BlockSeries {
 public:
  explicit BlockSeries(std::size_t block) : block_(block) { buf_.reserve(block_); }

  void add(double us) {
    all_.push_back(static_cast<float>(us));
    buf_.push_back(us);
    if (buf_.size() == block_) {
      double sum = 0.0;
      for (const double x : buf_) sum += x;
      medians_.push_back(rankValue(buf_, 0.50));
      means_.push_back(sum / static_cast<double>(buf_.size()));
      buf_.clear();
    }
  }
  std::size_t count() const noexcept { return all_.size(); }

  /// Fast edge of the blocks' medians (the whole run's median with fewer
  /// than kMinEdgeBlocks blocks); nullopt when the sample cannot support a
  /// median.
  std::optional<double> median() const {
    if (medians_.size() < kMinEdgeBlocks) return perfbench::percentile(all_, 0.50);
    return rankValue(medians_, kFastRank);
  }

  /// Units per second at the fast edge of the blocks' mean time per unit
  /// (over the whole run with fewer than kMinEdgeBlocks blocks); nullopt
  /// with no samples, 0 when no time passed.
  std::optional<double> rate() const {
    if (all_.empty()) return std::nullopt;
    if (means_.size() < kMinEdgeBlocks) {
      double sum = 0.0;
      for (const float x : all_) sum += x;
      return ratio(1e6 * static_cast<double>(all_.size()), sum);
    }
    return ratio(1e6, rankValue(means_, kFastRank));
  }

  /// The whole run's q-quantile; nullopt when the sample cannot support it.
  std::optional<double> tail(double q) const { return perfbench::percentile(all_, q); }

 private:
  std::size_t block_;
  std::vector<double> buf_;
  std::vector<double> medians_, means_;
  std::vector<float> all_;
};

// ---- spans ---------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the enclosing span in the
/// same log (-1 for a root step span).
struct Span {
  int name = 0;
  int parent = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Spans kept in memory for the whole run and written out at exit.
class SpanLog {
 public:
  int intern(const std::string& name) {
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end()) return static_cast<int>(it - names_.begin());
    names_.push_back(name);
    return static_cast<int>(names_.size()) - 1;
  }
  int open(int name, int parent, std::int64_t start) {
    spans_.push_back(Span{name, parent, start, start});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int idx, std::int64_t end) {
    spans_[static_cast<std::size_t>(idx)].end = end;
  }
  void add(int name, int parent, std::int64_t start, std::int64_t end) {
    spans_.push_back(Span{name, parent, start, end});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<std::string>& names() const noexcept { return names_; }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (the union of their intervals, clipped to the
/// parent, so overlapping children are not subtracted twice).
inline std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = p.start;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, p.end);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (p.end - p.start) - covered;
  }
  return self;
}

/// Self time summed per span name.
inline std::map<std::string, std::int64_t> selfTimeByName(const SpanLog& log) {
  const std::vector<std::int64_t> self = selfTimes(log.spans());
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < self.size(); ++i) {
    out[log.names()[static_cast<std::size_t>(log.spans()[i].name)]] += self[i];
  }
  return out;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The named metrics of one run plus the sample count behind each timing.
class MetricList {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  /// Emits `name` when `v` holds, computed from `n` samples; records the
  /// refusal otherwise. Returns whether it was emitted.
  bool setIf(const std::string& name, std::optional<double> v, std::size_t n,
             const std::string& unit) {
    samples_[name] = n;
    if (!v) {
      refused_.push_back(name);
      return false;
    }
    set(name, *v, unit);
    return true;
  }
  template <typename T>
  bool setPercentile(const std::string& name, const std::vector<T>& samples,
                     double q, const std::string& unit) {
    return setIf(name, percentile(samples, q), samples.size(), unit);
  }
  void setSamples(const std::string& name, std::size_t n) { samples_[name] = n; }

  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const std::map<std::string, std::size_t>& samples() const noexcept {
    return samples_;
  }
  const std::vector<std::string>& refused() const noexcept { return refused_; }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> samples_;
  std::vector<std::string> refused_;
};

}  // namespace perfbench
