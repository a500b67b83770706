#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pleroma::obs {

// ---- Histogram ------------------------------------------------------------

int Histogram::bucketIndex(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // negatives and NaN land in bucket 0 too
  // record() sits on the per-delivery hot path, so read the octave and
  // sub-bucket straight out of the IEEE-754 representation instead of
  // calling frexp/ldexp: for v >= 1, v = 2^octave * (1 + f) with octave the
  // unbiased exponent and f the mantissa fraction, so the sub-bucket
  // floor(f * kSubBuckets) is simply the top log2(kSubBuckets) mantissa
  // bits.
  static_assert((kSubBuckets & (kSubBuckets - 1)) == 0,
                "sub-bucket extraction requires a power of two");
  constexpr int kSubBits = std::bit_width(
      static_cast<unsigned>(kSubBuckets) - 1);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const int octave = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  if (octave >= kOctaves) return kBucketCount - 1;  // also +infinity
  const int sub = static_cast<int>((bits >> (52 - kSubBits)) &
                                   (kSubBuckets - 1));
  return 1 + octave * kSubBuckets + sub;
}

double Histogram::bucketLowerBound(int index) noexcept {
  if (index <= 0) return 0.0;
  const int octave = (index - 1) / kSubBuckets;
  const int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

double Histogram::bucketUpperBound(int index) noexcept {
  if (index < 0) return 0.0;
  if (index >= kBucketCount - 1) return std::ldexp(2.0, kOctaves - 1);
  return bucketLowerBound(index + 1);
}

void Histogram::record(double v) noexcept {
  if (!*enabled_) return;
  ++buckets_[static_cast<std::size_t>(bucketIndex(v))];
  if (count_++ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
}

double Histogram::min() const noexcept { return count_ == 0 ? 0.0 : min_; }

double Histogram::max() const noexcept { return count_ == 0 ? 0.0 : max_; }

double Histogram::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += bucketValue(i);
    if (seen >= target) {
      return std::clamp(bucketUpperBound(i), min(), max());
    }
  }
  return max();
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() noexcept {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

// ---- MetricsRegistry ------------------------------------------------------

std::string MetricsRegistry::familyOf(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

bool* MetricsRegistry::familyFlag(const std::string& family) {
  auto& slot = families_[family];
  if (!slot) slot = std::make_unique<bool>(true);
  return slot.get();
}

const bool* MetricsRegistry::familyEnabledFlag(
    const std::string& family) {
  std::lock_guard<std::mutex> lock(mu_);
  return familyFlag(family);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter(familyFlag(familyOf(name))));
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge(familyFlag(familyOf(name))));
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram(familyFlag(familyOf(name))));
  return *slot;
}

void MetricsRegistry::setFamilyEnabled(const std::string& family, bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  *familyFlag(family) = enabled;
}

void MetricsRegistry::setAllFamiliesEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, flag] : families_) *flag = enabled;
}

bool MetricsRegistry::familyEnabled(const std::string& family) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = families_.find(family);
  return it == families_.end() || *it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Snapshot the other registry's handles first so the two locks never
  // overlap (merge(self) is harmless, if pointless).
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    for (const auto& [name, c] : other.counters_) counters.emplace_back(name, c.get());
    for (const auto& [name, g] : other.gauges_) gauges.emplace_back(name, g.get());
    for (const auto& [name, h] : other.histograms_) {
      histograms.emplace_back(name, h.get());
    }
  }
  for (const auto& [name, c] : counters) counter(name).value_ += c->value_;
  for (const auto& [name, g] : gauges) gauge(name).value_ += g->value_;
  for (const auto& [name, h] : histograms) histogram(name).merge(*h);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->value_ = 0;
  for (auto& [name, g] : gauges_) g->value_ = 0.0;
  for (auto& [name, h] : histograms_) h->reset();
}

JsonValue MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue counters = JsonValue::object();
  for (const auto& [name, c] : counters_) counters.set(name, c->value());
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, g->value());
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, h] : histograms_) {
    JsonValue entry = JsonValue::object();
    entry.set("count", h->count());
    entry.set("sum", h->sum());
    entry.set("mean", h->mean());
    entry.set("min", h->min());
    entry.set("max", h->max());
    entry.set("p50", h->percentile(0.50));
    entry.set("p90", h->percentile(0.90));
    entry.set("p99", h->percentile(0.99));
    histograms.set(name, std::move(entry));
  }
  JsonValue out = JsonValue::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

std::string MetricsRegistry::toText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof buf, "%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof buf, "%s %.6g\n", name.c_str(), g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(buf, sizeof buf,
                  "%s count=%llu mean=%.6g min=%.6g p50=%.6g p90=%.6g "
                  "p99=%.6g max=%.6g\n",
                  name.c_str(), static_cast<unsigned long long>(h->count()),
                  h->mean(), h->min(), h->percentile(0.5), h->percentile(0.9),
                  h->percentile(0.99), h->max());
    out += buf;
  }
  return out;
}

}  // namespace pleroma::obs
