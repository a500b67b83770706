// Input generation for the benchmark. Every rectangle and event the program
// receives is drawn here from the run's --seed, with a generator owned by the
// benchmark, so a change to the program's own workload code cannot change
// the inputs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dz/event_space.hpp"

namespace perfbench {

namespace dz = pleroma::dz;

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& s : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Domain of every attribute: [0, 1023] (10 bits, as in the paper).
inline constexpr dz::AttributeValue kDomainMax = 1023;

inline dz::AttributeValue clampValue(double v, double lo = 0.0,
                                     double hi = kDomainMax) {
  return static_cast<dz::AttributeValue>(std::llround(std::clamp(v, lo, hi)));
}

/// A rectangle whose extent along each attribute is uniform in
/// [0.5, 1.5] * selectivity * domain, placed uniformly.
inline dz::Rectangle uniformRect(Rng& rng, int dims, double selectivity) {
  dz::Rectangle r;
  for (int d = 0; d < dims; ++d) {
    const double width = std::max(
        1.0, (kDomainMax + 1.0) * selectivity * rng.uniform(0.5, 1.5));
    const double lo = rng.uniform(0.0, kDomainMax + 1.0 - width);
    r.ranges.push_back({clampValue(lo), clampValue(lo + width - 1.0)});
  }
  return r;
}

inline dz::Event uniformEvent(Rng& rng, int dims) {
  dz::Event e(static_cast<std::size_t>(dims));
  for (auto& v : e) v = static_cast<dz::AttributeValue>(rng.below(kDomainMax + 1));
  return e;
}

/// A point inside `r`, uniform.
inline dz::Event pointIn(Rng& rng, const dz::Rectangle& r) {
  dz::Event e;
  for (const dz::Range& range : r.ranges) {
    e.push_back(range.lo + static_cast<dz::AttributeValue>(
                               rng.below(std::uint64_t{range.hi} - range.lo + 1)));
  }
  return e;
}

/// Zipf-popular interest hotspots over a 2-attribute space split into four
/// quadrants. There are eight hotspots, two per quadrant, with a fixed
/// popularity rank per quadrant: quadrant q holds ranks q and 7-q, so the
/// quadrants carry 41%, 24%, 18% and 17% of the events whatever the seed.
/// The seed places the centres inside their quadrants and draws every
/// rectangle and event, which keeps the congested workload's load shape the
/// same across seeds while its details change.
class QuadrantHotspots {
 public:
  static constexpr int kHotspots = 8;
  static constexpr double kRadius = 0.08 * kDomainMax;
  static constexpr dz::AttributeValue kMid = kDomainMax / 2;

  explicit QuadrantHotspots(Rng& rng) {
    double total = 0.0;
    for (int rank = 0; rank < kHotspots; ++rank) {
      total += 1.0 / (rank + 1);
      cdf_[static_cast<std::size_t>(rank)] = total;
    }
    for (double& c : cdf_) c /= total;
    for (int rank = 0; rank < kHotspots; ++rank) {
      const int q = rank < 4 ? rank : kHotspots - 1 - rank;
      quadrant_[static_cast<std::size_t>(rank)] = q;
      const Box box = quadrantBox(q);
      centre_[static_cast<std::size_t>(rank)] = {
          rng.uniform(box.x0 + kRadius, box.x1 - kRadius),
          rng.uniform(box.y0 + kRadius, box.y1 - kRadius)};
    }
  }

  /// The advertisement of quadrant q (bit 0: upper half of attribute 0,
  /// bit 1: upper half of attribute 1).
  static dz::Rectangle quadrant(int q) {
    const Box b = quadrantBox(q);
    return dz::Rectangle{{{clampValue(b.x0), clampValue(b.x1)},
                          {clampValue(b.y0), clampValue(b.y1)}}};
  }
  static int quadrantOf(const dz::Event& e) {
    return (e[0] > kMid ? 1 : 0) + (e[1] > kMid ? 2 : 0);
  }

  /// A subscription around a zipf-chosen hotspot.
  dz::Rectangle rect(Rng& rng, double selectivity) const {
    const auto& c = centre_[pick(rng)];
    dz::Rectangle r;
    for (int d = 0; d < 2; ++d) {
      const double width = std::max(
          1.0, kDomainMax * selectivity * rng.uniform(0.5, 1.5));
      const double mid = c[static_cast<std::size_t>(d)] +
                         rng.uniform(-1.0, 1.0) * kRadius;
      r.ranges.push_back(
          {clampValue(mid - width / 2.0), clampValue(mid + width / 2.0)});
    }
    return r;
  }

  /// An event near a zipf-chosen hotspot, inside that hotspot's quadrant.
  dz::Event event(Rng& rng) const {
    const std::size_t h = pick(rng);
    const Box b = quadrantBox(quadrant_[h]);
    return {clampValue(centre_[h][0] + rng.uniform(-1.0, 1.0) * kRadius, b.x0,
                       b.x1),
            clampValue(centre_[h][1] + rng.uniform(-1.0, 1.0) * kRadius, b.y0,
                       b.y1)};
  }

 private:
  struct Box {
    double x0, x1, y0, y1;
  };
  static Box quadrantBox(int q) {
    const double lo = 0.0, mid = kMid, hi = kDomainMax;
    const bool right = (q & 1) != 0, top = (q & 2) != 0;
    return {right ? mid + 1 : lo, right ? hi : mid, top ? mid + 1 : lo,
            top ? hi : mid};
  }
  std::size_t pick(Rng& rng) const {
    const double u = rng.unit();
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
      if (u < cdf_[i]) return i;
    }
    return cdf_.size() - 1;
  }

  std::array<double, kHotspots> cdf_{};
  std::array<int, kHotspots> quadrant_{};
  std::array<std::array<double, 2>, kHotspots> centre_{};
};

}  // namespace perfbench
