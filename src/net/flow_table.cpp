#include "net/flow_table.hpp"

#include <algorithm>
#include <utility>

#include "dz/u128.hpp"

namespace pleroma::net {

void FlowEntry::addOutPort(PortId port, std::optional<dz::Ipv6Address> rewrite) {
  for (auto& a : actions) {
    if (a.port == port) {
      if (rewrite) a.setDestination = rewrite;
      return;
    }
  }
  actions.push_back(FlowAction{port, rewrite});
}

bool FlowEntry::removeOutPort(PortId port) {
  const auto it = std::find_if(actions.begin(), actions.end(),
                               [&](const FlowAction& a) { return a.port == port; });
  if (it == actions.end()) return false;
  actions.erase(it);
  return true;
}

bool FlowEntry::hasOutPort(PortId port) const noexcept {
  return std::any_of(actions.begin(), actions.end(),
                     [&](const FlowAction& a) { return a.port == port; });
}

std::vector<PortId> FlowEntry::outPorts() const {
  std::vector<PortId> out;
  out.reserve(actions.size());
  for (const auto& a : actions) out.push_back(a.port);
  return out;
}

std::string FlowEntry::toString() const {
  std::string out = match.toString() + " prio=" + std::to_string(priority) + " ->";
  for (const auto& a : actions) {
    out += " " + std::to_string(a.port);
    if (a.setDestination) out += "(set-dst)";
  }
  return out;
}

// ---- bucket maintenance ---------------------------------------------------

FlowTable::Bucket& FlowTable::bucketForInsert(int length) {
  std::int16_t& bi = lengthBucket_[static_cast<std::size_t>(length)];
  if (bi >= 0) return buckets_[static_cast<std::size_t>(bi)];
  bi = static_cast<std::int16_t>(buckets_.size());
  Bucket b;
  b.length = length;
  b.mask = dz::U128::topMask(length);
  buckets_.push_back(std::move(b));
  return buckets_.back();
}

void FlowTable::dropBucketIfEmpty(Bucket& b) {
  if (b.size != 0) return;
  const auto idx = static_cast<std::size_t>(&b - buckets_.data());
  lengthBucket_[static_cast<std::size_t>(b.length)] = -1;
  buckets_.erase(buckets_.begin() + static_cast<std::ptrdiff_t>(idx));
  // Buckets after the erased one shifted down by one.
  for (auto& slot : lengthBucket_) {
    if (slot > static_cast<std::int16_t>(idx)) --slot;
  }
}

void FlowTable::insertRecord(Bucket& b, dz::U128 key, std::int32_t priority,
                             std::uint32_t slot) {
  if (!b.flat) {
    if (b.size + 1 <= kSortedMax) {
      const auto it = std::lower_bound(
          b.recs.begin(), b.recs.end(), key,
          [](const ProbeRecord& r, dz::U128 k) { return dz::u128Less(r.key, k); });
      b.recs.insert(it, ProbeRecord{key, slot, priority});
      ++b.size;
      return;
    }
    rebuildFlat(b, b.size + 1);
  } else if (b.recs.size() < 2 * (b.size + 1)) {
    rebuildFlat(b, b.size + 1);
  }
  const std::size_t mask = b.recs.size() - 1;
  std::size_t i = dz::u128Hash(key) & mask;
  while (b.recs[i].slot != kEmptySlot) i = (i + 1) & mask;
  b.recs[i] = ProbeRecord{key, slot, priority};
  ++b.size;
}

void FlowTable::eraseRecord(Bucket& b, std::size_t idx) {
  if (!b.flat) {
    b.recs.erase(b.recs.begin() + static_cast<std::ptrdiff_t>(idx));
    --b.size;
    return;
  }
  // Backward-shift deletion: walk the probe chain after the hole and pull
  // back any record whose home position does not lie cyclically inside
  // (hole, j], so chains stay dense and tombstone-free.
  const std::size_t mask = b.recs.size() - 1;
  std::size_t hole = idx;
  std::size_t j = idx;
  for (;;) {
    j = (j + 1) & mask;
    if (b.recs[j].slot == kEmptySlot) break;
    const std::size_t home = dz::u128Hash(b.recs[j].key) & mask;
    const bool movable = (j > hole) ? (home <= hole || home > j)
                                    : (home <= hole && home > j);
    if (movable) {
      b.recs[hole] = b.recs[j];
      hole = j;
    }
  }
  b.recs[hole] = ProbeRecord{};
  --b.size;
  if (b.size < kSortedMin) rebuildSorted(b);
}

void FlowTable::rebuildFlat(Bucket& b, std::size_t forSize) {
  std::vector<ProbeRecord> live;
  live.reserve(b.size);
  if (b.flat) {
    for (const ProbeRecord& r : b.recs) {
      if (r.slot != kEmptySlot) live.push_back(r);
    }
  } else {
    live.assign(b.recs.begin(), b.recs.begin() + static_cast<std::ptrdiff_t>(b.size));
  }
  std::size_t cap = 64;
  while (cap < 2 * forSize) cap <<= 1;
  b.recs.assign(cap, ProbeRecord{});
  b.flat = true;
  const std::size_t mask = cap - 1;
  for (const ProbeRecord& r : live) {
    std::size_t i = dz::u128Hash(r.key) & mask;
    while (b.recs[i].slot != kEmptySlot) i = (i + 1) & mask;
    b.recs[i] = r;
  }
}

void FlowTable::rebuildSorted(Bucket& b) {
  std::vector<ProbeRecord> live;
  live.reserve(b.size);
  for (const ProbeRecord& r : b.recs) {
    if (r.slot != kEmptySlot) live.push_back(r);
  }
  std::sort(live.begin(), live.end(),
            [](const ProbeRecord& x, const ProbeRecord& y) {
              return dz::u128Less(x.key, y.key);
            });
  b.recs = std::move(live);
  b.flat = false;
}

// ---- entry arena ----------------------------------------------------------

std::uint32_t FlowTable::allocateSlot(FlowEntry&& entry) {
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = slotHighWater_++;
    if ((slot >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<FlowEntry[]>(kChunkSize));
    }
    matched_.resize(slotHighWater_, 0);
  }
  slotRef(slot) = std::move(entry);
  matched_[slot] = slotRef(slot).matchedPackets;
  return slot;
}

void FlowTable::freeSlot(std::uint32_t slot) {
  // Reset releases any spilled action storage now rather than at table
  // destruction; the slot is recycled by the next insert.
  slotRef(slot) = FlowEntry{};
  freeSlots_.push_back(slot);
}

// ---- public API -----------------------------------------------------------

bool FlowTable::insert(FlowEntry entry) {
  if (capacity_ != 0 && size_ >= capacity_) {
    ++stats_.rejectedCapacity;
    return false;
  }
  const dz::U128 key = keyOf(entry.match);
  Bucket& b = bucketForInsert(entry.match.length);
  if (findIn(b, key) != kNpos) {
    ++stats_.rejectedDuplicate;
    return false;
  }
  const auto priority = static_cast<std::int32_t>(entry.priority);
  const std::uint32_t slot = allocateSlot(std::move(entry));
  insertRecord(b, key, priority, slot);
  ++size_;
  if (size_ > peakSize_) peakSize_ = size_;
  ++stats_.inserts;
  return true;
}

bool FlowTable::insertOrReplace(FlowEntry entry) {
  const std::int16_t bi = lengthBucket_[static_cast<std::size_t>(entry.match.length)];
  if (bi >= 0) {
    Bucket& b = buckets_[static_cast<std::size_t>(bi)];
    const std::size_t idx = findIn(b, keyOf(entry.match));
    if (idx != kNpos) {
      const std::uint32_t slot = b.recs[idx].slot;
      // OpenFlow modify preserves the per-flow counters (the column stays).
      entry.matchedPackets = matched_[slot];
      b.recs[idx].priority = static_cast<std::int32_t>(entry.priority);
      slotRef(slot) = std::move(entry);
      ++stats_.modifies;
      return true;
    }
  }
  return insert(std::move(entry));
}

bool FlowTable::remove(const dz::Ipv6Prefix& match) {
  const std::int16_t bi = lengthBucket_[static_cast<std::size_t>(match.length)];
  if (bi < 0) return false;
  Bucket& b = buckets_[static_cast<std::size_t>(bi)];
  const std::size_t idx = findIn(b, keyOf(match));
  if (idx == kNpos) return false;
  freeSlot(b.recs[idx].slot);
  eraseRecord(b, idx);
  --size_;
  ++stats_.removes;
  dropBucketIfEmpty(b);
  return true;
}

const FlowEntry* FlowTable::find(const dz::Ipv6Prefix& match) const noexcept {
  const std::int16_t bi = lengthBucket_[static_cast<std::size_t>(match.length)];
  if (bi < 0) return nullptr;
  const Bucket& b = buckets_[static_cast<std::size_t>(bi)];
  const std::size_t idx = findIn(b, keyOf(match));
  return idx == kNpos ? nullptr : &syncedSlot(b.recs[idx].slot);
}

FlowEntry* FlowTable::findMutable(const dz::Ipv6Prefix& match) noexcept {
  return const_cast<FlowEntry*>(std::as_const(*this).find(match));
}

const FlowEntry* FlowTable::lookup(dz::Ipv6Address dst) const {
  ++stats_.lookups;
  stats_.probes += buckets_.size();
  const ProbeRecord* best = nullptr;
  int bestLength = -1;
  for (const Bucket& b : buckets_) {
    const std::size_t idx = findIn(b, dst.value & b.mask);
    if (idx == kNpos) continue;
    const ProbeRecord& r = b.recs[idx];
    if (best == nullptr || r.priority > best->priority ||
        (r.priority == best->priority && b.length > bestLength)) {
      best = &r;
      bestLength = b.length;
    }
  }
  if (obsEnabled_ != nullptr && *obsEnabled_) {
    obsLookups_->inc();
    obsProbes_->record(static_cast<double>(buckets_.size()));
    (best != nullptr ? obsHits_ : obsMisses_)->inc();
  }
  if (best == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  ++matched_[best->slot];
  return &slotRef(best->slot);
}

void FlowTable::clear() noexcept {
  buckets_.clear();
  lengthBucket_.fill(-1);
  size_ = 0;
  chunks_.clear();
  freeSlots_.clear();
  slotHighWater_ = 0;
  matched_.clear();
}

std::vector<FlowEntry> FlowTable::entries() const {
  std::vector<FlowEntry> out;
  out.reserve(size_);
  forEach([&](const FlowEntry& e) { out.push_back(e); });
  return out;
}

void FlowTable::attachMetrics(obs::MetricsRegistry& reg,
                              const std::string& prefix) {
  obsEnabled_ =
      reg.familyEnabledFlag(obs::MetricsRegistry::familyOf(prefix + ".lookups"));
  obsLookups_ = &reg.counter(prefix + ".lookups");
  obsHits_ = &reg.counter(prefix + ".hits");
  obsMisses_ = &reg.counter(prefix + ".misses");
  obsProbes_ = &reg.histogram(prefix + ".probes_per_lookup");
}

}  // namespace pleroma::net
