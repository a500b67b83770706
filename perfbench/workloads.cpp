#include "workloads.hpp"

#include <sys/resource.h>
#include <time.h>

#include <array>
#include <bit>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "controller/load_monitor.hpp"
#include "controller/reconciler.hpp"
#include "core/pleroma.hpp"
#include "gen.hpp"
#include "net/congestion.hpp"

namespace perfbench {
namespace {

using namespace pleroma;

/// Set-ups before the timed phase; the last instance is the one measured.
constexpr int kInitialSetups = 5;
/// Further set-ups spread over the timed phase, one per this much wall
/// time after its deterministic part (40 in a 30 s run), so that `setup_s`
/// samples the whole run's machine speed as the other wall-time figures
/// do. Each builds and discards an instance identical to the measured one,
/// between steps. `setup_s` is the fast edge of all of them, like every
/// wall-time figure (stats.hpp).
constexpr std::int64_t kSetupEveryNs = 750'000'000;
/// In a traced run the main phase alternates blocks of this many untraced
/// and traced steps, so tracing overhead is measured against the same drift.
constexpr std::size_t kTraceBlock = 16;

double threadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image, from VmHWM. ru_maxrss is not
/// used: Linux carries it across exec, so it would report the launching
/// process's peak when that was larger.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- spans -----------------------------------------------------------------

enum SpanName : int {
  kStep,
  kPublish,
  kSettle,
  kSubscribe,
  kUnsubscribe,
  kCongestionSample,
  kLoadSample,
  kRebalance,
  kSpanNameCount
};
constexpr std::array<const char*, kSpanNameCount> kSpanNames = {
    "step",        "publish",           "settle",      "subscribe",
    "unsubscribe", "congestion_sample", "load_sample", "rebalance"};

/// Times each step and, while tracing, records a span around every call
/// into a layer, parented to the step's span.
class Stepper {
 public:
  explicit Stepper(SpanLog& log) : log_(log) {
    for (const char* n : kSpanNames) log_.intern(n);
  }
  void setTracing(bool on) { tracing_ = on; }

  void begin() {
    start_ = nowNs();
    if (tracing_) step_ = log_.open(kStep, -1, start_);
  }
  /// Ends the step; returns its wall time in ns.
  std::int64_t end() {
    const std::int64_t t = nowNs();
    if (tracing_) log_.close(step_, t);
    return t - start_;
  }
  /// A layer call whose duration is only needed for the trace.
  template <typename F>
  void call(SpanName name, F&& f) {
    if (!tracing_) {
      f();
      return;
    }
    const std::int64_t t0 = nowNs();
    f();
    log_.add(name, step_, t0, nowNs());
  }
  /// A layer call whose duration is a sample; returns it in ns.
  template <typename F>
  std::int64_t timed(SpanName name, F&& f) {
    const std::int64_t t0 = nowNs();
    f();
    const std::int64_t t1 = nowNs();
    if (tracing_) log_.add(name, step_, t0, t1);
    return t1 - t0;
  }

 private:
  SpanLog& log_;
  bool tracing_ = false;
  int step_ = -1;
  std::int64_t start_ = 0;
};

/// `n` sorted instants drawn uniformly from [base, base + span): publishers
/// do not publish in lockstep.
std::vector<net::SimTime> arrivals(Rng& rng, net::SimTime base, std::size_t n,
                                   net::SimTime span) {
  std::vector<net::SimTime> at(n);
  for (auto& t : at) {
    t = base + static_cast<net::SimTime>(rng.below(static_cast<std::uint64_t>(span)));
  }
  std::sort(at.begin(), at.end());
  return at;
}

// ---- counters ----------------------------------------------------------------

/// Cumulative program counters, read between steps.
struct Counters {
  std::uint64_t simEvents = 0;
  std::uint64_t simWallNs = 0;
  std::uint64_t lookups = 0, hits = 0, probes = 0;
  std::uint64_t forwarded = 0, linkBytes = 0;
  std::array<std::uint64_t, net::kDropReasonCount> drops{};
  std::uint64_t parks = 0, retries = 0;
  std::uint64_t flowMods = 0;
  std::uint64_t covered = 0;
  std::uint64_t deliveries = 0, falsePositives = 0;

  std::uint64_t totalDrops() const {
    std::uint64_t t = 0;
    for (const std::uint64_t d : drops) t += d;
    return t;
  }
};

Counters snapshot(core::Pleroma& p) {
  Counters c;
  c.simEvents = p.simulator().processedEvents();
  c.simWallNs = p.simulator().wallTimeNanos();
  for (const net::NodeId sw : p.topology().switches()) {
    const net::FlowTableStats& s = p.network().flowTable(sw).stats();
    c.lookups += s.lookups;
    c.hits += s.hits;
    c.probes += s.probes;
  }
  const net::NetworkCounters& n = p.network().counters();
  c.forwarded = n.packetsForwarded;
  c.linkBytes = p.network().totalLinkBytes();
  for (std::size_t r = 0; r < net::kDropReasonCount; ++r) {
    c.drops[r] = n.dropped(static_cast<net::DropReason>(r));
  }
  c.parks = n.packetsParkedOnBackpressure;
  c.retries = n.backpressureRetries;
  const openflow::ControlPlaneStats& cs = p.controller().channel().stats();
  c.flowMods = cs.flowModsSent;
  c.covered = p.controller().coveredSubscribes();
  c.deliveries = p.deliveryStats().delivered;
  c.falsePositives = p.deliveryStats().falsePositives;
  return c;
}

// ---- the harness: live subscriptions, oracle, event ledger -------------------

/// Wall-time blocks (BlockSeries) are short, so a run has many of them and
/// its fast edge is steady: 100 steps, 20 calls (the fewest a p50 allows).
constexpr std::size_t kStepBlock = 100;
constexpr std::size_t kCallBlock = 20;

struct OpSamples {
  BlockSeries subUs{kCallBlock}, unsubUs{kCallBlock};
  BlockSeries callUs{kCallBlock};  ///< every call, in order
  std::uint64_t subMods = 0, unsubMods = 0;
  std::uint64_t flowModMsgs = 0;  ///< control messages the ops sent
  std::uint64_t attempted = 0, failed = 0;
  std::size_t count() const { return callUs.count(); }
};

/// Oracle verdicts over every judged event.
struct Tally {
  std::uint64_t events = 0;
  std::uint64_t expectedPairs = 0;   ///< (event, host) pairs the oracle expects
  std::uint64_t excusedPairs = 0;    ///< misses explained by an in-flight unsubscribe
  std::uint64_t missedPairs = 0;     ///< misses left unexplained
  std::uint64_t missedEvents = 0;    ///< events with an unexplained miss
  std::uint64_t deliveredPairs = 0;  ///< expected pairs delivered
  std::uint64_t duplicates = 0;
  std::uint64_t fpMismatches = 0;    ///< program FP flag disagrees with the oracle
  std::uint64_t late = 0;            ///< deliveries of already-judged events
};

/// The virtual-time outputs of the deterministic events (the measured
/// prefix): the program's own delivery records.
struct Measured {
  Tally tally;
  std::uint64_t deliveries = 0;
  std::uint64_t falsePositives = 0;
  /// Reserved up front: growth by doubling would make peak RSS jump with
  /// the seed's delivery count.
  std::vector<float> latencyUs;

  Measured() { latencyUs.reserve(std::size_t{1} << 21); }
};

class Harness {
 public:
  struct Live {
    ctrl::SubscriptionId id;
    net::NodeId host;
    dz::Rectangle rect;
  };

  Harness(net::Topology topology, const core::PleromaOptions& opts)
      : p_(std::move(topology), opts),
        lo_(static_cast<std::size_t>(opts.numAttributes)),
        hi_(static_cast<std::size_t>(opts.numAttributes)) {
    hosts_ = p_.topology().hosts();
    hostBit_.assign(static_cast<std::size_t>(p_.topology().nodeCount()), 0);
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      hostBit_[static_cast<std::size_t>(hosts_[i])] = 1u << i;
    }
    p_.setDeliveryCallback(
        [this](const core::DeliveryRecord& r) { inbox_.push_back(r); });
  }

  core::Pleroma& p() { return p_; }
  const std::vector<net::NodeId>& hosts() const { return hosts_; }
  const std::vector<Live>& live() const { return live_; }
  const Tally& tally() const { return tally_; }
  Measured& measured() { return measured_; }

  /// Fanout and verification bursts run with no reconfiguration in flight,
  /// so the program's false-positive flag must equal the oracle's verdict.
  void setExactFp(bool on) { exactFp_ = on; }
  bool exactFp() const { return exactFp_; }
  /// Judge misses of a host whose matching subscription was removed while
  /// the event was in flight as excused (congested workload).
  void setExcuseChurn(bool on) { excuseChurn_ = on; }
  /// Probes republish events; their deliveries are not judged.
  void setDiscard(bool on) { discard_ = on; }

  ctrl::SubscriptionId setupSubscribe(net::NodeId host, const dz::Rectangle& r) {
    const ctrl::SubscriptionId id = p_.subscribe(host, r);
    addLive(Live{id, host, r});
    return id;
  }

  void subscribe(Stepper& st, net::NodeId host, const dz::Rectangle& r,
                 OpSamples& ops) {
    ++ops.attempted;
    try {
      ctrl::SubscriptionId id = ctrl::kInvalidSubscription;
      const std::uint64_t msgs = flowModMessages();
      const std::int64_t ns =
          st.timed(kSubscribe, [&] { id = p_.subscribe(host, r); });
      ops.subUs.add(static_cast<double>(ns) / 1e3);
      ops.callUs.add(static_cast<double>(ns) / 1e3);
      ops.subMods += p_.controller().lastOpStats().totalFlowMods();
      ops.flowModMsgs += flowModMessages() - msgs;
      addLive(Live{id, host, r});
    } catch (const std::exception&) {
      ++ops.failed;
    }
  }

  void unsubscribe(Stepper& st, std::size_t idx, OpSamples& ops) {
    ++ops.attempted;
    Live gone = live_[idx];
    removeLive(idx);
    try {
      const std::uint64_t msgs = flowModMessages();
      const std::int64_t ns =
          st.timed(kUnsubscribe, [&] { p_.unsubscribe(gone.id); });
      ops.unsubUs.add(static_cast<double>(ns) / 1e3);
      ops.callUs.add(static_cast<double>(ns) / 1e3);
      ops.unsubMods += p_.controller().lastOpStats().totalFlowMods();
      ops.flowModMsgs += flowModMessages() - msgs;
    } catch (const std::exception&) {
      ++ops.failed;
    }
    if (excuseChurn_) {
      removed_.push_back(Removed{bitOf(gone.host), std::move(gone.rect),
                                 p_.simulator().now()});
    }
  }

  /// Exact delivery set of `e`: a bitmask over hosts() of every host with a
  /// live subscription containing it. Brute force over a per-attribute copy
  /// of the live bounds: a pass over the first attribute's bounds (small
  /// and sequential, so the scan between timed steps stays short and cache
  /// friendly), then the other attributes of the few that pass.
  std::uint32_t oracle(const dz::Event& e) const {
    std::uint32_t mask = 0;
    const dz::AttributeValue v0 = e[0];
    const dz::AttributeValue* lo = lo_[0].data();
    const dz::AttributeValue* hi = hi_[0].data();
    for (std::size_t i = 0; i < liveBits_.size(); ++i) {
      if ((lo[i] <= v0) & (v0 <= hi[i])) {
        bool in = true;
        for (std::size_t d = 1; in && d < lo_.size(); ++d) {
          in = lo_[d][i] <= e[d] && e[d] <= hi_[d][i];
        }
        if (in) mask |= liveBits_[i];
      }
    }
    return mask;
  }

  std::size_t subsPerHostMax() const {
    std::unordered_map<net::NodeId, std::size_t> n;
    std::size_t best = 0;
    for (const Live& s : live_) best = std::max(best, ++n[s.host]);
    return best;
  }

  struct Staged {
    net::NodeId publisher;
    net::EventId id;
    net::SimTime at;
    dz::Event event;
  };
  /// Registers an event to publish at virtual time `at`: computes its
  /// oracle set (outside any timed section) and assigns its id. A host
  /// never receives its own publications (a switch does not send a packet
  /// back out its ingress port), so the publisher is not expected.
  Staged stage(net::NodeId publisher, dz::Event e, net::SimTime at, bool measured) {
    const std::uint32_t expected = oracle(e) & ~bitOf(publisher);
    if (ledger_.empty()) firstId_ = nextId_;
    EventRec rec{{}, at, expected, 0, measured};
    std::copy(e.begin(), e.end(), rec.values.begin());
    ledger_.push_back(rec);
    if (probeSample_.size() < kProbeSample) probeSample_.push_back({publisher, e});
    return Staged{publisher, nextId_++, at, std::move(e)};
  }
  /// Runs the simulator up to the event's instant, then publishes it.
  void publish(Stepper& st, const Staged& s) {
    if (s.at > p_.simulator().now()) {
      st.call(kSettle, [&] { p_.settleUntil(s.at); });
    }
    st.call(kPublish, [&] { p_.publish(s.publisher, s.event, s.id); });
  }
  /// One closed-loop step: publishes the staged events, settles, and
  /// judges them. Returns the step's wall time.
  template <std::size_t N>
  std::int64_t burst(Stepper& st, const std::array<Staged, N>& staged) {
    st.begin();
    for (const Staged& s : staged) publish(st, s);
    st.call(kSettle, [&] { p_.settle(); });
    const std::int64_t ns = st.end();
    drain();
    judgeAll();
    return ns;
  }
  net::EventId freshId() { return nextId_++; }

  /// Consumes the deliveries recorded since the last call.
  void drain() {
    if (discard_) inbox_.clear();
    for (const core::DeliveryRecord& r : inbox_) {
      if (ledger_.empty() || r.eventId < firstId_ ||
          r.eventId >= firstId_ + ledger_.size()) {
        ++tally_.late;
        continue;
      }
      EventRec& e = ledger_[static_cast<std::size_t>(r.eventId - firstId_)];
      const std::uint32_t bit = bitOf(r.host);
      if (e.got & bit) {
        ++tally_.duplicates;
        if (e.measured) ++measured_.tally.duplicates;
      }
      e.got |= bit;
      if (exactFp_ && r.falsePositive != ((e.expected & bit) == 0)) {
        ++tally_.fpMismatches;
      }
      if (e.measured) {
        ++measured_.deliveries;
        if (r.falsePositive) ++measured_.falsePositives;
        measured_.latencyUs.push_back(static_cast<float>(r.latency) / 1e3f);
      }
    }
    inbox_.clear();
    p_.clearLatencySamples();
  }

  /// Judges every event published at or before `cutoff` (virtual time).
  void judgeUntil(net::SimTime cutoff) {
    while (!ledger_.empty() && ledger_.front().publishedAt <= cutoff) {
      judge(ledger_.front());
      ledger_.pop_front();
      ++firstId_;
    }
    // Events still to judge were published after `cutoff`, so only later
    // removals can excuse them.
    while (!removed_.empty() && removed_.front().at <= cutoff) removed_.pop_front();
  }
  void judgeAll() { judgeUntil(std::numeric_limits<net::SimTime>::max()); }

  /// (publisher, event) pairs of the first published events, for probes.
  const std::vector<std::pair<net::NodeId, dz::Event>>& probeSample() const {
    return probeSample_;
  }

 private:
  static constexpr std::size_t kProbeSample = 4096;
  /// A miss is excused when a matching subscription of that host went away
  /// within this long (virtual) after the event's publication, i.e. while
  /// the event could still have been in flight (the congested workload's
  /// p99 delivery delay is a few ms).
  static constexpr net::SimTime kInFlight = 20 * net::kMillisecond;

  /// The widest schema a workload uses.
  static constexpr std::size_t kMaxDims = 6;
  struct EventRec {
    std::array<dz::AttributeValue, kMaxDims> values;
    net::SimTime publishedAt;
    std::uint32_t expected;
    std::uint32_t got;
    bool measured;
  };
  struct Removed {
    std::uint32_t bit;
    dz::Rectangle rect;
    net::SimTime at;
  };

  std::uint64_t flowModMessages() {
    return p_.controller().channel().stats().flowModMessages();
  }
  std::uint32_t bitOf(net::NodeId host) const {
    return hostBit_[static_cast<std::size_t>(host)];
  }

  static bool contains(const dz::Rectangle& r,
                       const std::array<dz::AttributeValue, kMaxDims>& v) {
    for (std::size_t d = 0; d < r.ranges.size(); ++d) {
      if (!r.ranges[d].contains(v[d])) return false;
    }
    return true;
  }

  void addLive(Live s) {
    for (std::size_t d = 0; d < lo_.size(); ++d) {
      lo_[d].push_back(s.rect.ranges[d].lo);
      hi_[d].push_back(s.rect.ranges[d].hi);
    }
    liveBits_.push_back(bitOf(s.host));
    live_.push_back(std::move(s));
  }
  /// Swap-removes live()[idx] and its oracle copy.
  void removeLive(std::size_t idx) {
    const std::size_t last = live_.size() - 1;
    for (std::size_t d = 0; d < lo_.size(); ++d) {
      lo_[d][idx] = lo_[d][last];
      lo_[d].pop_back();
      hi_[d][idx] = hi_[d][last];
      hi_[d].pop_back();
    }
    liveBits_[idx] = liveBits_[last];
    liveBits_.pop_back();
    live_[idx] = std::move(live_[last]);
    live_.pop_back();
  }

  bool excused(const EventRec& e, std::uint32_t bit) const {
    for (const Removed& r : removed_) {
      if (r.bit == bit && r.at >= e.publishedAt &&
          r.at <= e.publishedAt + kInFlight && contains(r.rect, e.values)) {
        return true;
      }
    }
    return false;
  }

  void judge(const EventRec& e) {
    const std::uint32_t missing = e.expected & ~e.got;
    std::uint32_t unexcused = missing;
    if (excuseChurn_) {
      for (std::uint32_t m = missing; m != 0; m &= m - 1) {
        const std::uint32_t bit = m & (~m + 1);
        if (excused(e, bit)) unexcused &= ~bit;
      }
    }
    for (Tally* t : {&tally_, e.measured ? &measured_.tally : nullptr}) {
      if (t == nullptr) continue;
      ++t->events;
      t->expectedPairs += static_cast<std::uint64_t>(std::popcount(e.expected));
      t->deliveredPairs +=
          static_cast<std::uint64_t>(std::popcount(e.expected & e.got));
      t->excusedPairs +=
          static_cast<std::uint64_t>(std::popcount(missing & ~unexcused));
      t->missedPairs += static_cast<std::uint64_t>(std::popcount(unexcused));
      if (unexcused != 0) ++t->missedEvents;
    }
  }

  core::Pleroma p_;
  std::vector<net::NodeId> hosts_;
  std::vector<std::uint32_t> hostBit_;
  std::vector<Live> live_;
  /// The oracle's copy of live(), in the same order: per attribute, every
  /// rectangle's lower and upper bound; and the bit of each one's host.
  std::vector<std::vector<dz::AttributeValue>> lo_, hi_;
  std::vector<std::uint32_t> liveBits_;
  std::vector<core::DeliveryRecord> inbox_;
  std::deque<EventRec> ledger_;
  std::deque<Removed> removed_;
  net::EventId firstId_ = 1;
  net::EventId nextId_ = 1;
  Tally tally_;
  Measured measured_;
  std::vector<std::pair<net::NodeId, dz::Event>> probeSample_;
  bool exactFp_ = false;
  bool excuseChurn_ = false;
  bool discard_ = false;
};

// ---- shared run bookkeeping ------------------------------------------------

/// Per-step wall samples of the phase that publishes events. Every step of
/// a workload publishes the same number of events.
struct EventPhase {
  explicit EventPhase(std::size_t block = kStepBlock) : stepUsPerEvent(block) {}

  Counters before, after;
  std::uint64_t events = 0;
  BlockSeries stepUsPerEvent;

  /// Events published by steps that are not timed (they still count in
  /// the per-event counter ratios).
  void countUntimed(std::size_t n) { events += n; }

  void record(std::int64_t ns, std::size_t eventsInStep) {
    events += eventsInStep;
    if (eventsInStep > 0) {
      const double us =
          static_cast<double>(ns) / 1e3 / static_cast<double>(eventsInStep);
      stepUsPerEvent.add(us);
    }
  }
};

/// Plain vs traced step cost of the main phase (traced runs only).
struct TraceSplit {
  std::int64_t plainNs = 0, tracedNs = 0;
  std::uint64_t plainUnits = 0, tracedUnits = 0;
  void record(bool traced, std::int64_t ns, std::uint64_t units) {
    (traced ? tracedNs : plainNs) += ns;
    (traced ? tracedUnits : plainUnits) += units;
  }
  double overhead() const {
    return ratio(ratio(static_cast<double>(tracedNs), static_cast<double>(tracedUnits)),
                 ratio(static_cast<double>(plainNs), static_cast<double>(plainUnits)));
  }
};

/// Everything a workload gathers, turned into metrics by one function.
struct Gathered {
  std::vector<double> setupS;
  EventPhase ev;
  OpSamples ops;
  Counters opBefore, opAfter;
  TraceSplit split;
  std::uint64_t reroots = 0;
  double auditUs = 0.0;
  /// VmHWM when the run's deterministic part ends. Read there rather than
  /// at exit: under sustained operations the program's resident set keeps
  /// growing slowly, so the peak at exit would grow with the number of steps
  /// that fit in --seconds, and a faster program would show more memory.
  double peakRssMb = 0.0;
};

bool conserved(core::Pleroma& p) {
  net::Network& n = p.network();
  const net::NetworkCounters& c = n.counters();
  return c.packetsSentFromHosts + c.packetsInjectedByController +
             c.packetsForwarded ==
         c.packetsDeliveredToHosts + c.packetsPuntedToController +
             c.packetsConsumedAtSwitch + c.totalDropped() +
             n.missBufferedPackets() + n.backpressureParkedPackets();
}

void fillDigest(RunResult& r, const Counters& c, std::uint64_t reroots,
                const Tally& measured) {
  auto& d = r.digest;
  d.emplace_back("deliveries", c.deliveries);
  d.emplace_back("false_positives", c.falsePositives);
  d.emplace_back("flow_mods", c.flowMods);
  for (std::size_t i = 0; i < net::kDropReasonCount; ++i) {
    d.emplace_back(std::string("drops.") +
                       net::dropReasonName(static_cast<net::DropReason>(i)),
                   c.drops[i]);
  }
  d.emplace_back("reroots", reroots);
  d.emplace_back("covered_subscribes", c.covered);
  d.emplace_back("oracle.expected_pairs", measured.expectedPairs);
  d.emplace_back("oracle.missed_pairs", measured.missedPairs);
  d.emplace_back("oracle.excused_pairs", measured.excusedPairs);
  d.emplace_back("oracle.duplicates", measured.duplicates);
}

/// Quiescence checks shared by every workload; `g.auditUs` gets the audit
/// time. The simulator must be drained.
void checkQuiescent(Harness& h, Gathered& g, RunResult& r) {
  if (!conserved(h.p())) r.checkFailures.push_back("conservation identity violated");
  ctrl::Reconciler reconciler(h.p().controller());
  const std::int64_t t0 = nowNs();
  const ctrl::ReconcileReport rep = reconciler.reconcileAll();
  g.auditUs = static_cast<double>(nowNs() - t0) / 1e3;
  if (!rep.clean()) r.checkFailures.push_back("reconciler audit not clean");
  const Tally& t = h.tally();
  if (t.duplicates != 0 && h.exactFp()) {
    r.checkFailures.push_back("duplicate deliveries");
  }
  if (t.late != 0) r.checkFailures.push_back("deliveries after the judging horizon");
  if (t.fpMismatches != 0) {
    r.checkFailures.push_back("false-positive flag disagrees with the oracle");
  }
  if (g.ops.failed != 0) r.checkFailures.push_back("operations threw");
}

// ---- probes (traced runs, after the timed phase) ----------------------------

/// Keeps probe results observable so the timed loops are not elided.
volatile std::uint64_t gSink = 0;

struct Probes {
  double lookupNs = 0, requiredFlowsUs = 0, stampNs = 0, decomposeUs = 0;
  double metricsOverhead = 0;
};

Probes runProbes(Harness& h, const std::vector<dz::Rectangle>& rects) {
  Probes pr;
  core::Pleroma& p = h.p();
  const auto& sample = h.probeSample();
  const std::vector<net::NodeId> switches = p.topology().switches();

  std::vector<dz::Ipv6Address> addrs;
  for (const auto& [pub, e] : sample) {
    addrs.push_back(p.controller().makeEventPacket(pub, e).dst);
  }
  std::size_t hits = 0;
  std::int64_t t0 = nowNs();
  for (const net::NodeId sw : switches) {
    const net::FlowTable& table = p.network().flowTable(sw);
    for (const dz::Ipv6Address& a : addrs) hits += table.lookup(a) != nullptr;
  }
  pr.lookupNs = ratio(static_cast<double>(nowNs() - t0),
                      static_cast<double>(switches.size() * addrs.size()));

  std::size_t flows = 0;
  t0 = nowNs();
  for (const net::NodeId sw : switches) {
    flows += p.controller().registry().requiredFlows(sw).size();
  }
  pr.requiredFlowsUs = ratio(static_cast<double>(nowNs() - t0) / 1e3,
                             static_cast<double>(switches.size()));

  std::uint64_t bits = 0;
  t0 = nowNs();
  for (const auto& [pub, e] : sample) {
    bits += static_cast<std::uint64_t>(p.controller().stampEvent(e).length());
  }
  pr.stampNs = ratio(static_cast<double>(nowNs() - t0),
                     static_cast<double>(sample.size()));

  const dz::EventSpace& space = p.controller().space();
  const int maxLen = p.controller().effectiveMaxDzLength();
  const std::size_t cells = p.controller().config().maxCellsPerRequest;
  t0 = nowNs();
  for (const dz::Rectangle& r : rects) {
    bits += space.rectangleToDz(r, maxLen, cells).size();
  }
  pr.decomposeUs = ratio(static_cast<double>(nowNs() - t0) / 1e3,
                         static_cast<double>(rects.size()));

  // The same slice of events republished with the registry on and off,
  // alternating, three times each.
  h.setDiscard(true);
  const std::size_t slice = std::min<std::size_t>(sample.size(), 512);
  auto replay = [&] {
    const std::int64_t s = nowNs();
    for (std::size_t i = 0; i < slice; ++i) {
      p.publish(sample[i].first, sample[i].second, h.freshId());
      if (i % 32 == 31) p.settle();
    }
    p.settle();
    h.drain();
    return static_cast<double>(nowNs() - s);
  };
  std::vector<double> on, off;
  for (int round = 0; round < 3; ++round) {
    p.metrics().setAllFamiliesEnabled(true);
    on.push_back(replay());
    p.metrics().setAllFamiliesEnabled(false);
    off.push_back(replay());
  }
  p.metrics().setAllFamiliesEnabled(true);
  h.setDiscard(false);
  pr.metricsOverhead = ratio(median(on), median(off));
  gSink = hits + flows + bits;
  return pr;
}

// ---- metric emission -------------------------------------------------------

void emitEndToEnd(RunResult& r, Gathered& g, Harness& h) {
  MetricList& m = r.metrics;
  m.set("peak_rss_mb", g.peakRssMb, "MB");
  m.setSamples("setup_s", g.setupS.size());
  m.set("setup_s", rankValue(g.setupS, kFastRank), "s");
  const BlockSeries& steps = g.ev.stepUsPerEvent;
  m.setIf("events_per_s", steps.rate(), g.ev.events, "1/s");
  m.setIf("event_wall_p50_us", steps.median(), steps.count(), "us");
  m.setIf("event_wall_p99_us", steps.tail(0.99), steps.count(), "us");
  const OpSamples& o = g.ops;
  m.setIf("sub_p50_us", o.subUs.median(), o.subUs.count(), "us");
  m.setIf("sub_p90_us", o.subUs.tail(0.90), o.subUs.count(), "us");
  m.setIf("unsub_p50_us", o.unsubUs.median(), o.unsubUs.count(), "us");
  m.setIf("unsub_p90_us", o.unsubUs.tail(0.90), o.unsubUs.count(), "us");
  m.setIf("ops_per_s", o.callUs.rate(), o.count(), "1/s");
  const Measured& meas = h.measured();
  m.setSamples("fpr", meas.deliveries);
  m.set("fpr", ratio(static_cast<double>(meas.falsePositives),
                     static_cast<double>(meas.deliveries)),
        "ratio");
  const Tally& t = meas.tally;
  m.setSamples("delivered_ratio", t.expectedPairs - t.excusedPairs);
  m.set("delivered_ratio",
        ratio(static_cast<double>(t.deliveredPairs),
              static_cast<double>(t.expectedPairs - t.excusedPairs)),
        "ratio");
  m.setPercentile("virtual_delay_p99_us", meas.latencyUs, 0.99, "us");
}

struct SpanStats {
  std::map<std::string, std::pair<std::int64_t, std::uint64_t>> total;  // ns, n
  double meanUs(const std::string& n) const {
    const auto it = total.find(n);
    if (it == total.end()) return 0.0;
    return ratio(static_cast<double>(it->second.first) / 1e3,
                 static_cast<double>(it->second.second));
  }
  std::int64_t ns(const std::string& n) const {
    const auto it = total.find(n);
    return it == total.end() ? 0 : it->second.first;
  }
  std::uint64_t count(const std::string& n) const {
    const auto it = total.find(n);
    return it == total.end() ? 0 : it->second.second;
  }
};

std::size_t pathsMaxSwitch(ctrl::Controller& c) {
  std::unordered_map<net::NodeId, std::size_t> perSwitch;
  std::size_t best = 0;
  for (const ctrl::SpanningTree* t : c.trees()) {
    for (const ctrl::PathId id : c.registry().pathsOfTree(t->id())) {
      std::vector<net::NodeId> seen;
      for (const ctrl::RouteHop& hop : c.registry().at(id).hops) {
        if (std::find(seen.begin(), seen.end(), hop.switchNode) != seen.end()) continue;
        seen.push_back(hop.switchNode);
        best = std::max(best, ++perSwitch[hop.switchNode]);
      }
    }
  }
  return best;
}

void emitPerLayer(RunResult& r, Gathered& g, Harness& h, const Probes& pr) {
  MetricList& m = r.metrics;
  core::Pleroma& p = h.p();
  SpanStats ss;
  for (const Span& s : r.spans.spans()) {
    auto& slot = ss.total[r.spans.names()[static_cast<std::size_t>(s.name)]];
    slot.first += s.end - s.start;
    ++slot.second;
  }
  const double events = static_cast<double>(g.ev.events);
  const Counters& a = g.ev.before;
  const Counters& b = g.ev.after;
  auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };

  // net
  m.set("net.settle_us_per_event",
        ratio(static_cast<double>(ss.ns("settle")) / 1e3,
              static_cast<double>(ss.count("publish"))),
        "us");
  m.set("net.sim_events_per_event", ratio(d(a.simEvents, b.simEvents), events), "count");
  m.set("net.ns_per_sim_event",
        ratio(d(a.simWallNs, b.simWallNs), d(a.simEvents, b.simEvents)), "ns");
  m.set("net.flow_table.lookups_per_event", ratio(d(a.lookups, b.lookups), events), "count");
  m.set("net.flow_table.probes_per_lookup",
        ratio(d(a.probes, b.probes), d(a.lookups, b.lookups)), "count");
  m.set("net.flow_table.hit_ratio", ratio(d(a.hits, b.hits), d(a.lookups, b.lookups)),
        "ratio");
  std::size_t entriesMax = 0;
  for (const net::NodeId sw : p.topology().switches()) {
    entriesMax = std::max(entriesMax, p.network().flowTable(sw).size());
  }
  m.set("net.flow_table.entries_total", static_cast<double>(p.network().totalFlowEntries()),
        "count");
  m.set("net.flow_table.entries_max", static_cast<double>(entriesMax), "count");
  m.set("net.flow_table.lookup_ns", pr.lookupNs, "ns");
  m.set("net.forwarded_per_event", ratio(d(a.forwarded, b.forwarded), events), "count");
  m.set("net.link_bytes_per_event", ratio(d(a.linkBytes, b.linkBytes), events), "bytes");
  m.set("net.drops_total", d(a.totalDrops(), b.totalDrops()), "count");
  const auto lq = static_cast<std::size_t>(net::DropReason::kLinkQueue);
  const auto bp = static_cast<std::size_t>(net::DropReason::kBackpressure);
  m.set("net.drops.link_queue", d(a.drops[lq], b.drops[lq]), "count");
  m.set("net.drops.backpressure", d(a.drops[bp], b.drops[bp]), "count");
  m.set("net.bp_parks", d(a.parks, b.parks), "count");
  m.set("net.bp_retries", d(a.retries, b.retries), "count");
  m.set("net.peak_link_queue_depth",
        static_cast<double>(p.network().stats().peakLinkQueueDepth), "packets");
  m.set("net.congestion.sample_us", ss.meanUs("congestion_sample"), "us");

  // core
  m.set("core.publish_us", ss.meanUs("publish"), "us");
  m.set("core.deliveries_per_event", ratio(d(a.deliveries, b.deliveries), events), "count");
  m.set("core.subs_per_host_max", static_cast<double>(h.subsPerHostMax()), "count");

  // controller
  ctrl::Controller& c = p.controller();
  const double subs = static_cast<double>(g.ops.subUs.count());
  const double unsubs = static_cast<double>(g.ops.unsubUs.count());
  m.set("controller.sub_us", ss.meanUs("subscribe"), "us");
  m.set("controller.unsub_us", ss.meanUs("unsubscribe"), "us");
  m.set("controller.flow_mods_per_sub", ratio(static_cast<double>(g.ops.subMods), subs),
        "count");
  m.set("controller.flow_mods_per_unsub",
        ratio(static_cast<double>(g.ops.unsubMods), unsubs), "count");
  m.set("controller.paths", static_cast<double>(c.registry().size()), "count");
  m.set("controller.trees", static_cast<double>(c.treeCount()), "count");
  m.set("controller.paths_max_switch", static_cast<double>(pathsMaxSwitch(c)), "count");
  m.set("controller.registry.required_flows_us", pr.requiredFlowsUs, "us");
  m.set("controller.reconciler.audit_us", g.auditUs, "us");
  m.set("controller.installer.mirror_entries",
        static_cast<double>(c.installer().totalMirrorEntries()), "count");
  m.set("controller.flow_state_bytes", static_cast<double>(c.flowStateBytes()), "bytes");
  m.set("controller.aggregation.covered_ratio",
        ratio(d(g.opBefore.covered, g.opAfter.covered), subs), "ratio");
  m.set("controller.load_monitor.sample_us", ss.meanUs("load_sample"), "us");
  m.set("controller.load_monitor.rebalance_us", ss.meanUs("rebalance"), "us");
  m.set("controller.reroots", static_cast<double>(g.reroots), "count");

  // openflow
  m.set("openflow.flow_mod_msgs_per_op",
        ratio(static_cast<double>(g.ops.flowModMsgs), static_cast<double>(g.ops.count())),
        "count");

  // dz
  m.set("dz.stamp_ns", pr.stampNs, "ns");
  m.set("dz.decompose_us", pr.decomposeUs, "us");

  // obs
  m.set("obs.metrics_overhead_ratio", pr.metricsOverhead, "ratio");

  // the trace itself
  m.set("bench.tracing_overhead", g.split.overhead(), "ratio");
  const auto self = selfTimeByName(r.spans);
  const double stepNs = static_cast<double>(ss.ns("step"));
  const auto selfOf = [&](const char* n) {
    const auto it = self.find(n);
    return it == self.end() ? 0.0 : static_cast<double>(it->second);
  };
  m.set("bench.span_coverage", stepNs == 0.0 ? 0.0 : 1.0 - selfOf("step") / stepNs,
        "ratio");
  for (const char* n : kSpanNames) {
    m.set(std::string("bench.self_share.") + n, ratio(selfOf(n), stepNs), "ratio");
  }
}

void finish(RunResult& r, Gathered& g, Harness& h, const RunOptions& opts,
            const std::vector<dz::Rectangle>& probeRects) {
  const Tally& t = h.tally();
  r.attempted = t.events + g.ops.attempted;
  r.failed += g.ops.failed;
  r.correct = r.checkFailures.empty();
  if (opts.trace) {
    const Probes pr = runProbes(h, probeRects);
    emitPerLayer(r, g, h, pr);
  } else {
    emitEndToEnd(r, g, h);
  }
}

/// Runs `build` kInitialSetups times with identical inputs, keeping the
/// last instance; returns the set-up times.
template <typename Built, typename BuildFn>
std::vector<double> repeatSetup(std::unique_ptr<Built>& out, BuildFn build) {
  std::vector<double> times;
  for (int i = 0; i < kInitialSetups; ++i) {
    out.reset();
    const std::int64_t t0 = nowNs();
    out = build();
    times.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }
  return times;
}

/// Set-up time of one instance that is built and then discarded.
template <typename BuildFn>
double timeSetup(BuildFn build) {
  const std::int64_t t0 = nowNs();
  const auto instance = build();
  return static_cast<double>(nowNs() - t0) / 1e9;
}

/// Wall-time instants `every` ns apart, the first half a period after
/// `start`.
class Periodic {
 public:
  Periodic(std::int64_t start, std::int64_t every)
      : every_(every), next_(start + every / 2) {}
  /// Whether an instant has passed that no earlier call returned true for.
  bool due() {
    if (nowNs() < next_) return false;
    next_ += every_;
    return true;
  }

 private:
  std::int64_t every_;
  std::int64_t next_;
};

bool timeLeft(std::int64_t start, double seconds) {
  return static_cast<double>(nowNs() - start) < seconds * 1e9;
}

// ---- publish_fanout ------------------------------------------------------------

namespace fanout {

/// 500 rectangles of 20% per attribute (4% of the space): about 20 match
/// an event, as 2,000 of 10% would, so an event still reaches ~14 hosts.
/// 2,000 gave the same data-plane figures' spread but a ~7.7 MB controller
/// state whose ~120 ms unsubscribes swung by 35% with the shared host's
/// memory speed; at 500 they take ~10 ms.
constexpr int kSubs = 500;
constexpr double kSelectivity = 0.20;
constexpr std::size_t kBurst = 32;
constexpr net::SimTime kBurstSpan = 64 * net::kMicrosecond;
/// Bursts whose outputs form the digest and the virtual-time metrics.
constexpr std::size_t kPrefixBursts = 300;
/// Mobility pairs (unsubscribe one, subscribe a new rectangle elsewhere)
/// run in clusters of kClusterPairs back to back, one cluster per this much
/// wall time of the timed phase after the deterministic bursts: 5 clusters
/// in a 30 s run, about 1.3 s each at ~12 ms per unsubscribe. Clusters keep
/// the bursts between them free of controller work, and spread the calls
/// over the run as the bursts are.
constexpr std::int64_t kClusterEveryNs = 6'000'000'000;
constexpr int kClusterPairs = 100;
/// Untimed bursts after a cluster or a spread set-up, so that the timed
/// bursts see the data plane of an idle controller rather than the caches
/// the controller work just flushed.
constexpr int kWarmBursts = 16;
constexpr int kVerifyBursts = 20;

struct Built {
  Harness h;
  Rng rng;
  std::vector<net::NodeId> publishers;
  Built(core::PleromaOptions o, std::uint64_t seed)
      : h(net::Topology::kAryFatTree(4), o), rng(seed) {}
};

std::unique_ptr<Built> build(std::uint64_t seed) {
  core::PleromaOptions o;
  o.numAttributes = 2;
  o.network.hostServiceTime = net::kMicrosecond;
  auto b = std::make_unique<Built>(o, seed);
  const auto& hosts = b->h.hosts();
  b->publishers = {hosts[0], hosts[5], hosts[10], hosts[15]};
  for (const net::NodeId pub : b->publishers) {
    b->h.p().advertise(pub, b->h.p().controller().space().wholeSpace());
  }
  for (int i = 0; i < kSubs; ++i) {
    b->h.setupSubscribe(hosts[static_cast<std::size_t>(i) % hosts.size()],
                        uniformRect(b->rng, 2, kSelectivity));
  }
  b->h.p().settle();
  return b;
}

/// One burst: kBurst events at random instants over kBurstSpan, then
/// settle. Returns its wall time.
std::int64_t burst(Built& b, Stepper& st, bool measured) {
  std::array<Harness::Staged, kBurst> staged{};
  const auto at = arrivals(b.rng, b.h.p().simulator().now(), kBurst, kBurstSpan);
  for (std::size_t i = 0; i < kBurst; ++i) {
    staged[i] = b.h.stage(b.publishers[i % b.publishers.size()],
                          uniformEvent(b.rng, 2), at[i], measured);
  }
  return b.h.burst(st, staged);
}

RunResult run(const RunOptions& opts) {
  RunResult r;
  Gathered g;
  std::unique_ptr<Built> b;
  g.setupS = repeatSetup(b, [&] { return build(opts.seed); });
  Harness& h = b->h;
  h.setExactFp(true);
  Stepper st(r.spans);

  std::vector<dz::Rectangle> rects;
  g.ev.before = g.opBefore = snapshot(h.p());
  const std::int64_t start = nowNs();
  const double cpu0 = threadCpuS();
  Periodic clusters(start, kClusterEveryNs);
  Periodic setups(start, kSetupEveryNs);
  for (std::size_t i = 0; i < kPrefixBursts || timeLeft(start, opts.seconds); ++i) {
    const bool traced = opts.trace && (i / kTraceBlock) % 2 == 1;
    st.setTracing(traced);
    const std::int64_t ns = burst(*b, st, i < kPrefixBursts);
    g.ev.record(ns, kBurst);
    g.split.record(traced, ns, kBurst);
    if (i + 1 == kPrefixBursts) {
      fillDigest(r, snapshot(h.p()), 0, h.measured().tally);
      g.peakRssMb = peakRssMb();
    }
    if (i + 1 < kPrefixBursts) continue;
    bool flushed = false;
    if (setups.due()) {
      g.setupS.push_back(timeSetup([&] { return build(opts.seed); }));
      flushed = true;
    }
    if (clusters.due()) {
      st.setTracing(opts.trace);
      for (int k = 0; k < kClusterPairs; ++k) {
        const std::size_t victim = b->rng.below(h.live().size());
        const net::NodeId host = h.hosts()[b->rng.below(h.hosts().size())];
        dz::Rectangle rect = uniformRect(b->rng, 2, kSelectivity);
        if (rects.size() < 256) rects.push_back(rect);
        st.begin();
        h.unsubscribe(st, victim, g.ops);
        h.subscribe(st, host, rect, g.ops);
        st.end();
      }
      flushed = true;
    }
    if (!flushed) continue;
    st.setTracing(false);
    for (int k = 0; k < kWarmBursts; ++k) {
      burst(*b, st, false);
      g.ev.countUntimed(kBurst);
    }
  }
  r.timedWallS = static_cast<double>(nowNs() - start) / 1e9;
  r.timedCpuS = threadCpuS() - cpu0;
  g.ev.after = g.opAfter = snapshot(h.p());

  // The maintained deployment must still deliver exactly.
  for (int i = 0; i < kVerifyBursts; ++i) burst(*b, st, false);

  checkQuiescent(h, g, r);
  if (h.tally().missedEvents != 0) {
    r.checkFailures.push_back("false negatives");
    r.failed += h.tally().missedEvents;
  }
  finish(r, g, h, opts, rects);
  return r;
}

}  // namespace fanout

// ---- subscription_churn --------------------------------------------------------

namespace churn {

constexpr int kAttributes = 6;
constexpr double kSelectivity = 0.05;
/// Small enough that the controller's state stays near the core's own
/// cache: at 1,000 subscriptions an unsubscribe took ~13 ms and walked
/// ~15 MB, and its time (and that of the bursts after it, which found the
/// caches flushed) swung by 1.5x as the shared host's memory speed wandered;
/// at 250 it takes ~2 ms and held within ~5% over the same minutes.
constexpr int kDeployed = 250;
/// Pairs whose verification bursts form the deterministic part of the run
/// (the digest and the virtual-time metrics).
constexpr std::size_t kPrefixPairs = 150;
/// Every pair is followed by this many verification bursts, so the events
/// are timed across the whole phase, as the ops are, rather than in one
/// stretch of it: a shared machine's speed wanders over seconds.
constexpr std::size_t kBurstsPerPair = 16;
/// Bursts are large so that each timed burst outweighs the cache refill
/// after the oracle's scan of the live 6-D rectangles that precedes it.
constexpr std::size_t kBurst = 64;
constexpr net::SimTime kBurstSpan = 64 * net::kMicrosecond;
constexpr int kCheckBursts = 16;

struct Built {
  Harness h;
  Rng rng;
  std::vector<std::pair<net::NodeId, dz::Rectangle>> ads;
  Built(core::PleromaOptions o, std::uint64_t seed)
      : h(net::Topology::kAryFatTree(4), o), rng(seed) {}
};

/// A subscription of the given selectivity whose range in every attribute
/// lies inside one aligned eighth of the domain. A uniformly placed 6-D box
/// that straddles a top-level bisection decomposes into a very coarse DZ;
/// a handful of those decide the false-positive rate and the data-plane
/// load, and their number swings from seed to seed.
dz::Rectangle alignedRect(Rng& rng, double selectivity) {
  constexpr double kBlock = (kDomainMax + 1.0) / 8;
  dz::Rectangle r;
  for (int d = 0; d < kAttributes; ++d) {
    const double width = (kDomainMax + 1.0) * selectivity * rng.uniform(0.5, 1.5);
    const double lo = kBlock * static_cast<double>(rng.below(8)) +
                      rng.uniform(0.0, kBlock - width);
    r.ranges.push_back({clampValue(lo), clampValue(lo + width - 1.0)});
  }
  return r;
}

/// Quarter q of the space: one half of the domain in each of attributes 0
/// and 1 (the first two dz bits), all of it in the others. Aligned to the
/// dz grid, its DZ is exactly one length-2 cell. Randomly placed boxes
/// decompose into DZs of wildly different volume, which made the path count
/// (and so the unsubscribe cost) swing by 2x between seeds.
dz::Rectangle quarter(std::uint64_t q) {
  dz::Rectangle r;
  for (int d = 0; d < kAttributes; ++d) r.ranges.push_back({0, kDomainMax});
  for (std::size_t d = 0; d < 2; ++d) {
    r.ranges[d] = ((q >> d) & 1) == 0 ? dz::Range{0, kDomainMax / 2}
                                      : dz::Range{kDomainMax / 2 + 1, kDomainMax};
  }
  return r;
}

std::unique_ptr<Built> build(std::uint64_t seed) {
  core::PleromaOptions o;
  o.numAttributes = kAttributes;
  o.controller.maxDzLength = 24;
  o.controller.maxCellsPerRequest = 8;
  o.network.hostServiceTime = net::kMicrosecond;
  auto b = std::make_unique<Built>(o, seed);
  const auto& hosts = b->h.hosts();
  core::Pleroma& p = b->h.p();
  b->ads.emplace_back(hosts[0], p.controller().space().wholeSpace());
  for (std::uint64_t q = 0; q < 3; ++q) {
    b->ads.emplace_back(hosts[5 * (q + 1)], quarter(q));
  }
  for (const auto& [host, rect] : b->ads) p.advertise(host, rect);
  for (int i = 0; i < kDeployed; ++i) {
    const net::NodeId host = hosts[b->rng.below(hosts.size())];
    b->h.setupSubscribe(host, alignedRect(b->rng, kSelectivity));
  }
  p.settle();
  return b;
}

/// The aligned eighth-of-the-domain block holding an alignedRect().
dz::Rectangle blockOf(const dz::Rectangle& r) {
  constexpr dz::AttributeValue kBlock = (kDomainMax + 1) / 8;
  dz::Rectangle b;
  for (const dz::Range& range : r.ranges) {
    const dz::AttributeValue lo = range.lo / kBlock * kBlock;
    b.ranges.push_back({lo, lo + kBlock - 1});
  }
  return b;
}

/// A burst of events, each published by an advertiser whose rectangle
/// contains it. 6-D uniform events would almost never match, so half fall
/// inside a live subscription, a quarter near one (inside its block: a
/// match or a false positive, depending on the subscription's DZ) and a
/// quarter anywhere.
std::int64_t burst(Built& b, Stepper& st, bool measured, EventPhase* ev) {
  std::array<Harness::Staged, kBurst> staged{};
  const auto at = arrivals(b.rng, b.h.p().simulator().now(), kBurst, kBurstSpan);
  for (std::size_t i = 0; i < kBurst; ++i) {
    const auto& live = b.h.live();
    const double u = b.rng.unit();
    const dz::Rectangle& near = live[b.rng.below(live.size())].rect;
    dz::Event e = u < 0.5    ? pointIn(b.rng, near)
                  : u < 0.75 ? pointIn(b.rng, blockOf(near))
                             : uniformEvent(b.rng, kAttributes);
    std::vector<net::NodeId> candidates;
    for (const auto& [host, rect] : b.ads) {
      if (rect.contains(e)) candidates.push_back(host);
    }
    const net::NodeId pub = candidates[b.rng.below(candidates.size())];
    staged[i] = b.h.stage(pub, std::move(e), at[i], measured);
  }
  const std::int64_t ns = b.h.burst(st, staged);
  if (ev != nullptr) ev->record(ns, kBurst);
  return ns;
}

RunResult run(const RunOptions& opts) {
  RunResult r;
  Gathered g;
  std::unique_ptr<Built> b;
  g.setupS = repeatSetup(b, [&] { return build(opts.seed); });
  Harness& h = b->h;
  h.setExactFp(true);
  Stepper st(r.spans);
  std::vector<dz::Rectangle> rects;

  g.ev.before = g.opBefore = snapshot(h.p());
  const std::int64_t start = nowNs();
  const double cpu0 = threadCpuS();
  Periodic setups(start, kSetupEveryNs);
  for (std::size_t i = 0; i < kPrefixPairs || timeLeft(start, opts.seconds); ++i) {
    const bool traced = opts.trace && (i / kTraceBlock) % 2 == 1;
    st.setTracing(traced);
    const std::size_t victim = b->rng.below(h.live().size());
    const net::NodeId host = h.hosts()[b->rng.below(h.hosts().size())];
    dz::Rectangle rect = alignedRect(b->rng, kSelectivity);
    if (rects.size() < 256) rects.push_back(rect);
    const std::size_t before = g.ops.count();
    st.begin();
    h.unsubscribe(st, victim, g.ops);
    h.subscribe(st, host, rect, g.ops);
    g.split.record(traced, st.end(), g.ops.count() - before);
    h.p().settle();
    // The churned deployment must still deliver exactly.
    for (std::size_t k = 0; k < kBurstsPerPair; ++k) {
      burst(*b, st, i < kPrefixPairs, &g.ev);
    }
    if (i + 1 == kPrefixPairs) {
      fillDigest(r, snapshot(h.p()), 0, h.measured().tally);
      g.peakRssMb = peakRssMb();
    }
    if (i + 1 >= kPrefixPairs && setups.due()) {
      g.setupS.push_back(timeSetup([&] { return build(opts.seed); }));
    }
  }
  r.timedWallS = static_cast<double>(nowNs() - start) / 1e9;
  r.timedCpuS = threadCpuS() - cpu0;
  g.ev.after = g.opAfter = snapshot(h.p());

  // Post-timing verification: the churned deployment still delivers exactly.
  st.setTracing(false);
  for (int i = 0; i < kCheckBursts; ++i) burst(*b, st, false, nullptr);

  checkQuiescent(h, g, r);
  if (h.tally().missedEvents != 0) {
    r.checkFailures.push_back("false negatives");
    r.failed += h.tally().missedEvents;
  }
  finish(r, g, h, opts, rects);
  return r;
}

}  // namespace churn

// ---- congested_mixed -------------------------------------------------------

namespace congested {

/// 10 Mbps links: a 51-byte event packet serializes in ~41us.
constexpr double kBandwidthBps = 10e6;
constexpr net::SimTime kStepInterval = 40 * net::kMicrosecond;
constexpr std::size_t kEventsPerStep = 4;
constexpr int kSubs = 64;
constexpr double kSelectivity = 0.06;
constexpr std::size_t kCongestionEvery = 4;  // steps: 160us
constexpr std::size_t kLoadEvery = 10;       // steps: 400us
constexpr std::size_t kOpEvery = 16;         // steps: 640us
/// Wall-time blocks of a whole multiple of the 80-step period of the calls
/// above, so every block holds the same calls.
constexpr std::size_t kBlockSteps = 400;
/// Steps whose events form the digest and the virtual-time metrics, and
/// the steps that must follow them so their fate is decided identically.
constexpr std::size_t kPrefixSteps = 20000;
/// Events are judged this long (virtual) after publication.
constexpr net::SimTime kJudgeAfter = 100 * net::kMillisecond;
/// Long enough that the last prefix event is judged before the margin ends.
constexpr std::size_t kMarginSteps =
    static_cast<std::size_t>(kJudgeAfter / kStepInterval) + 500;

struct Built {
  Harness h;
  Rng rng;
  QuadrantHotspots hot;
  std::array<std::array<net::NodeId, 2>, 4> publishers{};
  std::array<std::size_t, 4> nextPublisher{};
  net::CongestionMonitor congestion;
  ctrl::LoadMonitor load;

  static core::PleromaOptions options() {
    core::PleromaOptions o;
    o.numAttributes = 2;
    o.controller.aggregateSubscriptions = true;
    o.network.linkQueueCapacity = 8;
    o.network.backpressure = true;
    return o;
  }
  /// Under this load some link is always hot, so the monitor would reroot
  /// at every chance; the thresholds ignore mild imbalance and the cooldown
  /// (20 windows, 8 ms) paces reroots to about one per 8 ms.
  static ctrl::LoadMonitorConfig loadConfig() {
    ctrl::LoadMonitorConfig c;
    c.hotLinkThreshold = 4.0;
    c.congestionScoreThreshold = 8.0;
    c.rebalanceCooldown = 20;
    return c;
  }
  explicit Built(std::uint64_t seed)
      : h(net::Topology::kAryFatTree(4, 50 * net::kMicrosecond, kBandwidthBps),
          options()),
        rng(seed),
        hot(rng),
        congestion(h.p().network()),
        load(h.p().controller(), loadConfig()) {
    load.attachCongestion(&congestion);
  }
};

std::unique_ptr<Built> build(std::uint64_t seed) {
  auto b = std::make_unique<Built>(seed);
  const auto& hosts = b->h.hosts();
  core::Pleroma& p = b->h.p();
  // Two publishers per quadrant, in different pods, so no publisher's
  // access link carries a whole quadrant's traffic: the core links are
  // where the load meets.
  for (std::size_t q = 0; q < 4; ++q) {
    b->publishers[q] = {hosts[4 * q], hosts[4 * ((q + 1) % 4) + 2]};
    for (const net::NodeId pub : b->publishers[q]) {
      p.advertise(pub, QuadrantHotspots::quadrant(static_cast<int>(q)));
    }
  }
  for (int i = 0; i < kSubs; ++i) {
    b->h.setupSubscribe(hosts[static_cast<std::size_t>(i) % hosts.size()],
                        b->hot.rect(b->rng, kSelectivity));
  }
  p.settle();
  return b;
}

RunResult run(const RunOptions& opts) {
  RunResult r;
  Gathered g;
  std::unique_ptr<Built> b;
  g.setupS = repeatSetup(b, [&] { return build(opts.seed); });
  Harness& h = b->h;
  h.setExcuseChurn(true);
  g.ev = EventPhase(kBlockSteps);
  core::Pleroma& p = h.p();
  Stepper st(r.spans);
  std::vector<dz::Rectangle> rects;

  g.ev.before = g.opBefore = snapshot(p);
  net::SimTime cursor = p.simulator().now();
  const std::int64_t start = nowNs();
  const double cpu0 = threadCpuS();
  Periodic setups(start, kSetupEveryNs);
  for (std::size_t i = 0;
       i < kPrefixSteps + kMarginSteps || timeLeft(start, opts.seconds); ++i) {
    const bool traced = opts.trace && (i / kTraceBlock) % 2 == 1;
    st.setTracing(traced);
    std::array<Harness::Staged, kEventsPerStep> staged{};
    const auto at = arrivals(b->rng, cursor, kEventsPerStep, kStepInterval);
    for (std::size_t k = 0; k < kEventsPerStep; ++k) {
      dz::Event e = b->hot.event(b->rng);
      const auto q = static_cast<std::size_t>(QuadrantHotspots::quadrantOf(e));
      const net::NodeId pub = b->publishers[q][b->nextPublisher[q]++ % 2];
      staged[k] = h.stage(pub, std::move(e), at[k], i < kPrefixSteps);
    }
    const bool op = i % kOpEvery == kOpEvery - 1;
    std::size_t victim = 0;
    net::NodeId host = net::kInvalidNode;
    dz::Rectangle rect;
    if (op) {
      victim = b->rng.below(h.live().size());
      host = h.hosts()[b->rng.below(h.hosts().size())];
      rect = b->hot.rect(b->rng, kSelectivity);
      if (rects.size() < 256) rects.push_back(rect);
    }

    st.begin();
    for (const Harness::Staged& s : staged) h.publish(st, s);
    cursor += kStepInterval;
    st.call(kSettle, [&] { p.settleUntil(cursor); });
    if (i % kCongestionEvery == kCongestionEvery - 1) {
      st.call(kCongestionSample, [&] { b->congestion.sampleOnce(); });
    }
    if (i % kLoadEvery == kLoadEvery - 1) {
      st.call(kLoadSample, [&] { b->load.sample(); });
      st.call(kRebalance, [&] { b->load.rebalanceOnce(); });
    }
    if (op) {
      h.unsubscribe(st, victim, g.ops);
      h.subscribe(st, host, rect, g.ops);
    }
    const std::int64_t ns = st.end();
    g.ev.record(ns, kEventsPerStep);
    g.split.record(traced, ns, kEventsPerStep);

    h.drain();
    h.judgeUntil(cursor - kJudgeAfter);
    // Every run executes the prefix and margin steps identically, and by
    // the margin's end every prefix event is judged: the digest is read
    // there.
    if (i + 1 == kPrefixSteps + kMarginSteps) {
      fillDigest(r, snapshot(p), b->load.rebalances(), h.measured().tally);
      g.peakRssMb = peakRssMb();
    }
    if (i + 1 >= kPrefixSteps + kMarginSteps && setups.due()) {
      g.setupS.push_back(timeSetup([&] { return build(opts.seed); }));
    }
  }
  r.timedWallS = static_cast<double>(nowNs() - start) / 1e9;
  r.timedCpuS = threadCpuS() - cpu0;
  g.ev.after = g.opAfter = snapshot(p);
  g.reroots = b->load.rebalances();

  p.settle();
  h.drain();
  h.judgeAll();
  checkQuiescent(h, g, r);
  const Tally& t = h.tally();
  const std::uint64_t drops = snapshot(p).totalDrops();
  if (t.missedEvents > drops) {
    r.checkFailures.push_back("misses exceed counted drops");
    r.failed += t.missedEvents - drops;
  }
  finish(r, g, h, opts, rects);
  return r;
}

}  // namespace congested

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "publish_fanout", "subscription_churn", "congested_mixed"};
  return names;
}

RunResult runWorkload(const RunOptions& opts) {
  if (opts.workload == "publish_fanout") return fanout::run(opts);
  if (opts.workload == "subscription_churn") return churn::run(opts);
  if (opts.workload == "congested_mixed") return congested::run(opts);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace perfbench
