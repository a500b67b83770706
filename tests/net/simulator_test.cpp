#include "net/simulator.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace pleroma::net {
namespace {

TEST(Simulator, StartsAtZeroIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(300, [&] { order.push_back(3); });
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(200, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(100, [&] { order.push_back(2); });
  sim.schedule(100, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(100, [&] { ++fired; });
  sim.schedule(200, [&] { ++fired; });
  sim.schedule(300, [&] { ++fired; });
  EXPECT_EQ(sim.runUntil(200), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.schedule(50, [] {});
  sim.runUntil(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, ProcessedEventsAccumulates) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.processedEvents(), 5u);
  sim.schedule(1, [] {});
  sim.run();
  EXPECT_EQ(sim.processedEvents(), 6u);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  sim.schedule(100, [] {});
  sim.run();
  SimTime seen = -1;
  sim.scheduleAt(250, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 250);
}

TEST(SmallTask, SmallCapturesStayInline) {
  int x = 0;
  SmallTask t = [&x] { ++x; };  // one pointer: far under kInlineBytes
  EXPECT_TRUE(t.inlineStored());
  t();
  EXPECT_EQ(x, 1);
}

TEST(SmallTask, LargeCapturesFallBackToBox) {
  struct Big {
    char pad[SmallTask::kInlineBytes + 8] = {};
  };
  Big big;
  int calls = 0;
  SmallTask t = [big, &calls] { (void)big; ++calls; };
  EXPECT_FALSE(t.inlineStored());
  t();
  EXPECT_EQ(calls, 1);
}

TEST(SmallTask, MovePreservesTheCallable) {
  int x = 0;
  SmallTask a = [&x] { x += 7; };
  SmallTask b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(x, 7);
}

/// Records every packet event it receives, with the clock reading.
struct RecordingSink : PacketSink {
  struct Rec {
    SimTime when;
    PacketEventKind kind;
    NodeId node;
    PortId port;
  };
  explicit RecordingSink(Simulator& sim) : sim(&sim) {}
  void onPacketEvent(PacketEventKind kind, NodeId node, PortId port,
                     Packet&&) override {
    recs.push_back({sim->now(), kind, node, port});
  }
  Simulator* sim;
  std::vector<Rec> recs;
};

TEST(Simulator, PacketLaneRunsInTimeOrder) {
  Simulator sim;
  RecordingSink sink(sim);
  sim.schedulePacket(300, sink, PacketEventKind::kArrive, 3, 0, Packet{});
  sim.schedulePacket(100, sink, PacketEventKind::kArrive, 1, 0, Packet{});
  sim.schedulePacket(200, sink, PacketEventKind::kArrive, 2, 0, Packet{});
  EXPECT_EQ(sim.run(), 3u);
  ASSERT_EQ(sink.recs.size(), 3u);
  EXPECT_EQ(sink.recs[0].node, 1);
  EXPECT_EQ(sink.recs[1].node, 2);
  EXPECT_EQ(sink.recs[2].node, 3);
  EXPECT_EQ(sink.recs[2].when, 300);
}

TEST(Simulator, LanesInterleaveByScheduleOrderOnTies) {
  // Both lanes at the same timestamp must fire in schedule order — the
  // run-coalescing queue stores mixed-lane runs, and the tag bit must not
  // leak into ordering.
  Simulator sim;
  std::vector<int> order;
  struct OrderSink : PacketSink {
    std::vector<int>* order = nullptr;
    void onPacketEvent(PacketEventKind, NodeId node, PortId,
                       Packet&&) override {
      order->push_back(static_cast<int>(node));
    }
  } sink;
  sink.order = &order;
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedulePacket(100, sink, PacketEventKind::kArrive, 2, 0, Packet{});
  sim.schedule(100, [&] { order.push_back(3); });
  sim.schedulePacket(100, sink, PacketEventKind::kArrive, 4, 0, Packet{});
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, PacketEventsRescheduleFromHandler) {
  // A handler pushing a delay-0 event must land in a fresh run (its slot
  // and run were recycled before dispatch) and still execute this instant.
  Simulator sim;
  struct Chain : PacketSink {
    Simulator* sim = nullptr;
    int hops = 0;
    void onPacketEvent(PacketEventKind kind, NodeId node, PortId port,
                       Packet&& p) override {
      ++hops;
      if (hops < 5) {
        sim->schedulePacket(0, *this, kind, node, port, std::move(p));
      }
    }
  } chain;
  chain.sim = &sim;
  sim.schedulePacket(10, chain, PacketEventKind::kArrive, 1, 0, Packet{});
  sim.run();
  EXPECT_EQ(chain.hops, 5);
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.processedEvents(), 5u);
}

TEST(Simulator, PendingEventsTracksRunsAcrossLanes) {
  Simulator sim;
  RecordingSink sink(sim);
  // Two coalesced runs (same-when bursts) plus a lone event: pendingEvents
  // must count events, not heap entries.
  for (int i = 0; i < 4; ++i) sim.schedule(100, [] {});
  for (int i = 0; i < 3; ++i) {
    sim.schedulePacket(100, sink, PacketEventKind::kArrive, i, 0, Packet{});
  }
  sim.schedule(200, [] {});
  EXPECT_EQ(sim.pendingEvents(), 8u);
  sim.runUntil(100);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, MixedLaneDeterminism) {
  // The same interleaved schedule replayed on two simulators produces the
  // identical dispatch sequence (node ids double as sequence markers).
  const auto runOnce = [] {
    Simulator sim;
    RecordingSink sink(sim);
    std::vector<SimTime> taskTimes;
    for (int i = 0; i < 50; ++i) {
      const SimTime when = (i * 37) % 11;  // colliding timestamps
      sim.schedulePacket(when, sink, PacketEventKind::kArrive, i, 0, Packet{});
      if (i % 3 == 0) {
        sim.schedule(when, [&, i] { taskTimes.push_back(i); });
      }
    }
    sim.run();
    std::vector<std::pair<SimTime, NodeId>> seq;
    for (const auto& r : sink.recs) seq.emplace_back(r.when, r.node);
    return std::pair{seq, taskTimes};
  };
  const auto a = runOnce();
  const auto b = runOnce();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Simulator, DelayZeroTasksFromARunFollowTheRunInScheduleOrder) {
  // Each event of a same-timestamp packet run schedules a delay-0 task.
  // The tasks carry later sequence numbers than every event of the run,
  // so they execute after the whole run, at the same instant, in the
  // order their events scheduled them.
  Simulator sim;
  std::vector<std::pair<int, SimTime>> order;  // (+node event, -node task)
  struct SchedulingSink : PacketSink {
    Simulator* sim = nullptr;
    std::vector<std::pair<int, SimTime>>* order = nullptr;
    void onPacketEvent(PacketEventKind, NodeId node, PortId,
                       Packet&&) override {
      order->emplace_back(static_cast<int>(node), sim->now());
      sim->schedule(0, [this, node] {
        order->emplace_back(-static_cast<int>(node), sim->now());
      });
    }
  } sink;
  sink.sim = &sim;
  sink.order = &order;
  for (int i = 1; i <= 8; ++i) {
    sim.schedulePacket(kMillisecond, sink, PacketEventKind::kArrive, i, 0,
                       Packet{});
  }
  EXPECT_EQ(sim.run(), 16u);
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)].first, i + 1);
    EXPECT_EQ(order[static_cast<std::size_t>(i) + 8].first, -(i + 1));
  }
  for (const auto& [who, when] : order) EXPECT_EQ(when, kMillisecond);
}

TEST(Simulator, RunUntilDrainsASameTimestampRunAndItsDelayZeroFollowUps) {
  // runUntil(t) stops only between timestamps: a coalesced run at t,
  // including what its handlers schedule at t, drains completely, and the
  // next call resumes with the later events in order.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    sim.schedule(100, [&, i] {
      order.push_back(i);
      if (i % 2 == 0) sim.schedule(0, [&, i] { order.push_back(10 + i); });
    });
  }
  sim.schedule(101, [&] { order.push_back(99); });
  EXPECT_EQ(sim.runUntil(100), 9u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 10, 12, 14}));
  EXPECT_EQ(sim.pendingEvents(), 1u);
  EXPECT_EQ(sim.runUntil(100), 0u);
  EXPECT_EQ(sim.runUntil(200), 1u);
  EXPECT_EQ(order.back(), 99);
  EXPECT_EQ(sim.now(), 200);
}

}  // namespace
}  // namespace pleroma::net
