// Micro-benchmark of flow-table lookup vs. table size (google-benchmark):
// demonstrates the table-size-independent matching cost that underlies the
// flat curve of Fig 7(a).
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "net/flow_table.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace pleroma;

dz::DzExpression nthDz(int i, int len) {
  dz::U128 bits;
  for (int b = 0; b < len; ++b) {
    bits.setBitFromMsb(b, ((i >> (len - 1 - b)) & 1) != 0);
  }
  return dz::DzExpression(bits, len);
}

void BM_FlowTableLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  net::FlowTable table;
  for (int i = 0; i < n; ++i) {
    net::FlowEntry e;
    e.match = dz::dzToPrefix(nthDz(i, 17));
    e.priority = 17;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
  }
  util::Rng rng(9);
  std::vector<dz::Ipv6Address> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(dz::dzToAddress(
        nthDz(static_cast<int>(rng.uniformInt(0, static_cast<std::uint64_t>(n - 1))),
              17)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probes[i % 1024]));
    ++i;
  }
  state.SetLabel(std::to_string(n) + " entries");
}
BENCHMARK(BM_FlowTableLookup)->Arg(1000)->Arg(10000)->Arg(80000);

void BM_FlowTableLookupNestedPriorities(benchmark::State& state) {
  // Chain of nested prefixes: worst case for the per-length probing.
  net::FlowTable table;
  std::string s;
  for (int i = 0; i < 32; ++i) {
    s.push_back('1');
    net::FlowEntry e;
    e.match = dz::dzToPrefix(*dz::DzExpression::fromString(s));
    e.priority = i + 1;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
  }
  const auto probe = dz::dzToAddress(*dz::DzExpression::fromString(std::string(40, '1')));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probe));
  }
}
BENCHMARK(BM_FlowTableLookupNestedPriorities);

/// The observability acceptance gate: lookup cost with metrics never
/// attached vs. attached-but-disabled vs. enabled. The disabled variant
/// must stay within 2% of the detached baseline (the per-family enable
/// flag is one plain load behind a null check).
void BM_FlowTableLookupObs(benchmark::State& state) {
  enum Mode { kDetached = 0, kDisabled = 1, kEnabled = 2 };
  const auto mode = static_cast<Mode>(state.range(0));
  const int n = 10000;
  net::FlowTable table;
  for (int i = 0; i < n; ++i) {
    net::FlowEntry e;
    e.match = dz::dzToPrefix(nthDz(i, 17));
    e.priority = 17;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
  }
  obs::MetricsRegistry reg;
  if (mode != kDetached) {
    table.attachMetrics(reg);
    reg.setFamilyEnabled("flow_table", mode == kEnabled);
  }
  util::Rng rng(9);
  std::vector<dz::Ipv6Address> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(dz::dzToAddress(
        nthDz(static_cast<int>(rng.uniformInt(0, static_cast<std::uint64_t>(n - 1))),
              17)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probes[i % 1024]));
    ++i;
  }
  state.SetLabel(mode == kDetached ? "metrics detached"
                 : mode == kDisabled ? "metrics attached, family disabled"
                                     : "metrics enabled");
}
BENCHMARK(BM_FlowTableLookupObs)->Arg(0)->Arg(1)->Arg(2);

/// High-occupancy mixed-prefix-length lookup: 1e5 entries spread over 16
/// distinct lengths, so every lookup probes 16 buckets that are all in
/// their flat open-addressing representation. This is the fig7a shape at
/// TCAM-scale occupancy (Sec 1 cites 40k-180k entry hardware tables).
void BM_FlowTableLookupMixed(benchmark::State& state) {
  constexpr int kLengths = 16;
  constexpr int kFirstLength = 14;  // 2^14 dz per length > per-length share
  constexpr int kTotal = 100000;
  constexpr int kPerLength = kTotal / kLengths;
  net::FlowTable table;
  for (int len = kFirstLength; len < kFirstLength + kLengths; ++len) {
    for (int i = 0; i < kPerLength; ++i) {
      net::FlowEntry e;
      e.match = dz::dzToPrefix(nthDz(i, len));
      e.priority = len;
      e.actions.push_back(net::FlowAction{2, std::nullopt});
      table.insert(e);
    }
  }
  util::Rng rng(9);
  std::vector<dz::Ipv6Address> probes;
  for (int i = 0; i < 1024; ++i) {
    const int len = kFirstLength +
                    static_cast<int>(rng.uniformInt(0, kLengths - 1));
    probes.push_back(dz::dzToAddress(
        nthDz(static_cast<int>(rng.uniformInt(0, kPerLength - 1)), len)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probes[i % 1024]));
    ++i;
  }
  state.SetLabel(std::to_string(table.size()) + " entries, " +
                 std::to_string(kLengths) + " lengths");
}
BENCHMARK(BM_FlowTableLookupMixed);

/// Steady-state churn: a sliding window of 10k length-17 flows, one remove
/// + one insert per iteration. Exercises the flat bucket's backward-shift
/// deletion and the entry arena's slot recycling (steady state must not
/// allocate).
void BM_FlowTableChurn(benchmark::State& state) {
  constexpr int kWindow = 10000;
  constexpr std::uint32_t kDzMask = 0x1ffff;  // 2^17 distinct length-17 dz
  net::FlowTable table;
  for (int i = 0; i < kWindow; ++i) {
    net::FlowEntry e;
    e.match = dz::dzToPrefix(nthDz(i, 17));
    e.priority = 17;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
  }
  std::uint32_t head = 0;
  for (auto _ : state) {
    table.remove(dz::dzToPrefix(nthDz(static_cast<int>(head & kDzMask), 17)));
    net::FlowEntry e;
    e.match = dz::dzToPrefix(nthDz(static_cast<int>((head + kWindow) & kDzMask), 17));
    e.priority = 17;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
    ++head;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
  state.SetLabel("remove+insert, window " + std::to_string(kWindow));
}
BENCHMARK(BM_FlowTableChurn);

void BM_FlowTableInsert(benchmark::State& state) {
  std::size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    net::FlowTable table;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      net::FlowEntry e;
      e.match = dz::dzToPrefix(nthDz(i, 17));
      e.priority = 17;
      e.actions.push_back(net::FlowAction{2, std::nullopt});
      table.insert(e);
    }
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(round) * 1000);
}
BENCHMARK(BM_FlowTableInsert);

}  // namespace

int main(int argc, char** argv) {
  return pleroma::bench::runMicroBench("micro_flowtable", argc, argv);
}
