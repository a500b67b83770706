// Fig 7(f): reconfiguration delay on the arrival of a new subscription,
// after N subscriptions are already deployed (Sec 6.5).
//
// We pre-deploy N subscriptions, then time the controller processing of the
// next 100 arrivals. Reported are: the controller's wall-clock compute
// time, the number of flow-mods issued, the modelled switch-install time
// (1 ms per flow-mod, the dominant term on 2014 hardware), and the
// resulting sustainable subscriptions/second. The paper observes no simple
// relationship with N (the cost tracks flows touched per subscription, not
// deployment size) and ~54 subs/s at 25,000 deployed.
#include "bench_common.hpp"

#include <chrono>

#include "util/stats.hpp"

namespace {

using namespace pleroma;

struct Row {
  double meanFlowMods;
  double meanCtrlMsgs;
  double meanWallUs;
  double meanModeledMs;
  double subsPerSec;
};

Row runOnce(std::size_t deployed, std::uint64_t seed, bool batched) {
  // A 6-attribute schema with narrow subscriptions keeps arriving
  // subscriptions genuinely *new*: with a tiny schema the few end hosts
  // soon cover every subspace and further subscriptions would stop
  // touching any flow at all.
  core::PleromaOptions opts;
  opts.numAttributes = 6;
  opts.controller.maxDzLength = 24;
  opts.controller.maxCellsPerRequest = 8;
  core::Pleroma p(net::Topology::testbedFatTree(), opts);
  p.controller().channel().enableBatching(batched);
  const auto hosts = p.topology().hosts();

  workload::WorkloadConfig wcfg;
  wcfg.model = workload::Model::kUniform;
  wcfg.numAttributes = 6;
  wcfg.subscriptionSelectivity = 0.05;
  wcfg.seed = seed;
  workload::WorkloadGenerator gen(wcfg);

  p.advertise(hosts[0], p.controller().space().wholeSpace());
  p.advertise(hosts[1], gen.makeAdvertisement());
  bench::deploySubscriptions(
      p, std::vector<net::NodeId>(hosts.begin() + 1, hosts.end()), gen, deployed);

  util::RunningStat flowMods, ctrlMsgs, wallUs, modeledMs;
  const int kProbes = bench::scaled(100, 10);
  for (int i = 0; i < kProbes; ++i) {
    const auto host = hosts[1 + static_cast<std::size_t>(i) % (hosts.size() - 1)];
    const dz::Rectangle rect = gen.makeSubscription();
    const std::uint64_t msgsBefore =
        p.controller().channel().stats().flowModMessages();
    const auto t0 = std::chrono::steady_clock::now();
    p.subscribe(host, rect);
    const auto t1 = std::chrono::steady_clock::now();
    const ctrl::OpStats& op = p.controller().lastOpStats();
    flowMods.add(static_cast<double>(op.totalFlowMods()));
    ctrlMsgs.add(static_cast<double>(
        p.controller().channel().stats().flowModMessages() - msgsBefore));
    wallUs.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    modeledMs.add(static_cast<double>(op.modeledInstallTime) /
                  static_cast<double>(net::kMillisecond));
  }
  // Reconfiguration delay = controller compute + switch installs.
  const double perSubMs = wallUs.mean() / 1000.0 + modeledMs.mean();
  return Row{flowMods.mean(), ctrlMsgs.mean(), wallUs.mean(), modeledMs.mean(),
             1000.0 / perSubMs};
}

}  // namespace

int main() {
  using namespace pleroma::bench;
  BenchTable bench("fig7f", "Fig 7(f)",
                   "reconfiguration delay per new subscription vs. subscriptions "
                   "already deployed");
  bench.meta("seed", 41);
  bench.meta("topology", "testbed_fat_tree");
  bench.meta("workload", "uniform_6dim_narrow_subscriptions");
  const std::vector<std::size_t> sweep =
      smokeMode() ? std::vector<std::size_t>{100}
                  : std::vector<std::size_t>{100, 1000, 5000, 10000, 25000};
  bench.beginSeries("reconfig_delay", {{"deployed_subs", "count"},
                                       {"mean_flow_mods", "mods"},
                                       {"mean_ctrl_msgs", "msgs"},
                                       {"controller_wall_us", "us"},
                                       {"switch_install_ms", "ms"},
                                       {"subs_per_sec", "1/s"}});
  for (const std::size_t n : sweep) {
    const Row r = runOnce(n, 41, /*batched=*/false);
    bench.row({n, cell(r.meanFlowMods, 1), cell(r.meanCtrlMsgs, 1),
               cell(r.meanWallUs, 1), cell(r.meanModeledMs, 2),
               cell(r.subsPerSec, 1)});
  }
  // Same sweep with per-switch flow-mod batching: the mods per
  // subscription are unchanged, but they travel in far fewer control
  // messages (one per touched switch instead of one per mod).
  bench.beginSeries("reconfig_delay_batched", {{"deployed_subs", "count"},
                                               {"mean_flow_mods", "mods"},
                                               {"mean_ctrl_msgs", "msgs"},
                                               {"controller_wall_us", "us"},
                                               {"switch_install_ms", "ms"},
                                               {"subs_per_sec", "1/s"}});
  for (const std::size_t n : sweep) {
    const Row r = runOnce(n, 41, /*batched=*/true);
    bench.row({n, cell(r.meanFlowMods, 1), cell(r.meanCtrlMsgs, 1),
               cell(r.meanWallUs, 1), cell(r.meanModeledMs, 2),
               cell(r.subsPerSec, 1)});
  }
  return 0;
}
