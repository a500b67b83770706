// The repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
//             [--commit ID]
//   perfbench --self-test
//
// Prints provenance, the virtual-output digest, sample counts and check
// results as '# ' lines, then one JSON object as the last line of stdout:
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 means the run
// completed (its correctness is in the JSON); 2 means bad arguments.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
int runSelfTest();
}

namespace {

using namespace perfbench;

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Keeps the probe's result observable so its loop is not elided.
volatile std::uint64_t gProbeSink = 0;

/// Time of a fixed pointer chase over 4 MB: how memory-bound work runs on
/// the machine right now, before and after the workload.
double memoryProbeMs() {
  constexpr std::size_t kSlots = std::size_t{1} << 19;  // 4 MB of indices
  std::vector<std::uint64_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  const std::int64_t t0 = nowNs();
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < kSlots; ++i) at = next[at];
  const double ms = static_cast<double>(nowNs() - t0) / 1e6;
  gProbeSink = at;
  return ms;
}

/// Steal ticks of all CPUs from /proc/stat (0 when unavailable).
std::uint64_t stealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (auto& x : v) in >> x;
  return v[7];
}

long involuntarySwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--spans-out FILE] [--commit ID]\n"
               "       perfbench --self-test\n"
               "workloads:";
  for (const auto& w : workloadNames()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

void writeSpans(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << '\n';
    return;
  }
  const std::int64_t base = log.spans().empty() ? 0 : log.spans().front().start;
  out << "id\tname\tparent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    out << i << '\t' << log.names()[static_cast<std::size_t>(s.name)] << '\t'
        << s.parent << '\t' << s.start - base << '\t' << s.end - base << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--self-test") return runSelfTest();

  RunOptions opts;
  std::string spansOut;
  std::string commit = "unknown";  // run.py passes the checkout's id
  bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& key = args[i];
    if (i + 1 >= args.size()) return usage("missing value for " + key);
    const std::string& val = args[++i];
    if (key == "--workload") {
      opts.workload = val;
      haveWorkload = true;
    } else if (key == "--seed") {
      const auto res = std::from_chars(val.data(), val.data() + val.size(), opts.seed);
      if (res.ec != std::errc() || res.ptr != val.data() + val.size()) {
        return usage("bad seed: " + val);
      }
      haveSeed = true;
    } else if (key == "--seconds") {
      char* end = nullptr;
      opts.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(opts.seconds > 0.0) ||
          opts.seconds > 3600.0) {
        return usage("bad seconds: " + val);
      }
      haveSeconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("bad trace: " + val);
      opts.trace = val == "1";
      haveTrace = true;
    } else if (key == "--spans-out") {
      spansOut = val;
    } else if (key == "--commit") {
      commit = val;
    } else {
      return usage("unknown argument " + key);
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const auto& w : workloadNames()) known = known || w == opts.workload;
  if (!known) return usage("unknown workload " + opts.workload);

  const double probeBefore = memoryProbeMs();
  const std::uint64_t steal0 = stealTicks();
  const long ctx0 = involuntarySwitches();
  RunResult r = runWorkload(opts);
  const long ctx1 = involuntarySwitches();
  const std::uint64_t steal1 = stealTicks();
  const double probeAfter = memoryProbeMs();

  std::ostringstream prov;
  prov << "{\"workload\": " << str(opts.workload) << ", \"seed\": " << opts.seed
       << ", \"trace\": " << (opts.trace ? 1 : 0)
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << str(__VERSION__)
       << ", \"build_type\": " << str(PERFBENCH_BUILD_TYPE)
       << ", \"commit\": " << str(commit)
       << ", \"timed_wall_s\": " << num(r.timedWallS)
       << ", \"timed_thread_cpu_s\": " << num(r.timedCpuS)
       << ", \"involuntary_ctx_switches\": " << ctx1 - ctx0
       << ", \"steal_ticks\": " << steal1 - steal0
       << ", \"memory_probe_ms_before\": " << num(probeBefore)
       << ", \"memory_probe_ms_after\": " << num(probeAfter) << "}";
  std::cout << "# provenance " << prov.str() << '\n';

  std::cout << "# digest {";
  for (std::size_t i = 0; i < r.digest.size(); ++i) {
    std::cout << (i ? ", " : "") << str(r.digest[i].first) << ": " << r.digest[i].second;
  }
  std::cout << "}\n# samples {";
  bool first = true;
  for (const auto& [name, n] : r.metrics.samples()) {
    std::cout << (first ? "" : ", ") << str(name) << ": " << n;
    first = false;
  }
  std::cout << "}\n# checks {\"failed\": [";
  for (std::size_t i = 0; i < r.checkFailures.size(); ++i) {
    std::cout << (i ? ", " : "") << str(r.checkFailures[i]);
  }
  std::cout << "]}\n";
  for (const std::string& name : r.metrics.refused()) {
    std::cerr << "perfbench: " << name
              << " not reported: too few samples beyond the percentile\n";
  }
  if (opts.trace && !spansOut.empty()) writeSpans(spansOut, r.spans);

  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  first = true;
  for (const Metric& m : r.metrics.metrics()) {
    std::cout << (first ? "" : ", ") << str(m.name) << ": {\"value\": " << num(m.value)
              << ", \"unit\": " << str(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
