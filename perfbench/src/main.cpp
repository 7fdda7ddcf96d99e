// casched benchmark program.
//
//   perfbench --workload deep|shallow --seed N --seconds S --trace 0|1 [--smoke]
//
// Run from the repository root. Prints one line per metric and, as the last
// line, one JSON object {correct, attempted, failed, metrics}. With --trace 0
// the metrics are the end-to-end ones (tracing off); with --trace 1 the
// per-layer ones, from a traced pass. Exits non-zero when an output check
// fails. Workloads, metrics and the layer map: perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// The two workloads. Each pairs a simulator half and a live half that
/// stress the same depth of HTM trace, so every end-to-end metric is
/// measured on both.
struct Workload {
  bool deepSim;
  std::size_t liveDepth;
  double referenceRate;
};

/// sim-deep's task count per metatask: the servers saturate, so HTM traces
/// grow to about a hundred tasks. One pass (2 entries x 16 seeds x 4
/// heuristics) takes about 5 s on a 4-core x86 VM.
constexpr std::size_t kDeepTasks = 400;

bool parseOptions(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      throw std::runtime_error("unknown flag " + a);
    }
  }
  return o.workload == "deep" || o.workload == "shallow";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return name;
}

/// The metrics the result JSON carries, from BENCHMARK.json in the working
/// directory: its end-to-end list untraced, its per-layer list traced.
std::vector<std::string> benchmarkMetricNames(bool trace) {
  std::ifstream in("BENCHMARK.json");
  if (!in) throw std::runtime_error("no BENCHMARK.json in the working directory");
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::vector<std::string> names;
  const casched::util::JsonValue doc = casched::util::JsonValue::parse(text);
  for (const casched::util::JsonValue& m : doc.at(trace ? "per_layer" : "end_to_end").items()) {
    names.push_back(m.at("name").asString());
  }
  return names;
}

/// JsonWriter's document on one line: its line breaks and indentation are
/// layout only, since strings escape their control characters.
std::string oneLine(const std::string& json) {
  std::string out;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '\n') {
      out.push_back(json[i]);
      continue;
    }
    while (i + 1 < json.size() && json[i + 1] == ' ') ++i;
  }
  return out;
}

void writeFile(const std::string& path, const std::string& text) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream(path) << text;
}

int run(const Options& opt) {
  const Workload w = opt.workload == "deep" ? Workload{true, 64, 250.0}
                                            : Workload{false, 4, 1000.0};
  const std::size_t deepTasks = opt.smoke ? 60 : kDeepTasks;
  Failures failures;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const double anchor = hostAnchorNs();
  const double srcLines = repoSourceLines();
  std::printf("# workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("# host.anchor_ns %.3f repo.src_lines %.0f\n", anchor, srcLines);

  SimConfig sim;
  sim.deep = w.deepSim;
  sim.deepTasks = deepTasks;
  sim.seed = opt.seed;
  sim.smoke = opt.smoke;
  LiveConfig live;
  live.depth = w.liveDepth;
  live.referenceRate = w.referenceRate;
  live.seed = opt.seed;
  live.smoke = opt.smoke;

  if (!opt.trace) {
    sim.seconds = 0.3 * opt.seconds;
    live.seconds = 0.7 * opt.seconds;
    const SimResult s = runSimPart(sim, failures);
    const LiveResult l = runLivePart(live, failures);
    attempted = s.submitted + l.attempted;
    failed = s.lost + l.failed;
    metrics = {
        {"setup_s", s.setupS + l.setupS, "s", 0},
        {"peak_rss_mb", l.referencePeakRssMb, "MiB", 0},
        {"tasks_per_s", s.tasksPerS, "tasks/s", s.passes},
        {"mean_stretch", s.meanStretch, "ratio", 0},
        {"submit_p50_us", l.submit.p50Us, "us", l.submit.samples},
        {"submit_p99_us", l.submit.p99Us, "us", l.submit.samples},
        {"terminal_p50_us", l.terminal.p50Us, "us", l.terminal.samples},
        {"terminal_p99_us", l.terminal.p99Us, "us", l.terminal.samples},
        {"max_rate_rps", l.maxRateRps, "req/s", l.rungs.size()},
    };
    std::printf("# sim: %llu tasks in %.3f s over %zu passes, lost %llu; tasks/s per pass:",
                static_cast<unsigned long long>(s.completed), s.wallS, s.passes,
                static_cast<unsigned long long>(s.lost));
    for (double r : s.passRates) std::printf(" %.0f", r);
    std::printf("\n");
    for (const RungResult& r : l.rungs) {
      std::printf("# rung %.0f req/s: achieved %.1f, p99 %.0f us over %zu samples, backlog %zu%s\n",
                  r.rate, r.achievedRate, r.submitP99Us, r.samples, r.backlog,
                  rungPasses(r) ? "" : " (fails)");
    }
  } else {
    SpanLog spans;
    metrics.push_back({"host.anchor_ns", anchor, "ns", 0});
    metrics.push_back({"repo.src_lines", srcLines, "lines", 0});
    for (Metric& m : layerTimings(opt.smoke, &spans)) metrics.push_back(std::move(m));

    // Every sim call runs untraced and then traced, back to back: the
    // median ratio is the program's tracing overhead on this workload.
    sim.seconds = 0.24 * opt.seconds;
    sim.pairTraced = true;
    sim.spans = &spans;
    const SimResult traced = runSimPart(sim, failures);

    // Size sweep: wall time against task count, log-log slope.
    std::vector<double> sizes{200, 400, 800};
    if (opt.smoke) sizes = {20, 40};
    std::vector<double> walls;
    for (double n : sizes) {
      ScopedSpan span(&spans, "sweep " + num(n), "exp");
      double total = 0.0;
      for (const auto& [name, s] : timeEntries(w.deepSim, static_cast<std::size_t>(n), opt.seed, nullptr)) {
        total += s;
      }
      walls.push_back(total);
    }
    for (bool deep : {true, false}) {
      for (const auto& [name, s] :
           timeEntries(deep, deep ? deepTasks : (opt.smoke ? 40 : 0), opt.seed, &spans)) {
        metrics.push_back({"exp.scenario_s." + sanitize(name), s, "s", 0});
      }
    }

    live.seconds = 0.35 * opt.seconds;
    live.spans = &spans;
    const LiveResult l = runLivePart(live, failures);

    attempted = traced.submitted + l.attempted;
    failed = traced.lost + l.failed;
    const double simTasks = static_cast<double>(std::max<std::uint64_t>(1, traced.submitted));
    metrics.insert(
        metrics.end(),
        {
            {"simcore.events_per_task", static_cast<double>(traced.events) / simTasks, "count", 0},
            {"core.depth_p50", traced.depthP50, "count", 0},
            {"core.depth_max", traced.depthMax, "count", 0},
            {"core.htm_err_pct", traced.htmErrPct, "%", 0},
            {"mesh.forwards_per_task", traced.forwardsPerTask, "count", 0},
            {"mesh.steals_per_task", traced.stealsPerTask, "count", 0},
            {"scenario.compile_ms", traced.compileMs, "ms", 0},
            {"sim.wall_slope", logLogSlope(sizes, walls), "ratio", 0},
            {"tasks_per_s", traced.tasksPerS, "tasks/s", traced.passes},
            {"submit_p99_us", l.submit.p99Us, "us", l.submit.samples},
            {"terminal_p99_us", l.terminal.p99Us, "us", l.terminal.samples},
            {"max_rate_rps", l.maxRateRps, "req/s", l.rungs.size()},
            {"wire.frames_per_task", l.framesPerTask, "count", 0},
            {"wire.bytes_per_task", l.bytesPerTask, "B", 0},
            {"net.agent_cpu_frac", l.agentCpuFrac, "ratio", 0},
            {"net.inflight_p50", l.inflightP50, "count", 0},
            {"net.inflight_max", l.inflightMax, "count", 0},
            {"net.gen_late_p99_us", l.genLateP99Us, "us", l.submit.samples},
            {"obs.trace_overhead_frac", traced.traceOverheadFrac, "ratio", 0},
            {"obs.spans_per_task", traced.programSpansPerTask, "count", 0},
            {"check.failed_frac", static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)), "ratio", 0},
        });
    const std::string tracePath = ".bench_out/trace-" + opt.workload + ".json";
    writeFile(tracePath, spans.chromeJson());
    std::printf("# wrote %zu spans to %s\n", spans.size(), tracePath.c_str());
  }

  // Once per invocation: the ClientDriver / NetServerDaemon path the fake
  // servers stand in for must still agree with the simulator.
  checkLoopbackAgreement(opt.seed, failures);

  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("metric %s = %s %s (n=%zu)\n", m.name.c_str(), num(m.value).c_str(),
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("metric %s = %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
    }
  }
  for (const std::string& f : failures) std::printf("# CHECK FAILED: %s\n", f.c_str());

  const std::vector<std::string> reported = benchmarkMetricNames(opt.trace);
  casched::util::JsonWriter json;
  json.beginObject();
  json.key("correct").value(failures.empty());
  json.key("attempted").value(std::max<std::uint64_t>(1, attempted));
  json.key("failed").value(failed);
  json.key("metrics").beginObject();
  for (const std::string& name : reported) {
    const auto m = std::find_if(metrics.begin(), metrics.end(),
                                [&](const Metric& x) { return x.name == name; });
    if (m == metrics.end()) throw std::runtime_error("BENCHMARK.json names unmeasured metric " + name);
    json.key(m->name).beginObject();
    json.key("value").value(std::isfinite(m->value) ? m->value : 0.0).key("unit").value(m->unit);
    json.endObject();
  }
  json.endObject().endObject();
  const std::string line = oneLine(json.str());
  writeFile(".bench_out/result-" + opt.workload + (opt.trace ? "-trace" : "") + ".json",
            line + "\n");
  if (!failures.empty()) {
    std::fflush(stdout);
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  casched::util::Log::setLevel(casched::util::LogLevel::kError);
  Options opt;
  try {
    if (!parseOptions(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload deep|shallow --seed N --seconds S "
                   "--trace 0|1 [--smoke]\n");
      return 2;
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
