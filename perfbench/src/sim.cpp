// The simulator half of a workload: registry scenarios through
// scenario::runScenario (deep) or exp::runSuiteScenario (shallow), repeated
// until the time budget is spent, with every repetition checked against the
// first.

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "exp/suite.hpp"
#include "metrics/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"

namespace perfbench {

namespace cs = casched::scenario;

namespace {

const std::vector<std::string> kHeuristics{"mct", "hmct", "mp", "msf"};

/// sim-deep runs each entry at this many seeds derived from the run's seed
/// (kDeepSeeds * seed + k). How deep a saturated scenario's traces grow,
/// and so its cost per task and its mean stretch, swings from one metatask
/// to the next: single metatasks differ by 3x in tasks per second.
constexpr std::uint64_t kDeepSeeds = 16;
/// sim-shallow's seeds per entry: its cost per task moves by about a tenth
/// from one seed to the next.
constexpr std::uint64_t kShallowSeeds = 4;

/// Deterministic facts of one run; two repetitions at one seed must agree on
/// every field.
struct RunFacts {
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;
  std::uint64_t size = 0;
  std::uint64_t events = 0;
  double meanStretch = 0.0;
  std::uint64_t forwards = 0;
  std::uint64_t steals = 0;

  bool operator==(const RunFacts&) const = default;
};

/// FNV-1a over every outcome's server, status, schedule and completion
/// dates. The depth and HTM-error metrics derive from these, so equal
/// digests across repetitions mean those repeat exactly too.
std::uint64_t outcomeDigest(const std::vector<casched::metrics::TaskOutcome>& tasks) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  for (const casched::metrics::TaskOutcome& t : tasks) {
    mix(t.server.data(), t.server.size());
    mix(&t.status, sizeof t.status);
    mix(&t.scheduledAt, sizeof t.scheduledAt);
    mix(&t.completion, sizeof t.completion);
    mix(&t.htmPredictedCompletion, sizeof t.htmPredictedCompletion);
  }
  return h;
}

double geometricMean(const std::vector<double>& values) {
  double logSum = 0.0;
  for (double v : values) logSum += std::log(v);
  return values.empty() ? 0.0 : std::exp(logSum / static_cast<double>(values.size()));
}

std::string factsText(const RunFacts& f) {
  std::ostringstream os;
  os << "completed=" << f.completed << " lost=" << f.lost << " size=" << f.size
     << " events=" << f.events << " mean_stretch=" << f.meanStretch
     << " forwards=" << f.forwards << " steals=" << f.steals;
  return os.str();
}

cs::ScenarioSpec entrySpec(const std::string& name, std::size_t tasks) {
  cs::ScenarioSpec spec = cs::findScenario(name);
  if (tasks > 0) spec.workload.count = tasks;
  return spec;
}

/// The pieces of one pass the checks and per-layer counts need.
struct PassOutput {
  std::vector<RunFacts> facts;  ///< one per run, fixed order
  std::vector<std::uint64_t> digests;  ///< outcomeDigest per run with outcomes
  std::vector<double> depths;
  std::vector<double> htmErrors;
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;
  std::uint64_t submitted = 0;
  std::uint64_t events = 0;
  std::uint64_t forwards = 0;
  std::uint64_t steals = 0;
  double stretchSum = 0.0;
  std::size_t runs = 0;
  /// sim-deep only: completed / wall seconds per seed, over both entries.
  std::vector<double> seedRates;
  /// Paired calls only: traced / untraced wall per call, and the spans the
  /// program recorded in its traced calls.
  std::vector<double> traceRatios;
  std::uint64_t programSpans = 0;
  double wallS = 0.0;  ///< untraced calls only
};

/// Runs `call` untraced and returns its result and wall seconds. With
/// `paired` set it then runs `call` once more with the program's
/// obs::TraceBuffer on, so the tracing overhead comes from interleaved
/// calls: host speed that drifts over seconds moves both halves alike.
template <class F>
auto pairedCall(F&& call, bool paired, PassOutput& out, double& wallS) {
  const Clock::time_point t0 = Clock::now();
  auto result = call();
  wallS = secondsSince(t0);
  if (paired) {
    auto& buffer = casched::obs::TraceBuffer::global();
    buffer.enable(1u << 16);
    const Clock::time_point t1 = Clock::now();
    call();
    out.traceRatios.push_back(secondsSince(t1) / wallS);
    buffer.disable();
    out.programSpans += buffer.size() + buffer.dropped();
    buffer.clear();
  }
  return result;
}

void addRun(PassOutput& out, const RunFacts& f) {
  out.facts.push_back(f);
  out.completed += f.completed;
  out.lost += f.lost;
  out.submitted += f.size;
  out.events += f.events;
  out.forwards += f.forwards;
  out.steals += f.steals;
  out.stretchSum += f.meanStretch;
  ++out.runs;
}

void addOutcomes(PassOutput& out, const std::vector<casched::metrics::TaskOutcome>& tasks) {
  const std::vector<double> d = depthsAtSchedule(tasks);
  out.depths.insert(out.depths.end(), d.begin(), d.end());
  const std::vector<double> e = htmErrorsPct(tasks);
  out.htmErrors.insert(out.htmErrors.end(), e.begin(), e.end());
}

/// Completed tasks / untraced wall seconds per seed of a pass.
void addSeedRates(PassOutput& out, const std::vector<double>& completed,
                  const std::vector<double>& wall) {
  for (std::size_t k = 0; k < completed.size(); ++k) {
    out.seedRates.push_back(completed[k] / wall[k]);
    out.wallS += wall[k];
  }
}

/// One pass over the compiled scenarios, which come entry-major with
/// `seeds` seeds each.
PassOutput deepPass(const std::vector<cs::CompiledScenario>& compiled, std::size_t seeds,
                    SpanLog* spans, bool collectOutcomes, bool paired) {
  PassOutput out;
  std::vector<double> seedCompleted(seeds, 0.0);
  std::vector<double> seedWall(seeds, 0.0);
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const cs::CompiledScenario& c = compiled[i];
    for (const std::string& h : kHeuristics) {
      ScopedSpan span(spans, "runScenario " + c.name + " " + h, "scenario");
      double wallS = 0.0;
      const casched::metrics::RunResult run =
          pairedCall([&] { return cs::runScenario(c, h); }, paired, out, wallS);
      seedWall[i % seeds] += wallS;
      seedCompleted[i % seeds] += static_cast<double>(run.completedCount());
      const casched::metrics::RunMetrics m = casched::metrics::computeMetrics(run);
      addRun(out, RunFacts{run.completedCount(), run.lostCount(), c.metatask.size(),
                           run.simulatedEvents, m.meanStretch, run.mesh.forwards,
                           run.mesh.steals});
      out.digests.push_back(outcomeDigest(run.tasks));
      if (collectOutcomes) addOutcomes(out, run.tasks);
    }
  }
  addSeedRates(out, seedCompleted, seedWall);
  return out;
}

/// One pass over the specs, seed-major, through the suite driver.
PassOutput shallowPass(const std::vector<cs::ScenarioSpec>& specs,
                       const std::vector<std::uint64_t>& seeds, SpanLog* spans,
                       bool collectOutcomes, bool paired) {
  PassOutput out;
  std::vector<double> seedCompleted(seeds.size(), 0.0);
  std::vector<double> seedWall(seeds.size(), 0.0);
  casched::exp::SuiteOptions options;
  options.threads = 1;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    options.seed = seeds[k];
    for (const cs::ScenarioSpec& spec : specs) {
      ScopedSpan span(spans, "runSuiteScenario " + spec.name, "exp");
      double wallS = 0.0;
      const casched::exp::SuiteScenarioResult r = pairedCall(
          [&] { return casched::exp::runSuiteScenario(spec, options); }, paired, out, wallS);
      seedWall[k] += wallS;
      for (const casched::exp::SuiteVariant& v : r.variants) {
        for (const casched::exp::RawRow& row : v.result.raw) {
          addRun(out, RunFacts{row.metrics.completed, row.metrics.lost, spec.workload.count,
                               row.metrics.simulatedEvents, row.metrics.meanStretch, 0, 0});
          seedCompleted[k] += static_cast<double>(row.metrics.completed);
        }
        for (const auto& [h, run] : v.result.sampleRuns) {
          out.digests.push_back(outcomeDigest(run.tasks));
          if (collectOutcomes) addOutcomes(out, run.tasks);
        }
      }
    }
  }
  addSeedRates(out, seedCompleted, seedWall);
  return out;
}

/// The seeds a run of the simulator half uses: `count` seeds derived from
/// the run's seed.
std::vector<std::uint64_t> derivedSeeds(std::uint64_t seed, std::uint64_t count) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 0; k < count; ++k) out.push_back(count * seed + k);
  return out;
}

}  // namespace

std::vector<std::string> simEntries(bool deep) {
  if (deep) return {"mesh/saturated_rescue", "multi-agent-failover"};
  return {"paper/table7_wastecpu_low", "mega-cluster", "churn/soak"};
}

SimResult runSimPart(const SimConfig& config, Failures& failures) {
  SimResult result;
  const std::vector<std::string> names = simEntries(config.deep);
  const std::size_t tasks = config.deep ? config.deepTasks : (config.smoke ? 40 : 0);
  const std::vector<std::uint64_t> seeds =
      derivedSeeds(config.seed, config.deep ? kDeepSeeds : kShallowSeeds);

  // Set-up: parse + compile every entry (metatask, testbed, churn timeline),
  // repeated; the median of batch means is reported so one slow build does
  // not move it.
  std::vector<cs::ScenarioSpec> specs;
  std::vector<cs::CompiledScenario> compiled;
  std::vector<double> setups;
  std::vector<double> compiles;
  const int setupReps = config.smoke ? 1 : kSetupReps;
  for (int rep = 0; rep < setupReps; ++rep) {
    ScopedSpan span(config.spans, "setup", "scenario");
    const Clock::time_point t0 = Clock::now();
    std::vector<cs::ScenarioSpec> s;
    for (const std::string& n : names) s.push_back(entrySpec(n, tasks));
    const Clock::time_point t1 = Clock::now();
    // The suite driver (sim-shallow) compiles inside runSuiteScenario; its
    // compiles here are the same world builds, so set-up is timed on its own.
    std::vector<cs::CompiledScenario> c;
    for (const cs::ScenarioSpec& spec : s) {
      for (std::uint64_t seed : seeds) {
        ScopedSpan compileSpan(config.spans, "compileScenario " + spec.name, "scenario");
        c.push_back(cs::compileScenario(spec, seed));
      }
    }
    compiles.push_back(1e3 * secondsSince(t1));
    setups.push_back(secondsSince(t0));
    specs = std::move(s);
    compiled = std::move(c);
  }
  result.setupS = medianOfBatchMeans(setups, kSetupBatch);
  result.compileMs = median(compiles);

  // Measured passes: at least two (the repetition check needs a second),
  // more while another pass still fits in the budget. Within a pass the
  // throughput is the geometric mean over the seeds' rates: rates multiply,
  // so a change that speeds every metatask up by x moves it by exactly x,
  // and the slowest metatask does not set the whole pass's rate. The run
  // reports the median over passes: the host's speed drifts over seconds,
  // and a median ignores a slow stretch shorter than half the run.
  PassOutput first;
  const Clock::time_point start = Clock::now();
  double wall = 0.0;
  std::vector<double> passRates;
  std::vector<double> traceRatios;
  std::size_t passes = 0;
  double lastPass = 0.0;
  while (passes < 2 || secondsSince(start) + lastPass <= config.seconds) {
    const Clock::time_point t0 = Clock::now();
    PassOutput pass =
        config.deep
            ? deepPass(compiled, seeds.size(), config.spans, passes == 0, config.pairTraced)
            : shallowPass(specs, seeds, config.spans, passes == 0, config.pairTraced);
    lastPass = secondsSince(t0);
    wall += pass.wallS;
    passRates.push_back(geometricMean(pass.seedRates));
    traceRatios.insert(traceRatios.end(), pass.traceRatios.begin(), pass.traceRatios.end());
    if (passes == 0) {
      first = std::move(pass);
    } else if (pass.facts != first.facts) {
      for (std::size_t i = 0; i < std::min(pass.facts.size(), first.facts.size()); ++i) {
        if (!(pass.facts[i] == first.facts[i])) {
          failures.push_back("sim run " + std::to_string(i) + " differs across repetitions: " +
                             factsText(first.facts[i]) + " vs " + factsText(pass.facts[i]));
          break;
        }
      }
      if (pass.facts.size() != first.facts.size()) {
        failures.push_back("sim pass produced a different number of runs");
      }
    }
    if (passes > 0 && pass.digests != first.digests) {
      failures.push_back("sim task outcomes differ across repetitions at one seed");
    }
    ++passes;
  }

  for (std::size_t i = 0; i < first.facts.size(); ++i) {
    const RunFacts& f = first.facts[i];
    if (f.completed + f.lost != f.size) {
      failures.push_back("sim run " + std::to_string(i) + ": completed + lost != metatask size (" +
                         factsText(f) + ")");
    }
    if (config.deep && f.lost != 0) {
      failures.push_back("sim-deep run " + std::to_string(i) + " lost tasks (" + factsText(f) +
                         ")");
    }
  }
  if (first.completed == 0) failures.push_back("sim completed no task");

  const double p = static_cast<double>(passes);
  result.passes = passes;
  result.passRates = passRates;
  result.wallS = wall;
  result.tasksPerS = median(passRates);
  result.completed = static_cast<std::uint64_t>(first.completed * passes);
  result.lost = static_cast<std::uint64_t>(first.lost * passes);
  result.submitted = static_cast<std::uint64_t>(first.submitted * passes);
  result.events = static_cast<std::uint64_t>(static_cast<double>(first.events) * p);
  result.meanStretch = first.runs ? first.stretchSum / static_cast<double>(first.runs) : 0.0;
  result.depthP50 = median(first.depths);
  result.depthMax = first.depths.empty()
                        ? 0.0
                        : *std::max_element(first.depths.begin(), first.depths.end());
  result.htmErrPct = median(first.htmErrors);
  result.traceOverheadFrac = traceRatios.empty() ? 0.0 : median(traceRatios) - 1.0;
  result.programSpansPerTask = static_cast<double>(first.programSpans) /
                               static_cast<double>(std::max<std::uint64_t>(1, first.submitted));
  const double sub = static_cast<double>(std::max<std::uint64_t>(1, first.submitted));
  result.forwardsPerTask = static_cast<double>(first.forwards) / sub;
  result.stealsPerTask = static_cast<double>(first.steals) / sub;
  return result;
}

std::vector<std::pair<std::string, double>> timeEntries(bool deep, std::size_t tasks,
                                                        std::uint64_t seed, SpanLog* spans) {
  std::vector<std::pair<std::string, double>> out;
  for (const std::string& name : simEntries(deep)) {
    const cs::ScenarioSpec spec = entrySpec(name, tasks);
    const Clock::time_point t0 = Clock::now();
    if (deep) {
      const std::vector<cs::CompiledScenario> compiled{cs::compileScenario(spec, seed)};
      deepPass(compiled, 1, spans, false, false);
    } else {
      shallowPass({spec}, {seed}, spans, false, false);
    }
    out.emplace_back(name, secondsSince(t0));
  }
  return out;
}

}  // namespace perfbench
