// Tests of the suite layer: campaign-spec mapping, suite overrides, the
// mean +- sd aggregation math against the raw rows, baseline pairing across
// (metatask, replication), sweep-variant execution, and the JSON/CSV/table
// output formats including the per-scenario throughput record, and that the
// campaign path runs [mesh] scenarios as their mesh.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/error.hpp"

#include "exp/suite.hpp"
#include "scenario/generate.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace casched::exp {
namespace {

/// Small, noise-free scenario: replications are bit-identical, so every
/// aggregate has sd == 0 and the pairing logic is fully deterministic.
constexpr const char* kSmallScenario = R"(
[scenario]
name = suite-small
description = two uniform servers, tiny waste-cpu metatask

[arrival]
process = poisson
mean = 12

[workload]
count = 40
mix = waste-cpu-200 : 1
mix = waste-cpu-400 : 1

[platform]
kind = preset
preset = uniform-2

[campaign]
heuristics = mct, msf
baseline = mct
metatasks = 2
replications = 2
ft-policy = paper
title = Suite smoke table
)";

constexpr const char* kSweptScenario = R"(
[scenario]
name = suite-swept
description = rate sweep over a tiny metatask

[arrival]
process = poisson
mean = 12

[workload]
count = 30
mix = waste-cpu-200 : 1

[platform]
kind = preset
preset = uniform-2

[campaign]
heuristics = mct, msf
baseline = mct
replications = 2
ft-policy = none

[sweep]
axis = rate : 12, 6
)";

TEST(Suite, CampaignFromSpecMapsEveryField) {
  scenario::CampaignSpec spec;
  spec.heuristics = {"hmct", "msf"};
  spec.baseline = "hmct";
  spec.metatasks = 3;
  spec.replications = 5;
  spec.ftPolicy = "all";
  const CampaignConfig cc = campaignFromSpec(spec);
  EXPECT_EQ(cc.heuristics, spec.heuristics);
  EXPECT_EQ(cc.baseline, "hmct");
  EXPECT_EQ(cc.metataskCount, 3u);
  EXPECT_EQ(cc.replications, 5u);
  EXPECT_EQ(cc.ftPolicy, FaultTolerancePolicy::kAll);
}

TEST(Suite, RunsAnUnsweptScenarioAndAggregatesCorrectly) {
  const scenario::ScenarioSpec spec = scenario::parseScenario(kSmallScenario);
  SuiteOptions options;
  options.seed = 7;
  const SuiteScenarioResult s = runSuiteScenario(spec, options);

  EXPECT_EQ(s.scenario, "suite-small");
  EXPECT_FALSE(s.swept());
  ASSERT_EQ(s.variants.size(), 1u);
  EXPECT_EQ(s.servers, 2u);
  EXPECT_NE(s.title.find("Suite smoke table"), std::string::npos);
  EXPECT_NE(s.title.find("mean of 2 runs"), std::string::npos);

  const CampaignResult& result = s.variants.front().result;
  EXPECT_EQ(result.raw.size(), 2u * 2u * 2u);  // heuristics x metatasks x reps

  // Mean +- sd math: recompute each cell's makespan stats from the raw rows.
  for (const std::string& h : s.campaign.heuristics) {
    for (std::size_t m = 0; m < s.campaign.metataskCount; ++m) {
      double sum = 0.0, sumSq = 0.0;
      std::size_t n = 0;
      for (const RawRow& r : result.raw) {
        if (r.heuristic != h || r.metataskIndex != m) continue;
        sum += r.metrics.makespan;
        sumSq += r.metrics.makespan * r.metrics.makespan;
        ++n;
      }
      ASSERT_EQ(n, s.campaign.replications);
      const double mean = sum / static_cast<double>(n);
      const double var =
          (sumSq - sum * mean) / static_cast<double>(n - 1);  // sample variance
      const auto& cell = result.cell(h, m).metrics.makespan;
      EXPECT_NEAR(cell.mean(), mean, 1e-9) << h << " M" << m;
      EXPECT_NEAR(cell.stddev(), std::sqrt(std::max(0.0, var)), 1e-6)
          << h << " M" << m;
    }
  }

  // Baseline pairing: a noise-free campaign repeats identically per
  // replication, so "sooner vs baseline" is constant within each metatask
  // (sd == 0) and paired rows agree with their cell.
  const auto& sooner = result.cell("msf", 0).metrics.sooner;
  EXPECT_EQ(sooner.count(), s.campaign.replications);
  EXPECT_NEAR(sooner.stddev(), 0.0, 1e-12);
  for (const RawRow& r : result.raw) {
    if (r.heuristic == "mct") {
      EXPECT_EQ(r.sooner, 0u);  // the baseline is never compared to itself
    } else {
      EXPECT_DOUBLE_EQ(
          static_cast<double>(r.sooner),
          result.cell(r.heuristic, r.metataskIndex).metrics.sooner.mean());
    }
  }

  // Per-scenario perf record.
  EXPECT_GT(s.simulatedEvents, 0u);
  EXPECT_GT(s.wallSeconds, 0.0);
  EXPECT_GT(s.eventsPerSecond(), 0.0);
  EXPECT_EQ(s.simulatedEvents, result.simulatedEvents);
}

TEST(Suite, FaultTolerancePolicyGrantsPerHeuristic) {
  scenario::ScenarioSpec spec = scenario::parseScenario(kSmallScenario);
  spec.campaign.heuristics = {"mct", "msf"};
  spec.campaign.metatasks = 1;
  spec.campaign.replications = 1;
  SuiteOptions options;

  // ft-policy = paper: only MCT runs fault tolerant. The config is copied
  // into each run, so probe via the campaign's resolved policy.
  const SuiteScenarioResult paper = runSuiteScenario(spec, options);
  EXPECT_EQ(paper.campaign.ftPolicy, FaultTolerancePolicy::kPaper);

  spec.campaign.ftPolicy = "scenario";
  spec.system.faultTolerance = true;
  const SuiteScenarioResult scen = runSuiteScenario(spec, options);
  EXPECT_EQ(scen.campaign.ftPolicy, FaultTolerancePolicy::kScenario);
  EXPECT_TRUE(resolveFaultTolerance(scen.campaign.ftPolicy, "msf",
                                    spec.system.faultTolerance));

  // Suite-level override wins over the scenario's policy.
  options.ftPolicy = FaultTolerancePolicy::kNone;
  const SuiteScenarioResult none = runSuiteScenario(spec, options);
  EXPECT_EQ(none.campaign.ftPolicy, FaultTolerancePolicy::kNone);
}

TEST(Suite, OverridesShrinkTheScenario) {
  const scenario::ScenarioSpec spec = scenario::parseScenario(kSmallScenario);
  SuiteOptions options;
  options.taskCount = 10;
  options.metatasks = 1;
  options.replications = 1;
  options.heuristics = {"hmct"};
  const SuiteScenarioResult s = runSuiteScenario(spec, options);
  EXPECT_EQ(s.campaign.heuristics, (std::vector<std::string>{"hmct"}));
  EXPECT_EQ(s.campaign.metataskCount, 1u);
  EXPECT_EQ(s.campaign.replications, 1u);
  ASSERT_EQ(s.variants.size(), 1u);
  EXPECT_EQ(s.variants.front().result.sampleRuns.at("hmct").tasks.size(), 10u);
}

TEST(Suite, RunsSweepVariantsAndLabelsThem) {
  const scenario::ScenarioSpec spec = scenario::parseScenario(kSweptScenario);
  SuiteOptions options;
  const SuiteScenarioResult s = runSuiteScenario(spec, options);
  EXPECT_TRUE(s.swept());
  ASSERT_EQ(s.variants.size(), 2u);
  EXPECT_EQ(s.variants[0].coordinates[0].second, "12");
  EXPECT_EQ(s.variants[1].coordinates[0].second, "6");
  EXPECT_DOUBLE_EQ(s.variants[1].spec.metataskConfig.meanInterarrival, 6.0);

  const std::string table = renderSuiteScenarioTable(s).render();
  EXPECT_NE(table.find("rate"), std::string::npos);
  EXPECT_NE(table.find("sooner vs mct"), std::string::npos);

  const std::string csv = suiteScenarioCsv(s);
  EXPECT_NE(csv.find("scenario,rate,heuristic"), std::string::npos);
  // 2 variants x 2 heuristics x 1 metatask x 2 replications rows + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1 + 8);
}

TEST(Suite, JsonCarriesThePerfRecordAndAggregates) {
  const scenario::ScenarioSpec spec = scenario::parseScenario(kSweptScenario);
  SuiteOptions options;
  options.seed = 11;
  SuiteResult suite;
  suite.seed = options.seed;
  suite.scenarios.push_back(runSuiteScenario(spec, options));
  const std::string json = suiteJson(suite);
  for (const char* expected :
       {"\"seed\": 11", "\"scenario_count\": 1", "\"name\": \"suite-swept\"",
        "\"events_per_second\":", "\"wall_seconds\":", "\"simulated_events\":",
        "\"coordinates\":", "\"rate\": \"12\"", "\"rate\": \"6\"",
        "\"ft_policy\": \"none\"", "\"makespan\":", "\"mean\":", "\"sd\":",
        "\"sooner_vs_baseline\":"}) {
    EXPECT_NE(json.find(expected), std::string::npos) << expected;
  }
}

TEST(Suite, RunSuiteUsesTheRegistryAndEmitsFiles) {
  SuiteOptions options;
  options.taskCount = 8;
  options.replications = 1;
  options.metatasks = 1;
  options.heuristics = {"mct"};
  const SuiteResult suite = runSuite({"paper/table5_matmul_low"}, options);
  ASSERT_EQ(suite.scenarios.size(), 1u);
  EXPECT_EQ(suite.scenarios.front().scenario, "paper/table5_matmul_low");
  EXPECT_NE(suite.scenarios.front().title.find("Table 5"), std::string::npos);

  EXPECT_EQ(scenarioFileBase("paper/table5_matmul_low"), "paper_table5_matmul_low");

  const std::string dir = ::testing::TempDir() + "suite_emit_test";
  emitSuite(suite, dir, "perf");
  for (const char* file : {"/paper_table5_matmul_low.txt",
                           "/paper_table5_matmul_low.csv", "/perf.json"}) {
    std::ifstream is(dir + file);
    EXPECT_TRUE(is.good()) << file;
  }

  EXPECT_THROW(runSuite({"no-such-scenario"}, options), util::Error);
}

// The suite driver runs a [mesh] scenario as its mesh, not as the paper's
// single agent: campaigns and scenario::runScenario share one simulated
// deployment.
TEST(Suite, MeshScenariosRunTheirMesh) {
  SuiteOptions options;
  options.threads = 1;
  options.taskCount = 60;
  options.metatasks = 1;
  options.replications = 1;
  options.heuristics = {"msf"};
  struct Expectation {
    const char* scenario;
    bool forwards;
    bool steals;
  };
  for (const Expectation& e : {Expectation{"mesh/saturated_rescue", true, false},
                               Expectation{"mesh/hierarchy_4agent", true, false},
                               Expectation{"mesh/steal_tree", false, true}}) {
    const SuiteScenarioResult r =
        runSuiteScenario(scenario::findScenario(e.scenario), options);
    const metrics::RunResult& run = r.variants.front().result.sampleRuns.at("msf");
    if (e.forwards) {
      EXPECT_GT(run.mesh.forwards, 0u) << e.scenario;
    }
    if (e.steals) {
      EXPECT_GT(run.mesh.steals, 0u) << e.scenario;
    }
    EXPECT_EQ(run.lostCount(), 0u) << e.scenario;
    EXPECT_EQ(run.tasks.size(), 60u) << e.scenario;
  }
}

// With nothing overridden, the campaign runner's one run is runScenario's.
TEST(Suite, RunOneWithoutOverridesIsRunScenario) {
  for (const char* name : {"mesh/steal_tree", "churny-grid"}) {
    scenario::ScenarioSpec spec = scenario::findScenario(name);
    spec.workload.count = 60;
    const scenario::CompiledScenario c = scenario::compileScenario(spec, 5);
    const metrics::RunResult a = scenario::runScenario(c, "msf");
    const metrics::RunResult b =
        runOne(c, c.metatask, "msf", c.system.faultTolerance, c.system.noiseSeed);
    ASSERT_EQ(a.tasks.size(), b.tasks.size()) << name;
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      EXPECT_EQ(a.tasks[i].server, b.tasks[i].server) << name << " task " << i;
      EXPECT_EQ(a.tasks[i].completion, b.tasks[i].completion) << name << " task " << i;
    }
    EXPECT_EQ(a.simulatedEvents, b.simulatedEvents) << name;
    EXPECT_EQ(a.mesh.steals, b.mesh.steals) << name;
    EXPECT_EQ(a.churn.total(), b.churn.total()) << name;
  }
}

}  // namespace
}  // namespace casched::exp
