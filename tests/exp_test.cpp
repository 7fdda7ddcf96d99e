// Tests of the experiment harness: the parallel runner, campaign mechanics,
// thread-count invariance and table rendering.

#include <gtest/gtest.h>

#include "util/error.hpp"

#include <atomic>

#include "exp/campaign.hpp"
#include "exp/tables.hpp"
#include "scenario/registry.hpp"

namespace casched::exp {
namespace {

TEST(ParallelRunner, RunsEveryJobExactlyOnce) {
  ParallelRunner pool(4);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    jobs.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.run(jobs);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, PropagatesFirstException) {
  ParallelRunner pool(4);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i] {
      if (i == 3) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.run(jobs), std::runtime_error);
}

TEST(ParallelRunner, EmptyAndSingleThread) {
  ParallelRunner pool(1);
  pool.run({});
  int hit = 0;
  pool.run({[&] { ++hit; }});
  EXPECT_EQ(hit, 1);
}

TEST(ParallelRunner, ZeroMeansHardwareConcurrency) {
  ParallelRunner pool(0);
  EXPECT_GE(pool.threads(), 1u);
}

TEST(FaultTolerancePolicy, PaperGrantsOnlyMct) {
  EXPECT_TRUE(grantsFaultTolerance(FaultTolerancePolicy::kPaper, "mct"));
  EXPECT_FALSE(grantsFaultTolerance(FaultTolerancePolicy::kPaper, "msf"));
  EXPECT_TRUE(grantsFaultTolerance(FaultTolerancePolicy::kAll, "msf"));
  EXPECT_FALSE(grantsFaultTolerance(FaultTolerancePolicy::kNone, "mct"));
}

TEST(FaultTolerancePolicy, ScenarioPolicyDefersToTheScenarioFlag) {
  EXPECT_TRUE(resolveFaultTolerance(FaultTolerancePolicy::kScenario, "msf", true));
  EXPECT_FALSE(resolveFaultTolerance(FaultTolerancePolicy::kScenario, "msf", false));
  // The scenario flag never leaks into the explicit policies.
  EXPECT_TRUE(resolveFaultTolerance(FaultTolerancePolicy::kPaper, "mct", false));
  EXPECT_FALSE(resolveFaultTolerance(FaultTolerancePolicy::kPaper, "msf", true));
  EXPECT_FALSE(resolveFaultTolerance(FaultTolerancePolicy::kNone, "mct", true));
  EXPECT_TRUE(resolveFaultTolerance(FaultTolerancePolicy::kAll, "msf", false));
}

TEST(FaultTolerancePolicy, ParseAndNameRoundTrip) {
  for (const auto policy :
       {FaultTolerancePolicy::kPaper, FaultTolerancePolicy::kAll,
        FaultTolerancePolicy::kNone, FaultTolerancePolicy::kScenario}) {
    EXPECT_EQ(parseFaultTolerancePolicy(faultTolerancePolicyName(policy)), policy);
  }
  EXPECT_EQ(parseFaultTolerancePolicy("Paper"), FaultTolerancePolicy::kPaper);
  EXPECT_THROW(parseFaultTolerancePolicy("sometimes"), util::Error);
}

using scenario::CompiledScenario;

CompiledScenario smallSpec() {
  CompiledScenario spec;
  spec.name = "test";
  spec.testbed = platform::buildSet2();
  spec.metataskConfig.count = 60;
  spec.metataskConfig.meanInterarrival = 15.0;
  spec.metataskConfig.types = workload::wasteCpuFamily();
  spec.metataskConfig.seed = 99;
  spec.system.cpuNoise = {0.05, 5.0};
  return spec;
}

TEST(Campaign, ProducesAllCells) {
  CampaignConfig cc;
  cc.heuristics = {"mct", "msf"};
  cc.metataskCount = 2;
  cc.replications = 2;
  cc.threads = 2;
  const CampaignResult result = runCampaign(smallSpec(), cc);
  EXPECT_EQ(result.cells.size(), 2u);
  for (const auto& h : cc.heuristics) {
    ASSERT_EQ(result.cells.at(h).size(), 2u);
    for (const auto& cell : result.cells.at(h)) {
      EXPECT_EQ(cell.metrics.makespan.count(), 2u);  // replications
    }
  }
  EXPECT_EQ(result.raw.size(), 2u * 2u * 2u);
  // Baseline has no "sooner" stat; the other heuristic has one per run.
  EXPECT_EQ(result.cell("mct", 0).metrics.sooner.count(), 0u);
  EXPECT_EQ(result.cell("msf", 0).metrics.sooner.count(), 2u);
}

TEST(Campaign, ThreadCountDoesNotChangeResults) {
  CampaignConfig cc;
  cc.heuristics = {"mct", "msf"};
  cc.metataskCount = 2;
  cc.replications = 2;
  cc.threads = 1;
  const CampaignResult serial = runCampaign(smallSpec(), cc);
  cc.threads = 4;
  const CampaignResult parallel = runCampaign(smallSpec(), cc);
  for (const auto& h : cc.heuristics) {
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_DOUBLE_EQ(serial.cell(h, m).metrics.sumFlow.mean(),
                       parallel.cell(h, m).metrics.sumFlow.mean());
      EXPECT_DOUBLE_EQ(serial.cell(h, m).metrics.makespan.mean(),
                       parallel.cell(h, m).metrics.makespan.mean());
    }
  }
}

TEST(Campaign, SampleRunsAreRepresentative) {
  CampaignConfig cc;
  cc.heuristics = {"mct", "hmct"};
  cc.metataskCount = 1;
  cc.replications = 1;
  const CampaignResult result = runCampaign(smallSpec(), cc);
  ASSERT_EQ(result.sampleRuns.size(), 2u);
  EXPECT_EQ(result.sampleRuns.at("hmct").heuristic, "hmct");
  EXPECT_EQ(result.sampleRuns.at("hmct").tasks.size(), 60u);
}

TEST(Campaign, RawCsvHasHeaderAndRows) {
  CampaignConfig cc;
  cc.heuristics = {"mct", "msf"};
  cc.metataskCount = 1;
  cc.replications = 2;
  const CampaignResult result = runCampaign(smallSpec(), cc);
  const std::string csv = campaignRawCsv(result);
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, 1 + 4);  // header + 2 heuristics x 2 replications
  EXPECT_NE(csv.find("sooner_vs_baseline"), std::string::npos);
  EXPECT_NE(csv.find("simulated_events"), std::string::npos);
}

TEST(Campaign, RecordsThroughput) {
  CampaignConfig cc;
  cc.heuristics = {"mct", "msf"};
  cc.replications = 2;
  const CampaignResult result = runCampaign(smallSpec(), cc);
  EXPECT_GT(result.simulatedEvents, 0u);
  EXPECT_GT(result.wallSeconds, 0.0);
  EXPECT_GT(result.eventsPerSecond(), 0.0);
  // The total is exactly the sum of the per-run counters.
  std::uint64_t sum = 0;
  for (const RawRow& r : result.raw) {
    EXPECT_GT(r.metrics.simulatedEvents, 0u);
    sum += r.metrics.simulatedEvents;
  }
  EXPECT_EQ(sum, result.simulatedEvents);
  EXPECT_GT(result.cell("mct", 0).metrics.simulatedEvents.mean(), 0.0);
}

TEST(Campaign, ValidationErrors) {
  CampaignConfig cc;
  cc.heuristics = {};
  EXPECT_THROW(runCampaign(smallSpec(), cc), util::Error);
  cc.heuristics = {"mct"};
  cc.metataskCount = 0;
  EXPECT_THROW(runCampaign(smallSpec(), cc), util::Error);
  CampaignResult empty;
  EXPECT_THROW(empty.cell("mct", 0), util::Error);
}

TEST(Tables, SingleMetataskLayout) {
  CampaignConfig cc;
  cc.heuristics = {"mct", "msf"};
  const CampaignResult result = runCampaign(smallSpec(), cc);
  const std::string out = renderSingleMetataskTable("Table X", result).render();
  EXPECT_NE(out.find("Table X"), std::string::npos);
  EXPECT_NE(out.find("NetSolve's MCT"), std::string::npos);
  EXPECT_NE(out.find("MSF"), std::string::npos);
  EXPECT_NE(out.find("sumflow"), std::string::npos);
  EXPECT_NE(out.find("maxstretch"), std::string::npos);
}

TEST(Tables, MultiMetataskLayoutHasPerMetataskColumns) {
  CampaignConfig cc;
  cc.heuristics = {"mct", "msf"};
  cc.metataskCount = 3;
  const CampaignResult result = runCampaign(smallSpec(), cc);
  const std::string out = renderMultiMetataskTable("Table Y", result).render();
  EXPECT_NE(out.find("MSF M1"), std::string::npos);
  EXPECT_NE(out.find("MSF M3"), std::string::npos);
}

TEST(Tables, ServerDiagnosticsListServers) {
  CampaignConfig cc;
  cc.heuristics = {"mct"};
  const CampaignResult result = runCampaign(smallSpec(), cc);
  const std::string out = renderServerDiagnostics("diag", result).render();
  EXPECT_NE(out.find("spinnaker"), std::string::npos);
  EXPECT_NE(out.find("valette"), std::string::npos);
}

/// The spec the pre-registry benches hand-built from bench_common.hpp
/// constants (kMatmulLowRate = 30 etc.); kept here as the reference the
/// paper/* registry entries must reproduce.
CompiledScenario legacyPaperSpec(platform::Testbed testbed,
                                 std::vector<workload::TaskType> types, double rate,
                                 std::uint64_t seed) {
  CompiledScenario spec;
  spec.testbed = std::move(testbed);
  spec.metataskConfig.count = 500;
  spec.metataskConfig.meanInterarrival = rate;
  spec.metataskConfig.types = std::move(types);
  spec.metataskConfig.seed = seed;
  spec.system.reportPeriod = 30.0;
  spec.system.cpuNoise = {0.08, 5.0};
  spec.system.linkNoise = {0.10, 5.0};
  return spec;
}

CompiledScenario compiledEntry(const std::string& name, std::uint64_t seed) {
  return scenario::compileScenario(scenario::findScenario(name), seed);
}

void expectSameExperiment(const CompiledScenario& legacy,
                          const CompiledScenario& ported) {
  EXPECT_EQ(legacy.testbed.name, ported.testbed.name);
  ASSERT_EQ(legacy.testbed.servers.size(), ported.testbed.servers.size());
  for (std::size_t i = 0; i < legacy.testbed.servers.size(); ++i) {
    EXPECT_EQ(legacy.testbed.servers[i].name, ported.testbed.servers[i].name);
  }
  EXPECT_EQ(legacy.metataskConfig.count, ported.metataskConfig.count);
  EXPECT_DOUBLE_EQ(legacy.metataskConfig.meanInterarrival,
                   ported.metataskConfig.meanInterarrival);
  EXPECT_TRUE(ported.metataskConfig.typeWeights.empty());
  ASSERT_EQ(legacy.metataskConfig.types.size(), ported.metataskConfig.types.size());
  for (std::size_t i = 0; i < legacy.metataskConfig.types.size(); ++i) {
    EXPECT_EQ(legacy.metataskConfig.types[i].name, ported.metataskConfig.types[i].name);
  }
  EXPECT_DOUBLE_EQ(legacy.system.reportPeriod, ported.system.reportPeriod);
  EXPECT_DOUBLE_EQ(legacy.system.cpuNoise.amplitude, ported.system.cpuNoise.amplitude);
  EXPECT_DOUBLE_EQ(legacy.system.linkNoise.amplitude,
                   ported.system.linkNoise.amplitude);
  EXPECT_EQ(legacy.system.htmSync, ported.system.htmSync);
  EXPECT_EQ(legacy.system.faultTolerance, ported.system.faultTolerance);
  EXPECT_TRUE(ported.churn.empty());

  // Strongest check: both specs generate bit-identical metatasks, so the
  // registry entry replays the exact workload the historical bench ran.
  const workload::Metatask a = workload::generateMetatask(legacy.metataskConfig);
  const workload::Metatask b = workload::generateMetatask(ported.metataskConfig);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].arrival, b.tasks[i].arrival);
    EXPECT_EQ(a.tasks[i].type.name, b.tasks[i].type.name);
  }
}

TEST(Runner, PaperRegistryEntriesReproduceTheLegacyBenchSpecs) {
  const std::uint64_t seed = 42;
  expectSameExperiment(
      legacyPaperSpec(platform::buildSet1(), workload::matmulFamily(), 30.0, seed),
      compiledEntry("paper/table5_matmul_low", seed));
  expectSameExperiment(
      legacyPaperSpec(platform::buildSet1(), workload::matmulFamily(), 21.0, seed),
      compiledEntry("paper/table6_matmul_high", seed));
  expectSameExperiment(
      legacyPaperSpec(platform::buildSet2(), workload::wasteCpuFamily(), 30.0, seed),
      compiledEntry("paper/table7_wastecpu_low", seed));
  expectSameExperiment(
      legacyPaperSpec(platform::buildSet2(), workload::wasteCpuFamily(), 18.0, seed),
      compiledEntry("paper/table8_wastecpu_high", seed));
}

TEST(Runner, CompiledScenarioDrivesAWholeCampaign) {
  const CompiledScenario spec = compiledEntry("churny-grid", 9);
  EXPECT_EQ(spec.name, "churny-grid");
  EXPECT_EQ(spec.testbed.servers.size(), 6u);
  EXPECT_FALSE(spec.churn.empty());

  CampaignConfig cc;
  cc.heuristics = {"mct", "hmct"};
  cc.replications = 2;
  cc.ftPolicy = FaultTolerancePolicy::kAll;  // crashes must not lose tasks
  const CampaignResult result = runCampaign(spec, cc);
  for (const std::string& h : cc.heuristics) {
    const auto& sample = result.sampleRuns.at(h);
    EXPECT_EQ(sample.completedCount(), 400u) << h;
    // The churn timeline replays in every run of the campaign.
    EXPECT_GE(sample.churn.leaves, 1u) << h;
    EXPECT_GE(sample.churn.joins, 1u) << h;
  }
  EXPECT_THROW(compiledEntry("no-such-scenario", 1), util::Error);
}

}  // namespace
}  // namespace casched::exp
