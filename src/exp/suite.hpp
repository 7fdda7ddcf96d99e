#pragma once
/// \file suite.hpp
/// The suite layer: runs a list of registry scenarios as replicated
/// campaigns - sweep axes expanded into variants - and renders each one as
/// its paper-style table, a CSV twin, and a machine-readable JSON record
/// with per-scenario throughput (simulated events / wall second). Every
/// former table/ablation bench is a thin declaration over this driver.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "obs/metrics.hpp"
#include "scenario/faults.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "util/table.hpp"

namespace casched::exp {

/// Suite-wide knobs. The zero/empty members are overrides: they replace the
/// scenario's own [campaign]/[workload] values only when set, so a suite can
/// shrink every scenario to a smoke run (--tasks 60 --replications 1)
/// without touching the registry.
struct SuiteOptions {
  std::uint64_t seed = 42;
  unsigned threads = 0;  ///< replication threads (0 = hardware)
  std::size_t replications = 0;
  std::size_t metatasks = 0;
  std::size_t taskCount = 0;
  std::vector<std::string> heuristics;
  std::optional<FaultTolerancePolicy> ftPolicy;
};

/// One sweep point of a scenario campaign (a plain scenario has exactly one
/// variant with no coordinates).
struct SuiteVariant {
  std::vector<std::pair<std::string, std::string>> coordinates;
  scenario::CompiledScenario spec;
  CampaignResult result;
};

/// Everything one scenario produced under the suite driver.
struct SuiteScenarioResult {
  std::string scenario;
  std::string description;
  std::string title;        ///< resolved display title
  CampaignConfig campaign;  ///< after suite overrides
  std::string ftPolicyName;
  std::size_t servers = 0;      ///< initial testbed size (base variant)
  std::size_t churnEvents = 0;  ///< scheduled membership timeline length
  /// Stochastic churn of the base variant at this suite's seed: how many of
  /// the timeline's events [faults] generated, their digest and the per-seed
  /// summary (crash count, mean downtime, peak dead servers/domains).
  std::size_t generatedChurn = 0;
  std::uint64_t churnDigest = 0;
  scenario::ChurnTimelineSummary churnSummary;
  std::vector<SuiteVariant> variants;

  /// What this scenario's campaign added to the process-wide metrics
  /// registry (counters and histograms as deltas against the pre-run
  /// snapshot; scenarios run sequentially, so parallel replication threads
  /// all land inside their own scenario's delta).
  obs::RegistrySnapshot metricsDelta;

  /// Per-scenario perf record, aggregated over every variant and run.
  double wallSeconds = 0.0;
  std::uint64_t simulatedEvents = 0;
  double eventsPerSecond() const {
    return wallSeconds > 0.0 ? static_cast<double>(simulatedEvents) / wallSeconds
                             : 0.0;
  }

  bool swept() const {
    return variants.size() != 1 || !variants.front().coordinates.empty();
  }
};

struct SuiteResult {
  std::uint64_t seed = 0;
  std::vector<SuiteScenarioResult> scenarios;
};

/// Maps a scenario's [campaign] section onto the campaign runner's config.
CampaignConfig campaignFromSpec(const scenario::CampaignSpec& spec);

/// Runs one scenario (already parsed - registry entry, file, or sweep base)
/// under the suite driver: overrides applied, sweep expanded, one campaign
/// per variant.
SuiteScenarioResult runSuiteScenario(const scenario::ScenarioSpec& spec,
                                     const SuiteOptions& options);

/// Runs every named registry scenario in order.
SuiteResult runSuite(const std::vector<std::string>& names,
                     const SuiteOptions& options);

/// Paper-style table of one scenario: Table 5/6 layout for one metatask,
/// Table 7/8 layout for several, and the generic sweep grid (one row per
/// variant x heuristic) for swept scenarios.
util::TablePrinter renderSuiteScenarioTable(const SuiteScenarioResult& scenario);

/// Raw per-run CSV of one scenario, sweep coordinates included.
std::string suiteScenarioCsv(const SuiteScenarioResult& scenario);

/// The whole suite as one JSON document: campaign setup, per-variant
/// aggregates (mean/sd per metric) and the per-scenario perf record
/// (wall_seconds, simulated_events, events_per_second).
std::string suiteJson(const SuiteResult& suite);

/// "paper/table5_matmul_low" -> "paper_table5_matmul_low" (output file stem).
std::string scenarioFileBase(const std::string& scenarioName);

/// Writes per-scenario table + CSV twins under `outDir` plus the suite JSON
/// as `<outDir>/<jsonBase>.json`.
void emitSuite(const SuiteResult& suite, const std::string& outDir,
               const std::string& jsonBase = "suite");

}  // namespace casched::exp
