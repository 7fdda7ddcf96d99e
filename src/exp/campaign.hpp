#pragma once
/// \file campaign.hpp
/// A campaign reproduces one of the paper's result tables: several heuristics
/// run on identical metatasks (so the "finish sooner" comparison is fair),
/// over one or more metatasks and replications, aggregated as mean +- sd.

#include <map>
#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/runner.hpp"
#include "metrics/aggregate.hpp"

namespace casched::exp {

struct CampaignConfig {
  /// Column order of the resulting table; the paper uses
  /// {mct, hmct, mp, msf}.
  std::vector<std::string> heuristics{"mct", "hmct", "mp", "msf"};
  /// Baseline for the "number of tasks that finish sooner" row.
  std::string baseline = "mct";
  /// Distinct metatasks (paper Tables 7-8 use three).
  std::size_t metataskCount = 1;
  /// Replications per metatask (noise seeds vary; arrivals stay fixed).
  std::size_t replications = 1;
  FaultTolerancePolicy ftPolicy = FaultTolerancePolicy::kPaper;
  unsigned threads = 0;  ///< 0: hardware concurrency
};

/// Aggregate of one (heuristic, metatask) cell across replications.
struct CellAggregate {
  metrics::MetricAggregate metrics;
  util::RunningStat collapses;        ///< total server collapses per run
  util::RunningStat lost;             ///< tasks never completed
  util::RunningStat htmRelErrorPct;   ///< HTM prediction error (diagnostic)
};

/// One run's scalar results (raw CSV row).
struct RawRow {
  std::string heuristic;
  std::size_t metataskIndex = 0;
  std::size_t replication = 0;
  metrics::RunMetrics metrics;
  std::size_t sooner = 0;  ///< vs baseline, same (metatask, replication)
  std::uint64_t collapses = 0;
  double htmRelErrorPct = 0.0;
};

struct CampaignResult {
  std::vector<std::string> heuristics;
  std::size_t metataskCount = 0;
  /// cells[heuristic][metataskIndex]
  std::map<std::string, std::vector<CellAggregate>> cells;
  /// One representative run per (heuristic, metatask 0) with replication 0
  /// (benches introspect per-server data from it).
  std::map<std::string, metrics::RunResult> sampleRuns;
  std::vector<RawRow> raw;  ///< every run, deterministic order

  /// Throughput record of the whole campaign (all runs, all threads).
  double wallSeconds = 0.0;
  std::uint64_t simulatedEvents = 0;
  double eventsPerSecond() const {
    return wallSeconds > 0.0 ? static_cast<double>(simulatedEvents) / wallSeconds : 0.0;
  }

  const CellAggregate& cell(const std::string& heuristic, std::size_t metataskIdx) const;
};

/// Runs the campaign. (metatask, replication) pairs execute in parallel;
/// all heuristics of one pair run sequentially inside the job so the
/// baseline comparison never crosses threads.
CampaignResult runCampaign(const scenario::CompiledScenario& spec,
                           const CampaignConfig& config);

/// Raw per-run CSV of a campaign (one row per heuristic x metatask x
/// replication) for archival/plotting.
std::string campaignRawCsv(const CampaignResult& result);

}  // namespace casched::exp
