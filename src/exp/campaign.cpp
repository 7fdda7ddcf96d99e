#include "exp/campaign.hpp"

#include <algorithm>
#include <chrono>

#include "simcore/rng.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace casched::exp {

const CellAggregate& CampaignResult::cell(const std::string& heuristic,
                                          std::size_t metataskIdx) const {
  auto it = cells.find(heuristic);
  CASCHED_CHECK(it != cells.end(), "campaign has no heuristic '" + heuristic + "'");
  CASCHED_CHECK(metataskIdx < it->second.size(), "metatask index out of range");
  return it->second[metataskIdx];
}

namespace {
/// All runs of one (metatask, replication) pair.
struct PairOutcome {
  std::vector<metrics::RunResult> runs;  // ordered as config.heuristics
};
}  // namespace

CampaignResult runCampaign(const scenario::CompiledScenario& spec,
                           const CampaignConfig& config) {
  CASCHED_CHECK(!config.heuristics.empty(), "campaign needs heuristics");
  CASCHED_CHECK(config.metataskCount > 0 && config.replications > 0,
                "campaign needs at least one metatask and one replication");
  const auto wallStart = std::chrono::steady_clock::now();

  // Pre-generate the metatasks (same ones for every heuristic).
  std::vector<workload::Metatask> metatasks;
  metatasks.reserve(config.metataskCount);
  for (std::size_t m = 0; m < config.metataskCount; ++m) {
    workload::MetataskConfig mc = spec.metataskConfig;
    mc.seed = simcore::deriveSeed(spec.metataskConfig.seed, 1000 + m);
    mc.name = spec.metataskConfig.name + "-M" + std::to_string(m + 1);
    metatasks.push_back(workload::generateMetatask(mc));
  }

  const std::size_t pairs = config.metataskCount * config.replications;
  std::vector<PairOutcome> outcomes(pairs);

  std::vector<std::function<void()>> jobs;
  jobs.reserve(pairs);
  for (std::size_t m = 0; m < config.metataskCount; ++m) {
    for (std::size_t r = 0; r < config.replications; ++r) {
      const std::size_t slot = m * config.replications + r;
      jobs.push_back([&, m, r, slot] {
        const std::uint64_t noiseSeed =
            simcore::deriveSeed(spec.system.noiseSeed, slot + 1);
        PairOutcome& out = outcomes[slot];
        out.runs.reserve(config.heuristics.size());
        for (const std::string& h : config.heuristics) {
          const bool ft =
              resolveFaultTolerance(config.ftPolicy, h, spec.system.faultTolerance);
          out.runs.push_back(runOne(spec, metatasks[m], h, ft, noiseSeed));
        }
        (void)r;
      });
    }
  }
  ParallelRunner(config.threads).run(jobs);

  // Aggregate deterministically.
  CampaignResult result;
  result.heuristics = config.heuristics;
  result.metataskCount = config.metataskCount;
  for (const std::string& h : config.heuristics) {
    result.cells[h] = std::vector<CellAggregate>(config.metataskCount);
  }

  const auto baselineIdx = [&]() -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < config.heuristics.size(); ++i) {
      if (config.heuristics[i] == config.baseline) return i;
    }
    return std::nullopt;
  }();

  for (std::size_t m = 0; m < config.metataskCount; ++m) {
    for (std::size_t r = 0; r < config.replications; ++r) {
      const std::size_t slot = m * config.replications + r;
      const PairOutcome& out = outcomes[slot];
      for (std::size_t h = 0; h < config.heuristics.size(); ++h) {
        const metrics::RunResult& run = out.runs[h];
        const metrics::RunMetrics rm = metrics::computeMetrics(run);
        CellAggregate& cell = result.cells[config.heuristics[h]][m];
        cell.metrics.addRun(rm);
        std::uint64_t collapses = 0;
        for (const auto& [server, summary] : run.servers) collapses += summary.collapses;
        cell.collapses.add(static_cast<double>(collapses));
        cell.lost.add(static_cast<double>(rm.lost));
        cell.htmRelErrorPct.add(run.htmMeanRelErrorPercent);
        result.simulatedEvents += run.simulatedEvents;

        RawRow raw;
        raw.heuristic = config.heuristics[h];
        raw.metataskIndex = m;
        raw.replication = r;
        raw.metrics = rm;
        raw.collapses = collapses;
        raw.htmRelErrorPct = run.htmMeanRelErrorPercent;
        if (baselineIdx && h != *baselineIdx) {
          const std::size_t sooner = metrics::countSooner(run, out.runs[*baselineIdx]);
          cell.metrics.addSooner(sooner);
          raw.sooner = sooner;
        }
        result.raw.push_back(std::move(raw));

        if (m == 0 && r == 0) {
          result.sampleRuns.emplace(config.heuristics[h], run);
        }
      }
    }
  }
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart)
          .count();
  return result;
}

std::string campaignRawCsv(const CampaignResult& result) {
  util::CsvWriter csv({"heuristic", "metatask", "replication", "completed", "lost",
                       "makespan", "sumflow", "maxflow", "maxstretch", "meanstretch",
                       "sooner_vs_baseline", "collapses", "htm_rel_err_pct",
                       "simulated_events"});
  for (const RawRow& r : result.raw) {
    csv.addRow({r.heuristic, std::to_string(r.metataskIndex + 1),
                std::to_string(r.replication + 1), std::to_string(r.metrics.completed),
                std::to_string(r.metrics.lost), util::strformat("%.2f", r.metrics.makespan),
                util::strformat("%.2f", r.metrics.sumFlow),
                util::strformat("%.2f", r.metrics.maxFlow),
                util::strformat("%.3f", r.metrics.maxStretch),
                util::strformat("%.3f", r.metrics.meanStretch), std::to_string(r.sooner),
                std::to_string(r.collapses), util::strformat("%.3f", r.htmRelErrorPct),
                std::to_string(r.metrics.simulatedEvents)});
  }
  return csv.render();
}

}  // namespace casched::exp
