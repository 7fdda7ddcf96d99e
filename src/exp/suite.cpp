#include "exp/suite.hpp"

#include "exp/tables.hpp"
#include "scenario/registry.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace casched::exp {

namespace {

/// The scenario spec with every suite override folded in.
scenario::ScenarioSpec applyOverrides(scenario::ScenarioSpec spec,
                                      const SuiteOptions& options) {
  if (options.taskCount > 0) spec.workload.count = options.taskCount;
  if (options.metatasks > 0) spec.campaign.metatasks = options.metatasks;
  if (options.replications > 0) spec.campaign.replications = options.replications;
  if (!options.heuristics.empty()) spec.campaign.heuristics = options.heuristics;
  if (options.ftPolicy) {
    spec.campaign.ftPolicy = faultTolerancePolicyName(*options.ftPolicy);
  }
  return spec;
}

void addStat(util::JsonWriter& json, const char* name, const util::RunningStat& s) {
  json.key(name).beginObject();
  json.key("mean").value(s.mean());
  json.key("sd").value(s.stddev());
  json.endObject();
}

}  // namespace

CampaignConfig campaignFromSpec(const scenario::CampaignSpec& spec) {
  CampaignConfig cc;
  cc.heuristics = spec.heuristics;
  cc.baseline = spec.baseline;
  cc.metataskCount = spec.metatasks;
  cc.replications = spec.replications;
  cc.ftPolicy = parseFaultTolerancePolicy(spec.ftPolicy);
  return cc;
}

SuiteScenarioResult runSuiteScenario(const scenario::ScenarioSpec& baseSpec,
                                     const SuiteOptions& options) {
  const scenario::ScenarioSpec spec = applyOverrides(baseSpec, options);

  SuiteScenarioResult out;
  out.scenario = spec.name;
  out.description = spec.description;
  out.campaign = campaignFromSpec(spec.campaign);
  out.campaign.threads = options.threads;
  out.ftPolicyName = spec.campaign.ftPolicy;
  out.title = !spec.campaign.title.empty()
                  ? spec.campaign.title +
                        util::strformat(" (mean of %zu runs)", out.campaign.replications)
                  : "Scenario '" + spec.name + "'" +
                        (spec.description.empty() ? "" : ": " + spec.description);

  const obs::RegistrySnapshot beforeRun = obs::Registry::global().snapshot();
  for (const scenario::SweepPoint& point : scenario::expandSweep(spec)) {
    SuiteVariant variant;
    variant.coordinates = point.coordinates;
    variant.spec = scenario::compileScenario(point.spec, options.seed);
    variant.result = runCampaign(variant.spec, out.campaign);
    out.wallSeconds += variant.result.wallSeconds;
    out.simulatedEvents += variant.result.simulatedEvents;
    out.variants.push_back(std::move(variant));
  }
  CASCHED_CHECK(!out.variants.empty(), "sweep expansion produced no variants");
  out.metricsDelta = obs::Registry::global().snapshot().since(beforeRun);
  const scenario::CompiledScenario& base = out.variants.front().spec;
  out.servers = base.testbed.servers.size();
  out.churnEvents = base.churn.size();
  out.generatedChurn = base.generatedChurn;
  out.churnDigest = scenario::churnTimelineDigest(base.churn);
  out.churnSummary = scenario::summarizeChurnTimeline(base.churn, base.faultDomains);
  return out;
}

SuiteResult runSuite(const std::vector<std::string>& names,
                     const SuiteOptions& options) {
  SuiteResult suite;
  suite.seed = options.seed;
  for (const std::string& name : names) {
    suite.scenarios.push_back(
        runSuiteScenario(scenario::findScenario(name), options));
  }
  return suite;
}

namespace {

util::TablePrinter renderSweepTable(const SuiteScenarioResult& s) {
  util::TablePrinter t(s.title);
  std::vector<std::string> header;
  for (const auto& [param, value] : s.variants.front().coordinates) {
    (void)value;
    header.push_back(param);
  }
  const std::size_t axisCols = header.size();
  header.insert(header.end(),
                {"heuristic", "completed", "collapses", "sumflow", "maxflow",
                 "maxstretch", "HTM err %", "sooner vs " + s.campaign.baseline});
  t.setHeader(std::move(header));

  for (std::size_t v = 0; v < s.variants.size(); ++v) {
    const SuiteVariant& variant = s.variants[v];
    bool firstRow = true;
    for (const std::string& h : s.campaign.heuristics) {
      const CellAggregate& c = variant.result.cell(h, 0);
      std::vector<std::string> row;
      row.reserve(axisCols + 8);
      for (const auto& [param, value] : variant.coordinates) {
        (void)param;
        row.push_back(firstRow ? value : "");
      }
      firstRow = false;
      row.push_back(h);
      row.push_back(metrics::formatMeanSd(c.metrics.completed, 0));
      row.push_back(metrics::formatMeanSd(c.collapses, 1));
      row.push_back(metrics::formatMeanSd(c.metrics.sumFlow, 0));
      row.push_back(metrics::formatMeanSd(c.metrics.maxFlow, 0));
      row.push_back(metrics::formatMeanSd(c.metrics.maxStretch, 1));
      row.push_back(metrics::formatMeanSd(c.htmRelErrorPct, 2));
      row.push_back(c.metrics.sooner.count() == 0
                        ? "-"
                        : metrics::formatMeanSd(c.metrics.sooner, 0));
      t.addRow(std::move(row));
    }
    // Rule between variants; single-row variants only rule when the slowest
    // axis advances, so a two-axis grid reads as one block per outer value.
    if (v + 1 < s.variants.size() &&
        (s.campaign.heuristics.size() > 1 ||
         s.variants[v + 1].coordinates.front().second !=
             variant.coordinates.front().second)) {
      t.addRule();
    }
  }
  return t;
}

}  // namespace

util::TablePrinter renderSuiteScenarioTable(const SuiteScenarioResult& s) {
  if (s.swept()) return renderSweepTable(s);
  const CampaignResult& result = s.variants.front().result;
  return s.campaign.metataskCount > 1 ? renderMultiMetataskTable(s.title, result)
                                      : renderSingleMetataskTable(s.title, result);
}

std::string suiteScenarioCsv(const SuiteScenarioResult& s) {
  std::vector<std::string> header{"scenario"};
  for (const auto& [param, value] : s.variants.front().coordinates) {
    (void)value;
    header.push_back(param);
  }
  header.insert(header.end(),
                {"heuristic", "metatask", "replication", "completed", "lost",
                 "makespan", "sumflow", "maxflow", "maxstretch", "meanstretch",
                 "sooner_vs_baseline", "collapses", "htm_rel_err_pct",
                 "simulated_events"});
  util::CsvWriter csv(std::move(header));
  for (const SuiteVariant& variant : s.variants) {
    for (const RawRow& r : variant.result.raw) {
      std::vector<std::string> row{s.scenario};
      for (const auto& [param, value] : variant.coordinates) {
        (void)param;
        row.push_back(value);
      }
      row.insert(row.end(),
                 {r.heuristic, std::to_string(r.metataskIndex + 1),
                  std::to_string(r.replication + 1),
                  std::to_string(r.metrics.completed), std::to_string(r.metrics.lost),
                  util::strformat("%.2f", r.metrics.makespan),
                  util::strformat("%.2f", r.metrics.sumFlow),
                  util::strformat("%.2f", r.metrics.maxFlow),
                  util::strformat("%.3f", r.metrics.maxStretch),
                  util::strformat("%.3f", r.metrics.meanStretch),
                  std::to_string(r.sooner), std::to_string(r.collapses),
                  util::strformat("%.3f", r.htmRelErrorPct),
                  std::to_string(r.metrics.simulatedEvents)});
      csv.addRow(std::move(row));
    }
  }
  return csv.render();
}

std::string suiteJson(const SuiteResult& suite) {
  util::JsonWriter json;
  json.beginObject();
  json.key("seed").value(static_cast<std::uint64_t>(suite.seed));
  json.key("scenario_count").value(suite.scenarios.size());
  json.key("scenarios").beginArray();
  for (const SuiteScenarioResult& s : suite.scenarios) {
    json.beginObject();
    json.key("name").value(s.scenario);
    json.key("description").value(s.description);
    json.key("title").value(s.title);
    json.key("servers").value(s.servers);
    json.key("churn_events").value(s.churnEvents);
    if (s.generatedChurn > 0) {
      // Per-seed record of the generated fault stream, so a suite artifact
      // and a live-run artifact from the same (scenario, seed) can prove
      // they replayed one identical timeline (equal digests).
      json.key("generated_churn").value(s.generatedChurn);
      json.key("churn_digest").value(s.churnDigest);
      json.key("churn_summary");
      json.beginObject();
      json.key("crashes").value(s.churnSummary.crashes);
      json.key("slowdowns").value(s.churnSummary.slowdowns);
      json.key("links").value(s.churnSummary.linkEvents);
      json.key("mean_downtime").value(s.churnSummary.meanDowntime);
      json.key("max_concurrent_down").value(s.churnSummary.maxConcurrentDown);
      json.key("max_dead_domains").value(s.churnSummary.maxConcurrentDeadDomains);
      json.endObject();
    }
    json.key("metatasks").value(s.campaign.metataskCount);
    json.key("replications").value(s.campaign.replications);
    json.key("baseline").value(s.campaign.baseline);
    json.key("ft_policy").value(s.ftPolicyName);
    json.key("heuristics").beginArray();
    for (const std::string& h : s.campaign.heuristics) json.value(h);
    json.endArray();

    json.key("variants").beginArray();
    for (const SuiteVariant& variant : s.variants) {
      json.beginObject();
      json.key("coordinates").beginObject();
      for (const auto& [param, value] : variant.coordinates) {
        json.key(param).value(value);
      }
      json.endObject();
      json.key("wall_seconds").value(variant.result.wallSeconds);
      json.key("simulated_events")
          .value(static_cast<std::uint64_t>(variant.result.simulatedEvents));
      json.key("events_per_second").value(variant.result.eventsPerSecond());
      json.key("heuristics").beginObject();
      for (const std::string& h : s.campaign.heuristics) {
        json.key(h).beginArray();
        for (std::size_t m = 0; m < s.campaign.metataskCount; ++m) {
          const CellAggregate& c = variant.result.cell(h, m);
          json.beginObject();
          json.key("metatask").value(m + 1);
          addStat(json, "completed", c.metrics.completed);
          addStat(json, "lost", c.lost);
          addStat(json, "makespan", c.metrics.makespan);
          addStat(json, "sumflow", c.metrics.sumFlow);
          addStat(json, "maxflow", c.metrics.maxFlow);
          addStat(json, "maxstretch", c.metrics.maxStretch);
          addStat(json, "meanstretch", c.metrics.meanStretch);
          addStat(json, "collapses", c.collapses);
          addStat(json, "htm_rel_err_pct", c.htmRelErrorPct);
          addStat(json, "simulated_events", c.metrics.simulatedEvents);
          if (c.metrics.sooner.count() > 0) {
            addStat(json, "sooner_vs_baseline", c.metrics.sooner);
          }
          json.endObject();
        }
        json.endArray();
      }
      json.endObject();
      json.endObject();
    }
    json.endArray();

    // Per-scenario slice of the process-wide metrics registry: counter and
    // histogram deltas attributable to this scenario's campaign.
    json.key("metrics").beginObject();
    for (const obs::MetricSample& m : s.metricsDelta.metrics) {
      if (m.kind == obs::MetricKind::kHistogram) {
        if (m.histogram.count == 0) continue;
        json.key(m.fullName()).beginObject();
        json.key("count").value(m.histogram.count);
        json.key("sum").value(m.histogram.sum);
        json.endObject();
      } else {
        if (m.kind == obs::MetricKind::kCounter && m.value == 0.0) continue;
        json.key(m.fullName()).value(m.value);
      }
    }
    json.endObject();

    // The ROADMAP's per-scenario perf baseline: events/sec over the whole
    // campaign of this scenario (every variant, heuristic and replication).
    json.key("wall_seconds").value(s.wallSeconds);
    json.key("simulated_events").value(static_cast<std::uint64_t>(s.simulatedEvents));
    json.key("events_per_second").value(s.eventsPerSecond());
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.str();
}

std::string scenarioFileBase(const std::string& scenarioName) {
  std::string base = scenarioName;
  for (char& c : base) {
    if (c == '/' || c == ' ') c = '_';
  }
  return base;
}

void emitSuite(const SuiteResult& suite, const std::string& outDir,
               const std::string& jsonBase) {
  for (const SuiteScenarioResult& s : suite.scenarios) {
    emitTable(renderSuiteScenarioTable(s), suiteScenarioCsv(s), outDir,
              scenarioFileBase(s.scenario));
  }
  emitText(suiteJson(suite), outDir, jsonBase + ".json");
}

}  // namespace casched::exp
