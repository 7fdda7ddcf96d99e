#pragma once
/// \file runner.hpp
/// Single-experiment execution: one compiled scenario, one metatask, one
/// heuristic -> one RunResult. The campaign layer builds on this.

#include <string>

#include "metrics/record.hpp"
#include "scenario/generate.hpp"
#include "workload/metatask.hpp"

namespace casched::exp {

/// How fault tolerance is granted across heuristics in a campaign.
/// kPaper is the paper's setup: NetSolve's MCT has its native re-submission
/// mechanisms, the authors' HMCT/MP/MSF implementations do not (section 5.1).
/// kScenario defers to the scenario's own [system] fault-tolerance flag,
/// applied uniformly to every heuristic.
enum class FaultTolerancePolicy : std::uint8_t { kPaper, kAll, kNone, kScenario };

/// Parses "paper" | "all" | "none" | "scenario"; throws util::ConfigError.
FaultTolerancePolicy parseFaultTolerancePolicy(const std::string& name);
const char* faultTolerancePolicyName(FaultTolerancePolicy policy);

/// True when `heuristic` gets fault tolerance under `policy`. kScenario
/// resolves to false here; use resolveFaultTolerance when a scenario default
/// is in scope.
bool grantsFaultTolerance(FaultTolerancePolicy policy, const std::string& heuristic);

/// grantsFaultTolerance with the kScenario case resolved to the scenario's
/// own [system] flag.
bool resolveFaultTolerance(FaultTolerancePolicy policy, const std::string& heuristic,
                           bool scenarioDefault);

/// Runs one heuristic on one concrete metatask of a compiled scenario
/// (testbed, churn and mesh included). It is scenario::runScenario with the
/// metatask, the fault-tolerance flag and the noise seed overridden
/// (campaigns vary the metatask and, across replications, the noise seed).
metrics::RunResult runOne(const scenario::CompiledScenario& spec,
                          const workload::Metatask& metatask,
                          const std::string& heuristic, bool faultTolerance,
                          std::uint64_t noiseSeed);

}  // namespace casched::exp
