/// waste-cpu campaign on the paper's second server set - the workflow behind
/// Tables 7 and 8. Mirrors matmul_campaign for the memoryless task family;
/// additionally archives the generated metatasks so runs can be replayed.
/// Starts from the registry entry `paper/table8_wastecpu_high` and rewrites
/// it through the scenario/sweep API before handing it to the suite driver.
///
///   ./wastecpu_campaign --rate 18 --reps 5 --metatasks 3 --save-metatasks dir

#include <iostream>

#include "exp/suite.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "simcore/rng.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace casched;
  util::ArgParser args("wastecpu_campaign",
                       "waste-cpu campaign on server set 2 (Tables 7/8)");
  args.addInt("tasks", 500, "tasks per metatask");
  args.addDouble("rate", 18.0, "mean inter-arrival (s)");
  args.addString("heuristics", "mct,hmct,mp,msf", "comma-separated heuristics");
  args.addString("ft", "paper", "fault tolerance: scenario | paper | all | none");
  args.addInt("reps", 3, "replications");
  args.addInt("metatasks", 3, "distinct metatasks (paper: 3)");
  args.addInt("seed", 42, "master seed");
  args.addDouble("cpu-noise", 0.08, "CPU and link noise amplitude");
  args.addString("save-metatasks", "", "directory to archive the generated metatasks");
  args.addString("out", "", "optional output dir for table + CSV + JSON");
  try {
    if (!args.parse(argc, argv)) return 0;

    scenario::ScenarioSpec spec =
        scenario::findScenario("paper/table8_wastecpu_high");
    spec.name = "wastecpu_campaign";
    spec.campaign.title = util::strformat("waste-cpu campaign, 1/lambda = %gs",
                                          args.getDouble("rate"));
    spec = scenario::applySweepValue(
        spec, "rate", util::strformat("%g", args.getDouble("rate")));
    spec = scenario::applySweepValue(
        spec, "noise", util::strformat("%g", args.getDouble("cpu-noise")));

    exp::SuiteOptions options;
    options.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    options.taskCount = static_cast<std::size_t>(args.getInt("tasks"));
    options.metatasks = static_cast<std::size_t>(args.getInt("metatasks"));
    options.replications = static_cast<std::size_t>(args.getInt("reps"));
    options.ftPolicy = exp::parseFaultTolerancePolicy(args.getString("ft"));
    for (const std::string& h : util::split(args.getString("heuristics"), ',')) {
      const std::string trimmed(util::trim(h));
      if (!trimmed.empty()) options.heuristics.push_back(trimmed);
    }

    exp::SuiteResult suite;
    suite.seed = options.seed;
    suite.scenarios.push_back(exp::runSuiteScenario(spec, options));
    const exp::SuiteScenarioResult& s = suite.scenarios.front();

    if (!args.getString("save-metatasks").empty()) {
      // Regenerate the campaign's metatasks with the same derivation rule so
      // they can be archived and replayed exactly.
      const workload::MetataskConfig& base = s.variants.front().spec.metataskConfig;
      for (std::size_t m = 0; m < s.campaign.metataskCount; ++m) {
        workload::MetataskConfig mc = base;
        mc.seed = simcore::deriveSeed(base.seed, 1000 + m);
        mc.name = base.name + "-M" + std::to_string(m + 1);
        const auto path = args.getString("save-metatasks") + "/metatask_M" +
                          std::to_string(m + 1) + ".csv";
        workload::saveMetatask(workload::generateMetatask(mc), path);
        std::cout << "[archived " << path << "]\n";
      }
    }

    exp::renderSuiteScenarioTable(s).print(std::cout);
    if (!args.getString("out").empty()) {
      exp::emitSuite(suite, args.getString("out"), "wastecpu_campaign");
    }
    return 0;
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
