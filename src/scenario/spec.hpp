#pragma once
/// \file spec.hpp
/// Declarative description of a full experiment: arrival process, workload
/// mix, platform, system parameters and a server-churn timeline. A spec is
/// pure data - the parser reads/writes it as sectioned `key = value` text and
/// the generator compiles it (plus a seed) into the concrete
/// Testbed + Metatask + SystemConfig + ChurnEvent objects the middleware runs.

#include <cstdint>
#include <string>
#include <vector>

#include "workload/arrival.hpp"
#include "workload/task_types.hpp"

namespace casched::scenario {

/// [arrival] section.
struct ArrivalSpec {
  workload::ArrivalPattern pattern;
  double meanInterarrival = 20.0;  ///< long-run mean gap, every process kind
};

/// One `mix = <type> : <weight>` line; the type name must resolve against the
/// paper families ("matmul-<size>" or "waste-cpu-<param>").
struct MixEntry {
  std::string typeName;
  double weight = 1.0;
};

/// One `custom = name, inMB, refSeconds, outMB, memMB, weight` line: a fully
/// parameterized synthetic task type joining the draw.
struct CustomType {
  workload::TaskType type;
  double weight = 1.0;
};

/// [workload] section.
struct WorkloadSpec {
  std::size_t count = 500;
  std::vector<MixEntry> mix;
  std::vector<CustomType> custom;
};

enum class PlatformKind : std::uint8_t {
  kPreset,    ///< one of the fixed testbeds: set1 | set2 | uniform-<n>
  kTemplate,  ///< n servers stamped from the machine catalog (or synthetic)
};

/// [platform] section.
struct PlatformSpec {
  PlatformKind kind = PlatformKind::kPreset;
  std::string preset = "set2";
  /// Template: number of servers to stamp.
  std::size_t servers = 4;
  /// Template: catalog machine names cycled over the servers. The single
  /// entry "uniform" stamps synthetic machines from the parameters below.
  std::vector<std::string> catalog{"uniform"};
  /// Template: relative speed spread; each server's speed index is scaled by
  /// a factor drawn uniformly from [1 - h, 1 + h].
  double heterogeneity = 0.0;
  /// Synthetic machine parameters (uniform template and churn joiners).
  double bwMBps = 10.0;
  double latency = 0.01;
  double ramMB = 1024.0;
  double swapMB = 256.0;
};

/// [system] section.
struct SystemSpec {
  double reportPeriod = 30.0;
  bool faultTolerance = false;
  int maxRetries = 5;
  double cpuNoiseAmplitude = 0.0;
  double linkNoiseAmplitude = 0.0;
  std::string htmSync = "drop-on-notice";
};

/// One `event = time, action, server[, value[, duration]]` line of the
/// [churn] section. `value` is the joiner's speed index (join) or the
/// capacity factor (slowdown | link). `duration` is the crash downtime in
/// seconds (crash's optional 4th field; 0 = the machine's own recovery time)
/// or, for slowdown | link, the optional 5th field after which the factor
/// restores to 1.0 on its own (0 = persistent).
struct ChurnSpec {
  double time = 0.0;
  std::string action;  ///< join | leave | crash | slowdown | link
  std::string server;
  double value = 1.0;
  double duration = 0.0;
};

/// One `domain = name : server, server, ...` line of the [faults] section: a
/// correlated failure domain (rack/zone). One outage draw kills every member.
struct FaultDomainSpec {
  std::string name;
  std::vector<std::string> servers;
};

/// One timestamped down/up observation from a recorded failure trace:
/// either an inline `trace-event = time, down | up, server` line or one CSV
/// row of a `trace = file.csv` import. Compiled by pairing each server's
/// down with the matching up into a crash ChurnEvent of that duration.
struct FaultTraceEventSpec {
  double time = 0.0;
  bool down = true;
  std::string server;
};

/// [faults] section: seeded generative fault processes, compiled into the
/// same churn timeline hand-written [churn] events produce. All processes
/// are disabled by default; enabling any requires a positive horizon. Times
/// are simulated seconds throughout.
struct FaultsSpec {
  /// Generation window: events are drawn in [0, horizon).
  double horizon = 0.0;
  /// Per-server crash-repair renewal process: Weibull time-to-failure with
  /// mean `crashMtbf` and shape `crashShape` (1 = exponential/memoryless,
  /// >1 = wear-out), exponential repair with mean `crashMttr`.
  double crashMtbf = 0.0;  ///< 0 disables
  double crashMttr = 120.0;
  double crashShape = 1.0;
  /// Markov flapping: a sticky two-state up/down chain sampled every
  /// `flapTick` seconds; stay probabilities near 1 make both states sticky.
  /// Each maximal down run becomes one crash event with that downtime.
  double flapTick = 0.0;  ///< 0 disables
  double flapStayUp = 0.98;
  double flapStayDown = 0.6;
  /// Correlated failure domains: either explicit `domain = name : servers`
  /// lines or `domains = N` (round-robin assignment of the platform's
  /// servers into N zones). One outage draw crashes the whole domain.
  std::vector<FaultDomainSpec> domains;
  std::size_t autoDomains = 0;
  double outageMtbf = 0.0;  ///< 0 disables; per-domain mean time between outages
  double outageMttr = 180.0;
  /// CPU slowdown churn: per server, exponential gaps of mean `slowMtbf`
  /// between episodes, factor uniform in [slowMin, slowMax], episode length
  /// exponential with mean `slowDuration` (restores to full speed after).
  double slowMtbf = 0.0;  ///< 0 disables
  double slowMin = 0.5;
  double slowMax = 0.9;
  double slowDuration = 120.0;
  /// Bandwidth churn on links: same shape as the slowdown process, applied
  /// to the server's in/out link capacity.
  double linkMtbf = 0.0;  ///< 0 disables
  double linkMin = 0.3;
  double linkMax = 0.8;
  double linkDuration = 120.0;
  /// Trace-driven replay: a recorded down/up timeline imported from
  /// `trace = file.csv` (rows `time, down | up, server`; `#` comments) and/or
  /// inline `trace-event =` lines, validated at compile (timestamps
  /// monotone per server, servers must exist, downs must close or run to the
  /// horizon) and merged into the same churn timeline the stochastic
  /// processes feed.
  std::string traceFile;
  std::vector<FaultTraceEventSpec> traceEvents;
  /// Diurnal (time-varying) failure intensity: when `diurnalAmplitude` > 0,
  /// every stochastic gap draw at simulated time t is scaled by
  /// 1 / (1 + amplitude * sin(2*pi * t / period + phase)) — failures bunch
  /// when the modulation peaks and thin out in the trough, deterministically
  /// per seed, so sim and live replay stay digest-identical.
  double diurnalPeriod = 0.0;  ///< seconds per cycle; 0 disables
  double diurnalAmplitude = 0.0;
  double diurnalPhase = 0.0;  ///< radians

  /// True when any stochastic process is armed (these require a horizon).
  bool stochastic() const {
    return crashMtbf > 0.0 || flapTick > 0.0 || outageMtbf > 0.0 ||
           slowMtbf > 0.0 || linkMtbf > 0.0;
  }
  bool hasTrace() const { return !traceFile.empty() || !traceEvents.empty(); }
  bool enabled() const { return stochastic() || hasTrace(); }
};

/// One `event = time, crash, <agent-index>[, restart-after]` line of the
/// [agents] section: agent churn for multi-agent live deployments. A negative
/// restart-after (the default) means the agent stays dead and the deployment
/// fails over to the survivors; otherwise a fresh daemon comes back on the
/// same port that many simulated seconds later, warm-starting from the last
/// snapshot file.
struct AgentEventSpec {
  double time = 0.0;
  std::size_t agentIndex = 0;
  double restartAfter = -1.0;
};

/// [agents] section: how many agent daemons a live deployment runs and how
/// they replicate. Without a [mesh] the simulator runs the paper's single
/// agent and this section only shapes the loopback/net deployment; with one,
/// the simulator runs `count` agents too.
struct AgentsSpec {
  std::size_t count = 1;
  std::string mode = "replicated";  ///< replicated | partitioned
  /// Simulated seconds between kAgentSync broadcasts + snapshot saves.
  double syncPeriod = 5.0;
  std::vector<AgentEventSpec> events;
};

/// One `rack = <agent-index> : <server-index>[, <server-index>...]` line of
/// the [mesh] section: the platform servers (by testbed order) owned by that
/// agent. Servers not named in any rack line keep the deployment's default
/// round-robin homing.
struct RackSpec {
  std::size_t agentIndex = 0;
  std::vector<std::size_t> servers;
};

/// [mesh] section: the agent mesh layered on a partitioned multi-agent
/// deployment - request forwarding between peers, work-stealing, and
/// hierarchical (tree) topologies. Compiled into both the simulator
/// (cas::GridSystem) and the live loopback deployment, so mesh scenarios keep
/// the sim/live count-agreement invariant.
struct MeshSpec {
  bool enabled = false;  ///< set by the presence of a [mesh] section
  /// Forward a request to the least-loaded peer when the local partition is
  /// saturated (no feasible server, or the overload threshold trips).
  bool forwarding = true;
  /// Max agent-to-agent transfers per task; 1 means a forwarded task cannot
  /// be forwarded again (no ping-pong).
  std::uint32_t hopLimit = 1;
  /// Forward when the best local predicted completion exceeds
  /// now + overloadThreshold simulated seconds; <= 0 disables the overload
  /// trigger (only no-feasible-server requests forward).
  double overloadThreshold = 0.0;
  /// Work-stealing: idle agents pull parked tasks from the most-loaded peer
  /// every stealPeriod simulated seconds; <= 0 disables stealing.
  double stealPeriod = 0.0;
  /// Max parked tasks handed over per steal.
  std::size_t stealBatch = 4;
  /// "flat": clients spread tasks over every agent. "tree": clients talk to
  /// the root agent only; the root owns no rack and routes to the leaves.
  std::string topology = "flat";
  /// Tree topology: index of the routing (root) agent.
  std::size_t root = 0;
  std::vector<RackSpec> racks;
};

/// [campaign] section: how the suite driver replicates and tabulates the
/// scenario. Absent sections keep these defaults, so every plain scenario is
/// already a one-metatask campaign.
struct CampaignSpec {
  /// Column order of the resulting table (paper order).
  std::vector<std::string> heuristics{"mct", "hmct", "mp", "msf"};
  /// Baseline of the "number of tasks that finish sooner" row.
  std::string baseline = "mct";
  std::size_t metatasks = 1;
  std::size_t replications = 3;
  /// scenario | paper | all | none - how fault tolerance is granted per
  /// heuristic ("scenario" applies the [system] flag uniformly).
  std::string ftPolicy = "scenario";
  /// Paper-style table title; empty derives one from name + description.
  std::string title;
};

/// One `axis = <parameter> : <v1, v2, ...>` line of the [sweep] section. The
/// suite runs the cross product of all axes as separate campaign variants.
/// Parameters: rate | report-period | noise | cpu-noise | link-noise |
/// htm-sync | count.
struct SweepAxis {
  std::string parameter;
  std::vector<std::string> values;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  ArrivalSpec arrival;
  WorkloadSpec workload;
  PlatformSpec platform;
  SystemSpec system;
  std::vector<ChurnSpec> churn;
  FaultsSpec faults;
  AgentsSpec agents;
  MeshSpec mesh;
  CampaignSpec campaign;
  std::vector<SweepAxis> sweep;
};

}  // namespace casched::scenario
