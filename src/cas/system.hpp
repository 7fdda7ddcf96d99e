#pragma once
/// \file system.hpp
/// End-to-end wiring: builds the simulator, machines, daemons, agents and
/// client for one experiment, runs it to completion, and returns the
/// metrics-ready RunResult. This is the single simulated deployment: the
/// paper's one agent, or an N-agent mesh routed by mesh::decideRoute. The
/// scenario runner, the campaign harness and the benches all enter here.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cas/agent.hpp"
#include "cas/churn.hpp"
#include "cas/client.hpp"
#include "cas/server_daemon.hpp"
#include "mesh/router.hpp"
#include "metrics/record.hpp"
#include "platform/testbed.hpp"
#include "psched/noise.hpp"
#include "scenario/spec.hpp"
#include "workload/metatask.hpp"

namespace casched::cas {

struct SystemConfig {
  /// Load-report period (NetSolve workload manager).
  double reportPeriod = 30.0;
  /// One-way control-message latency; <0 means "use the testbed's value".
  double controlLatency = -1.0;
  /// NetSolve-MCT-style fault tolerance (re-submission of failed tasks).
  bool faultTolerance = false;
  int maxRetries = 5;
  core::SyncPolicy htmSync = core::SyncPolicy::kDropOnNotice;
  /// Ground-truth variability (paper's shared laboratory testbed).
  psched::NoiseConfig cpuNoise;
  psched::NoiseConfig linkNoise;
  std::uint64_t noiseSeed = 99;
  /// Scheduler RNG seed (random baseline only).
  std::uint64_t schedulerSeed = 7;
  /// Hard stop: no experiment should ever reach this.
  double horizon = 5.0e6;
};

/// Owns every simulation object of one experiment run.
///
/// Without a mesh it is the paper's deployment: one agent owning every
/// server, fed by a cas::Client, whatever `agents` says. With an enabled
/// `mesh` it runs `agents` agents, homes each server on its rack owner,
/// routes every request through mesh::decideRoute (local, forward, park or
/// deny) and runs the steal tick. The mesh expects compileScenario's
/// validation: >= 2 agents, total disjoint rack coverage, a tree root owning
/// no rack, and no churn.
class GridSystem {
 public:
  GridSystem(const platform::Testbed& testbed, const workload::Metatask& metatask,
             const std::string& schedulerName, const SystemConfig& config,
             const scenario::MeshSpec& mesh = {}, std::size_t agents = 1);

  GridSystem(const GridSystem&) = delete;
  GridSystem& operator=(const GridSystem&) = delete;

  /// Registers membership events to fire during run(). Call before run();
  /// events beyond the end of the run simply never fire.
  void setChurnTimeline(std::vector<ChurnEvent> events);

  /// Runs to completion (all tasks terminal) and builds the result. The
  /// result's `tasks` covers every metatask entry: mesh requests that were
  /// denied, or still parked at the horizon, appear as kLost outcomes.
  metrics::RunResult run();

  /// The first agent (the only one without a mesh).
  Agent& agent() { return *nodes_.front().agent; }
  simcore::Simulator& simulator() { return sim_; }
  ServerDaemon& daemon(const std::string& name);
  /// Counts of membership events actually applied so far.
  const metrics::ChurnSummary& churnApplied() const { return churnStats_; }

 private:
  /// One agent plus the mesh bookkeeping around it.
  struct Node {
    std::unique_ptr<Agent> agent;
    std::string name;  ///< decision label ("" for the paper's single agent)
    /// Queued-but-undispatched tasks awaiting a steal (arrival order).
    std::deque<workload::TaskInstance> parked;
    /// taskId -> "forward:<agent>" / "steal:<agent>" for decision attribution.
    std::unordered_map<std::uint64_t, std::string> origin;
  };
  /// A server daemon and the agent it registered with.
  struct Hosted {
    std::unique_ptr<ServerDaemon> daemon;
    Agent* agent = nullptr;
  };

  void addServer(Agent& agent, const psched::MachineSpec& spec);
  Hosted& hosted(const std::string& name);
  void applyChurn(const ChurnEvent& event);
  void onTerminal();
  // --- mesh routing ---
  std::vector<mesh::PeerDigest> peerDigests(std::size_t self, std::size_t exclude) const;
  void onRequest(std::size_t self, const workload::TaskInstance& task,
                 std::uint32_t hops, const std::string& origin);
  void stealTick();
  metrics::RunResult buildResult();

  simcore::Simulator sim_;
  const workload::Metatask metatask_;
  std::string schedulerName_;
  SystemConfig config_;
  scenario::MeshSpec mesh_;
  mesh::RouterConfig router_;
  std::vector<Node> nodes_;
  std::vector<Hosted> servers_;  ///< in registration order
  std::unique_ptr<Client> client_;
  std::vector<ChurnEvent> timeline_;
  metrics::ChurnSummary churnStats_;
  metrics::MeshSummary meshStats_;
  /// taskId -> forwarding agent index (so the receiver can exclude it).
  std::unordered_map<std::uint64_t, std::size_t> originIndex_;
  std::vector<workload::TaskInstance> denied_;  ///< mesh requests nobody can run
  std::size_t terminal_ = 0;
  std::uint64_t nextNoiseStream_ = 0;  ///< per-server noise-seed derivation
};

/// Convenience one-shot: build, replay `churn`, run. `mesh` and `agents` as
/// in GridSystem.
metrics::RunResult runExperimentSystem(const platform::Testbed& testbed,
                                       const workload::Metatask& metatask,
                                       const std::string& schedulerName,
                                       const SystemConfig& config,
                                       std::vector<ChurnEvent> churn = {},
                                       const scenario::MeshSpec& mesh = {},
                                       std::size_t agents = 1);

}  // namespace casched::cas
