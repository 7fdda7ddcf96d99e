// Per-layer timings: each layer driven alone through its public entry
// points at the depths and sizes the ROADMAP names. Every timing is the
// median over repetitions of a loop that runs for a minimum wall time.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "cas/agent.hpp"
#include "cas/dispatch.hpp"
#include "core/htm.hpp"
#include "core/htm_snapshot.hpp"
#include "core/schedulers.hpp"
#include "mesh/router.hpp"
#include "net/agent_daemon.hpp"
#include "psched/fair_share.hpp"
#include "simcore/engine.hpp"
#include "simcore/rng.hpp"
#include "wire/framing.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"
#include "workload/task_types.hpp"

namespace perfbench {

namespace cc = casched::core;
namespace cw = casched::wire;
using casched::simcore::RandomStream;
using casched::simcore::Simulator;

namespace {

/// Keeps a value alive past the optimizer.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over `reps` repetitions of the wall time per call of `f`, in ns.
/// Each repetition calls `f` until at least `minRepS` has passed.
template <class F>
double medianNsPerCall(F&& f, int reps, double minRepS) {
  std::vector<double> perCall;
  for (int r = 0; r < reps; ++r) {
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
      f();
      ++calls;
      elapsed = secondsSince(t0);
    } while (elapsed < minRepS);
    perCall.push_back(1e9 * elapsed / static_cast<double>(calls));
  }
  return median(perCall);
}

struct Budget {
  int reps;
  double minRepS;
};

// ---------------------------------------------------------------- simcore

double eventNs(std::size_t queued, Budget b) {
  Simulator sim;
  RandomStream rng(11);
  for (std::size_t i = 0; i < queued; ++i) sim.scheduleAfter(rng.uniform(0.0, 10.0), [] {});
  std::vector<double> delays(4096);
  for (double& d : delays) d = rng.uniform(0.0, 10.0);
  std::size_t k = 0;
  // One schedule + one pop per call, so the heap stays at `queued`.
  return medianNsPerCall(
      [&] {
        sim.scheduleAfter(delays[k++ & 4095], [] {});
        sim.step();
      },
      b.reps, b.minRepS);
}

// ---------------------------------------------------------------- psched

double fairShareNs(std::size_t jobs, Budget b) {
  Simulator sim;
  casched::psched::FairShareResource cpu(sim, "cpu", 1.0);
  RandomStream rng(5);
  std::function<void(std::uint64_t)> refill;
  refill = [&](std::uint64_t) { cpu.add(rng.uniform(0.5, 1.5), refill); };
  for (std::size_t i = 0; i < jobs; ++i) cpu.add(rng.uniform(0.5, 1.5), refill);
  // One call = one job completes and its replacement is added.
  return medianNsPerCall([&] { sim.step(); }, b.reps, b.minRepS);
}

// ------------------------------------------------------------------ core

/// An HTM with `servers` rows of `depth` queued tasks each, restored from a
/// snapshot (building deep traces by commits would itself be quadratic).
std::unique_ptr<cc::HistoricalTraceManager> loadedHtm(std::size_t servers, std::size_t depth) {
  auto htm = std::make_unique<cc::HistoricalTraceManager>();
  RandomStream rng(7);
  std::uint64_t id = 1;
  for (std::size_t s = 0; s < servers; ++s) {
    cc::HtmServerSnapshot row;
    row.model = cc::ServerModel{"server-" + std::to_string(s), 10.0, 10.0, 0.05, 0.05};
    for (std::size_t t = 0; t < depth; ++t) {
      cc::TraceTask task;
      task.taskId = id++;
      task.dims = cc::TaskDims{rng.uniform(0.0, 30.0), rng.uniform(10.0, 300.0),
                               rng.uniform(0.0, 15.0)};
      if (t % 4 == 0) {
        task.phase = cc::TracePhase::kTransferIn;
        task.remaining = task.dims.inMB * rng.uniform(0.1, 1.0);
      } else {
        task.phase = cc::TracePhase::kCompute;
        task.remaining = task.dims.cpuSeconds * rng.uniform(0.1, 1.0);
      }
      task.admitted = -rng.uniform(0.0, 100.0);
      row.tasks.push_back(task);
      row.predictions.push_back({task.taskId, 1000.0 + static_cast<double>(t), task.admitted});
    }
    htm->restoreServer(row);
  }
  return htm;
}

cc::ScheduleQuery makeQuery(const cc::HistoricalTraceManager& htm) {
  cc::ScheduleQuery q;
  q.taskId = 999999999;
  q.now = 2.0;
  q.startDelay = 0.01;
  q.htm = &htm;
  for (const std::string& name : htm.serverNames()) {
    cc::CandidateServer c;
    c.id = htm.findId(name);
    c.dims = cc::TaskDims{5.0, 60.0, 2.0};
    c.reportedLoad = 2.0;
    c.unloadedDuration = 61.0;
    q.candidates.push_back(c);
  }
  return q;
}

double previewUs(std::size_t depth, Budget b) {
  const auto htm = loadedHtm(1, depth);
  const cc::ServerId id = htm->findId("server-0");
  cc::Preview out;
  double now = 1.0;
  // `now` moves every call so the per-row preview memo never answers.
  return 1e-3 * medianNsPerCall(
                    [&] {
                      now += 1e-6;
                      htm->previewInto(id, cc::TaskDims{5.0, 60.0, 2.0}, now, 0.0, out);
                      keep(out);
                    },
                    b.reps, b.minRepS);
}

double commitUs(std::size_t depth, Budget b) {
  const auto htm = loadedHtm(1, depth);
  const cc::ServerId id = htm->findId("server-0");
  double now = 1.0;
  std::uint64_t task = 1u << 30;
  return 1e-3 * medianNsPerCall(
                    [&] {
                      now += 1e-6;
                      htm->commit(id, task, cc::TaskDims{1.0, 30.0, 1.0}, now);
                      htm->onTaskCompleted(id, task, now + 1e-6);
                      ++task;
                    },
                    b.reps, b.minRepS);
}

double decideUs(const std::string& heuristic, std::size_t candidates, std::size_t depth,
                Budget b) {
  const auto htm = loadedHtm(candidates, depth);
  cc::ScheduleQuery query = makeQuery(*htm);
  const std::unique_ptr<cc::Scheduler> scheduler = cc::makeScheduler(heuristic, 1);
  cc::ScheduleDecision decision;
  return 1e-3 * medianNsPerCall(
                    [&] {
                      query.now += 1e-6;
                      scheduler->chooseInto(query, decision);
                      keep(decision);
                    },
                    b.reps, b.minRepS);
}

// ------------------------------------------------------------------- cas

/// A real cas::Agent with 8 registered servers whose dispatch is a sink,
/// warmed with `warm` never-finishing tasks per server.
struct AgentHarness {
  struct Sink final : casched::cas::TaskDispatch {
    std::string server;
    void submitTask(std::uint64_t, const casched::psched::ExecRequest&) override {}
  };

  Simulator sim;
  std::unique_ptr<casched::cas::Agent> agent;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::uint64_t nextId = 1;
  casched::workload::TaskType type =
      casched::workload::makeSyntheticType("bench-task", 5.0, 60.0, 2.0, 0.0);

  AgentHarness(const std::string& heuristic, std::size_t warm) {
    casched::cas::AgentConfig cfg;
    cfg.controlLatency = 0.0;
    agent = std::make_unique<casched::cas::Agent>(sim, cc::makeScheduler(heuristic, 1),
                                                  casched::platform::CostModel{}, cfg);
    for (std::size_t s = 0; s < 8; ++s) {
      auto sink = std::make_unique<Sink>();
      sink->server = "server-" + std::to_string(s);
      agent->registerServer(sink.get(), cc::ServerModel{sink->server, 10.0, 10.0, 0.05, 0.05},
                            {"*"}, 1e18, 1e18);
      sinks.push_back(std::move(sink));
    }
    const casched::workload::TaskType longType =
        casched::workload::makeSyntheticType("bench-warm", 1.0, 1e9, 1.0, 0.0);
    std::vector<casched::workload::TaskInstance> batch;
    for (std::size_t w = 0; w < 8 * warm; ++w) {
      casched::workload::TaskInstance t;
      t.index = nextId++;
      t.arrival = sim.now();
      t.type = longType;
      batch.push_back(t);
    }
    agent->scheduleBatch(batch);
    sim.run();
  }

  /// Schedules `count` tasks together, dispatches them and completes them.
  void cycle(std::vector<casched::workload::TaskInstance>& scratch, std::size_t count) {
    scratch.clear();
    const std::uint64_t first = nextId;
    for (std::size_t k = 0; k < count; ++k) {
      casched::workload::TaskInstance t;
      t.index = nextId++;
      t.arrival = sim.now();
      t.type = type;
      scratch.push_back(t);
    }
    if (count == 1) {
      agent->requestSchedule(scratch.front());
    } else {
      agent->scheduleBatch(scratch);
    }
    sim.run();
    for (const auto& sink : sinks) {
      for (std::uint64_t id : agent->inFlightTasks(sink->server)) {
        if (id >= first) agent->onTaskCompleted(sink->server, id, sim.now() + 1.0, 60.0);
      }
    }
  }
};

double agentCycleUs(std::size_t warm, std::size_t batch, Budget b) {
  AgentHarness h("msf", warm);
  std::vector<casched::workload::TaskInstance> scratch;
  return 1e-3 * medianNsPerCall([&] { h.cycle(scratch, batch); }, b.reps, b.minRepS) /
         static_cast<double>(batch);
}

// ------------------------------------------------------------------ mesh

double routeNs(Budget b) {
  casched::mesh::RouterConfig cfg;
  cfg.forwarding = true;
  cfg.overloadThreshold = 60.0;
  casched::mesh::LocalView view;
  view.feasible = true;
  view.now = 10.0;
  view.meanLoad = 2.0;
  view.predictedCompletion = 90.0;
  const std::vector<casched::mesh::PeerDigest> peers{
      {0, 1.0, 3, 0}, {1, 2.5, 2, 1}, {2, 0.5, 4, 0}};
  unsigned sink = 0;
  const double ns = medianNsPerCall(
      [&] {
        view.now += 1e-3;
        const casched::mesh::RouteDecision d = casched::mesh::decideRoute(cfg, view, peers);
        sink += static_cast<unsigned>(d.kind) + static_cast<unsigned>(d.peer);
      },
      b.reps, b.minRepS);
  keep(sink);
  return ns;
}

// ------------------------------------------------------------------ wire

template <class Msg, class Decode>
double roundtripNs(cw::MessageType type, const Msg& msg, Decode decode, Budget b) {
  cw::FrameDecoder decoder;
  return medianNsPerCall(
      [&] {
        const cw::Bytes frame = cw::buildFrame(type, cw::encode(msg));
        decoder.feed(frame);
        const std::optional<cw::Frame> f = decoder.next();
        const Msg back = decode(f->payload);
        keep(back);
      },
      b.reps, b.minRepS);
}

double coalescedNsPerMsg(std::size_t batch, Budget b) {
  std::vector<cw::LoadReportMsg> msgs;
  for (std::size_t i = 0; i < batch; ++i) {
    msgs.push_back({"server-" + std::to_string(i), 1.5, 60.0 + static_cast<double>(i), 384.0});
  }
  cw::FrameDecoder decoder;
  std::vector<cw::Bytes> payloads;
  return medianNsPerCall(
             [&] {
               payloads.clear();
               for (const cw::LoadReportMsg& m : msgs) payloads.push_back(cw::encode(m));
               decoder.feed(cw::buildCoalescedFrame(cw::MessageType::kLoadReport, payloads));
               while (const std::optional<cw::Frame> f = decoder.next()) {
                 const cw::LoadReportMsg back = cw::decodeLoadReport(f->payload);
                 keep(back);
               }
             },
             b.reps, b.minRepS) /
         static_cast<double>(batch);
}

// ------------------------------------------------------------------- net

/// One AgentDaemon::runOnce turn with `links` registered, idle servers.
double turnUs(std::size_t links, Budget b) {
  casched::net::AgentDaemonConfig cfg;
  cfg.heuristic = "msf";
  cfg.controlLatency = 0.0;
  casched::net::AgentDaemon daemon(cfg, casched::net::PacedClock(1.0));
  std::vector<std::shared_ptr<cw::TcpTransport>> servers;
  for (std::size_t s = 0; s < links; ++s) {
    servers.push_back(cw::TcpTransport::connect("127.0.0.1", daemon.port()));
    cw::RegisterMsg reg;
    reg.serverName = "idle-" + std::to_string(s);
    reg.bwInMBps = 100.0;
    reg.bwOutMBps = 100.0;
    reg.ramMB = 1e6;
    reg.problems = {"*"};
    servers.back()->send(cw::MessageType::kRegister, cw::encode(reg));
    daemon.runOnce();  // accept now: the listen backlog is shorter than 64
  }
  const Clock::time_point t0 = Clock::now();
  while (daemon.liveServerCount() < links && secondsSince(t0) < 10.0) {
    daemon.runOnce();
    for (auto& s : servers) s->poll(nullptr);
  }
  if (daemon.liveServerCount() < links) throw std::runtime_error("idle links did not register");
  const double us =
      1e-3 * medianNsPerCall([&] { daemon.runOnce(); }, b.reps, b.minRepS);
  for (auto& s : servers) s->close();
  return us;
}

}  // namespace

std::vector<Metric> layerTimings(bool smoke, SpanLog* spans) {
  // Fast calls get longer loops; the deep HTM calls (tens of ms each) get a
  // few calls per repetition.
  const Budget fast{smoke ? 1 : 5, smoke ? 0.002 : 0.04};
  const Budget slow{smoke ? 1 : 3, smoke ? 0.002 : 0.05};
  std::vector<Metric> out;
  const auto add = [&](const std::string& name, const std::string& unit, auto&& fn) {
    ScopedSpan span(spans, name, "layer");
    out.push_back({name, fn(), unit, 0});
  };

  add("simcore.event_ns.q64", "ns", [&] { return eventNs(64, fast); });
  add("simcore.event_ns.q4096", "ns", [&] { return eventNs(4096, fast); });
  add("psched.fair_share_ns.n4", "ns", [&] { return fairShareNs(4, fast); });
  add("psched.fair_share_ns.n64", "ns", [&] { return fairShareNs(64, fast); });
  for (std::size_t d : {16, 64, 256, 1024}) {
    const Budget bd = d >= 256 ? slow : fast;
    add("core.htm_preview_us.d" + std::to_string(d), "us", [&] { return previewUs(d, bd); });
    add("core.htm_commit_us.d" + std::to_string(d), "us", [&] { return commitUs(d, bd); });
  }
  for (const std::string h : {"mct", "hmct", "mp", "msf"}) {
    for (std::size_t d : {4, 64, 512}) {
      const Budget bd = d >= 512 ? slow : fast;
      add("core.decide_us." + h + ".d" + std::to_string(d), "us",
          [&] { return decideUs(h, 8, d, bd); });
    }
  }
  add("core.decide_us.msf.c64.d4", "us", [&] { return decideUs("msf", 64, 4, fast); });
  add("cas.decision_us.d4", "us", [&] { return agentCycleUs(4, 1, fast); });
  add("cas.decision_us.d64", "us", [&] { return agentCycleUs(64, 1, fast); });
  add("cas.batch_us_per_task.b64", "us", [&] { return agentCycleUs(4, 64, fast); });
  add("mesh.route_ns", "ns", [&] { return routeNs(fast); });

  cw::ScheduleRequestMsg request{42, "bench-task", 5.0, 2.0, 1.0, 60.0};
  cw::TaskSubmitMsg submit{42, "bench-task", 5.0, 60.0, 2.0, 1.0};
  cw::TaskCompleteMsg complete{42, "server-3", 1234.5, 60.0};
  cw::LoadReportMsg load{"server-3", 1.5, 1234.5, 384.0};
  add("wire.roundtrip_ns.schedule_request", "ns", [&] {
    return roundtripNs(cw::MessageType::kScheduleRequest, request, cw::decodeScheduleRequest, fast);
  });
  add("wire.roundtrip_ns.task_submit", "ns", [&] {
    return roundtripNs(cw::MessageType::kTaskSubmit, submit, cw::decodeTaskSubmit, fast);
  });
  add("wire.roundtrip_ns.task_complete", "ns", [&] {
    return roundtripNs(cw::MessageType::kTaskComplete, complete, cw::decodeTaskComplete, fast);
  });
  add("wire.roundtrip_ns.load_report", "ns", [&] {
    return roundtripNs(cw::MessageType::kLoadReport, load, cw::decodeLoadReport, fast);
  });
  add("wire.coalesced_ns_per_msg.b64", "ns", [&] { return coalescedNsPerMsg(64, fast); });
  add("net.turn_us.links8", "us", [&] { return turnUs(8, fast); });
  add("net.turn_us.links64", "us", [&] { return turnUs(64, fast); });
  return out;
}

double hostAnchorNs() {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const double ns = medianNsPerCall(
      [&] {
        for (int i = 0; i < 256; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        keep(x);
      },
      5, 0.02);
  return ns;
}

double repoSourceLines() {
  namespace fs = std::filesystem;
  std::size_t lines = 0;
  for (const char* dir : {"src", "apps", "bench", "examples"}) {
    if (!fs::is_directory(dir)) continue;
    for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      std::ifstream in(e.path(), std::ios::binary);
      lines += static_cast<std::size_t>(
          std::count(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>(), '\n'));
    }
  }
  return static_cast<double>(lines);
}

}  // namespace perfbench
