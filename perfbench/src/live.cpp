// The live half of a workload. One process: a real net::AgentDaemon runs
// run() on its own thread; this thread plays 8 fake servers and one
// open-loop client over TCP loopback through wire::TcpTransport, so the
// schema handshake, CRC checks and frame coalescing all run. The generator
// blocks in ppoll() on its 9 sockets until the next due send, hold expiry or
// heartbeat; it never spins.

#include <poll.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <queue>
#include <random>
#include <thread>

#include "bench.hpp"
#include "metrics/record.hpp"
#include "net/agent_daemon.hpp"
#include "net/loopback.hpp"
#include "obs/metrics.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"

namespace perfbench {

namespace cn = casched::net;
namespace cw = casched::wire;

namespace {

constexpr std::size_t kServers = 8;
constexpr double kPeriodicSeconds = 1.0;  ///< heartbeat + load report period
constexpr double kDrainSlackSeconds = 0.02;

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A real agent daemon on its own thread (msf, scale-1 paced clock, no
/// modelled control latency).
class AgentThread {
 public:
  explicit AgentThread(const cn::PacedClock& clock) : clock_(clock) {
    cn::AgentDaemonConfig cfg;
    cfg.heuristic = "msf";
    cfg.controlLatency = 0.0;
    daemon_ = std::make_unique<cn::AgentDaemon>(cfg, clock_);
    port_ = daemon_->port();
    thread_ = std::thread([this] {
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = threadCpuSeconds();
      daemon_->run(stop_);
      cpuSeconds_ = threadCpuSeconds() - cpu0;
      wallSeconds_ = secondsSince(t0);
    });
  }
  ~AgentThread() { stop(); }
  AgentThread(const AgentThread&) = delete;
  AgentThread& operator=(const AgentThread&) = delete;

  std::uint16_t port() const { return port_; }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Agent-thread CPU seconds over its wall seconds; valid after stop().
  double cpuFraction() const { return wallSeconds_ > 0.0 ? cpuSeconds_ / wallSeconds_ : 0.0; }

 private:
  cn::PacedClock clock_;
  std::unique_ptr<cn::AgentDaemon> daemon_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  double cpuSeconds_ = 0.0;
  double wallSeconds_ = 0.0;
  std::thread thread_;  // last: joins before the members it uses go away
};

struct Hold {
  double at;
  std::size_t req;
  bool operator>(const Hold& o) const { return at > o.at; }
};

/// The 8 fake servers and the client, driven from one thread.
class Generator {
 public:
  Generator(std::uint16_t port, const cn::PacedClock& clock, std::uint64_t seed,
            Failures& failures)
      : clock_(clock), rng_(seed), failures_(failures) {
    for (std::size_t s = 0; s < kServers; ++s) {
      servers_.push_back({"fake-" + std::to_string(s), cw::TcpTransport::connect("127.0.0.1", port)});
    }
    client_ = cw::TcpTransport::connect("127.0.0.1", port);
  }

  /// Sends every registration and returns once all 8 are acknowledged.
  bool registerAll(double timeoutS) {
    for (FakeServer& s : servers_) {
      cw::RegisterMsg reg;
      reg.serverName = s.name;
      reg.bwInMBps = 100.0;
      reg.bwOutMBps = 100.0;
      reg.ramMB = 1e6;
      reg.speedIndex = 1.0;
      reg.problems = {"*"};
      s.transport->send(cw::MessageType::kRegister, cw::encode(reg));
    }
    const Clock::time_point t0 = Clock::now();
    while (registered_ < kServers && secondsSince(t0) < timeoutS) {
      waitAndDrain(0.01);
    }
    return registered_ == kServers;
  }

  /// One rung: open-loop Poisson sends at `rate` for a warm-up of one hold
  /// time (the in-flight depth fills) plus `measureS`, then one hold time of
  /// drain. Sending stops early, failing the rung, once more than 100 ms of
  /// requests wait unsubmitted: past that point the agent only falls further
  /// behind, and a huge backlog would land in the HTM as one deep batch.
  RungResult runRung(double rate, std::size_t depth, double measureS) {
    const std::size_t rungIndex = rungHold_.size();
    const double hold = static_cast<double>(depth * kServers) / rate;
    rungHold_.push_back(hold);
    // Each task's modelled CPU demand equals its hold: shared by the whole
    // in-flight set, no task finishes in the HTM's model before its
    // completion notice arrives, so the HTM trace depth equals the in-flight
    // depth the fake server holds.
    const double refSeconds = hold;
    // One problem name per rung: the agent caches a task type's cost by name.
    const std::string problem = "bench-rung-" + std::to_string(rungIndex);
    const std::size_t abortBacklog = static_cast<std::size_t>(0.1 * rate) + 16;
    std::exponential_distribution<double> gap(rate);
    const double start = now() + 0.002;
    const double measureFrom = start + hold;
    double stopAt = measureFrom + measureS;
    const std::size_t firstReq = reqs_.size();
    backlog_ = RungBacklog(static_cast<std::uint16_t>(rungIndex));
    double nextDue = start + gap(rng_);
    bool aborted = false;
    while (true) {
      const double t = now();
      // Due sends (open loop: every request due by now leaves now).
      const std::size_t firstNew = reqs_.size();
      while (nextDue <= t && nextDue < stopAt) {
        Request r;
        r.due = nextDue;
        r.measured = nextDue >= measureFrom;
        r.rung = static_cast<std::uint16_t>(rungIndex);
        cw::ScheduleRequestMsg msg;
        msg.taskId = reqs_.size() + 1;
        msg.problem = problem;
        msg.memMB = 1.0;
        msg.refSeconds = refSeconds;
        client_->queue(cw::MessageType::kScheduleRequest, cw::encode(msg));
        reqs_.push_back(r);
        backlog_.onSent();
        nextDue += gap(rng_);
      }
      fireHolds(t);
      periodic(t);
      flushAll();
      const double sentAt = now();
      for (std::size_t i = firstNew; i < reqs_.size(); ++i) reqs_[i].sent = sentAt;
      if (!aborted && backlog_.unsubmitted() > abortBacklog) {
        aborted = true;
        stopAt = std::min(stopAt, t);
      }
      if (t >= stopAt + hold + kDrainSlackSeconds) break;
      double wake = stopAt + hold + kDrainSlackSeconds;
      if (nextDue < stopAt) wake = std::min(wake, nextDue);
      if (!holds_.empty()) wake = std::min(wake, holds_.top().at);
      wake = std::min(wake, nextPeriodic_);
      waitAndDrain(std::max(0.0, wake - now()));
    }
    RungResult res;
    res.rate = rate;
    res.aborted = aborted;
    std::size_t measuredSent = 0;
    for (std::size_t i = firstReq; i < reqs_.size(); ++i) {
      if (reqs_[i].terminals == 0) ++res.backlog;
      if (reqs_[i].measured) ++measuredSent;
    }
    const std::vector<double> lat =
        rungSamples(reqs_, static_cast<std::uint16_t>(rungIndex)).submitUs;
    res.samples = lat.size();
    res.submitP99Us = windowedPercentile(lat, 99.0);
    res.achievedRate = static_cast<double>(measuredSent) / measureS;
    return res;
  }

  /// Waits (bounded) until every request has its terminal, serving holds,
  /// so the next rung starts on an idle agent.
  void drain(double timeoutS) {
    const Clock::time_point t0 = Clock::now();
    while (secondsSince(t0) < timeoutS && outstanding() > 0) {
      const double t = now();
      fireHolds(t);
      periodic(t);
      flushAll();
      double wake = t + 0.05;
      if (!holds_.empty()) wake = std::min(wake, holds_.top().at);
      waitAndDrain(std::max(0.0, wake - now()));
    }
  }

  std::size_t outstanding() const { return reqs_.size() - finished_; }

  const std::deque<Request>& requests() const { return reqs_; }
  /// A fake server's in-flight count at each measured submit of the
  /// reference rung.
  const std::vector<double>& referenceInflight() const { return inflight_; }

  void closeAll() {
    for (FakeServer& s : servers_) s.transport->close();
    client_->close();
  }

 private:
  struct FakeServer {
    std::string name;
    std::shared_ptr<cw::TcpTransport> transport;
    std::size_t inflight = 0;
  };

  double now() const { return clock_.wallElapsed(); }

  void flushAll() {
    for (FakeServer& s : servers_) s.transport->flushQueued();
    client_->flushQueued();
  }

  void fireHolds(double t) {
    while (!holds_.empty() && holds_.top().at <= t) {
      const std::size_t index = holds_.top().req;
      Request& r = reqs_[index];
      holds_.pop();
      FakeServer& s = servers_[static_cast<std::size_t>(r.server)];
      cw::TaskCompleteMsg done;
      done.taskId = index + 1;
      done.serverName = s.name;
      done.completionTime = clock_.simNow();
      done.unloadedDuration = rungHold_[r.rung];
      s.transport->queue(cw::MessageType::kTaskComplete, cw::encode(done));
      --s.inflight;
      r.completeSentAt = now();
    }
  }

  void periodic(double t) {
    if (t < nextPeriodic_) return;
    nextPeriodic_ = t + kPeriodicSeconds;
    for (FakeServer& s : servers_) {
      cw::HeartbeatMsg beat;
      beat.serverName = s.name;
      beat.sampleTime = clock_.simNow();
      s.transport->queue(cw::MessageType::kHeartbeat, cw::encode(beat));
      cw::LoadReportMsg report;
      report.serverName = s.name;
      report.loadAverage = static_cast<double>(s.inflight);
      report.sampleTime = clock_.simNow();
      s.transport->queue(cw::MessageType::kLoadReport, cw::encode(report));
    }
  }

  /// Blocks in ppoll on the 9 sockets for up to `waitS`, then drains every
  /// readable one.
  void waitAndDrain(double waitS) {
    pollfd fds[kServers + 1];
    for (std::size_t s = 0; s < kServers; ++s) fds[s] = {servers_[s].transport->fd(), POLLIN, 0};
    fds[kServers] = {client_->fd(), POLLIN, 0};
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(waitS);
    ts.tv_nsec = static_cast<long>((waitS - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ::ppoll(fds, kServers + 1, &ts, nullptr);
    if (ready <= 0) return;
    for (std::size_t s = 0; s < kServers; ++s) {
      if (fds[s].revents != 0) pollServer(s);
    }
    if (fds[kServers].revents != 0) pollClient();
  }

  void fail(const std::string& what) {
    if (failures_.size() < 20) failures_.push_back("live: " + what);
  }

  void pollServer(std::size_t s) {
    FakeServer& server = servers_[s];
    try {
      server.transport->poll([&](cw::Frame frame) {
        const double t = now();
        switch (frame.type) {
          case cw::MessageType::kRegisterAck: {
            const cw::RegisterAckMsg ack = cw::decodeRegisterAck(frame.payload);
            if (!ack.accepted) fail("registration of " + server.name + " refused");
            ++registered_;
            return;
          }
          case cw::MessageType::kTaskSubmit:
            onSubmit(s, cw::decodeTaskSubmit(frame.payload), t);
            return;
          default:
            return;  // heartbeat echoes
        }
      });
    } catch (const std::exception& e) {
      fail(server.name + " decode error: " + e.what());
    }
    if (server.transport->closed()) fail(server.name + " link closed");
  }

  Request* request(std::uint64_t taskId) {
    return taskId >= 1 && taskId <= reqs_.size() ? &reqs_[taskId - 1] : nullptr;
  }

  void onSubmit(std::size_t s, const cw::TaskSubmitMsg& msg, double t) {
    Request* found = request(msg.taskId);
    if (!found) {
      fail("submit for unknown task " + std::to_string(msg.taskId));
      return;
    }
    Request& r = *found;
    const double refSeconds = rungHold_[r.rung];
    if (++r.submits > 1) {
      fail("task " + std::to_string(msg.taskId) + " submitted twice");
      return;
    }
    const bool fieldsMatch = msg.inMB == 0.0 && msg.outMB == 0.0 && msg.memMB == 1.0 &&
                             std::abs(msg.cpuSeconds - refSeconds) <= 1e-9 * refSeconds;
    if (!fieldsMatch) {
      fail("task " + std::to_string(msg.taskId) + " submitted with other fields: in " +
           std::to_string(msg.inMB) + " out " + std::to_string(msg.outMB) + " mem " +
           std::to_string(msg.memMB) + " cpu " + std::to_string(msg.cpuSeconds) + " vs " +
           std::to_string(refSeconds));
    }
    backlog_.onSubmit(r.rung);
    r.submitAt = t;
    r.server = static_cast<std::int8_t>(s);
    FakeServer& server = servers_[s];
    ++server.inflight;
    if (r.measured && r.rung == 0) inflight_.push_back(static_cast<double>(server.inflight));
    holds_.push({t + rungHold_[r.rung], msg.taskId - 1});
  }

  void pollClient() {
    try {
      client_->poll([&](cw::Frame frame) {
        const double t = now();
        std::uint64_t id = 0;
        std::string server;
        bool deny = false;
        switch (frame.type) {
          case cw::MessageType::kTaskComplete: {
            const cw::TaskCompleteMsg m = cw::decodeTaskComplete(frame.payload);
            id = m.taskId;
            server = m.serverName;
            break;
          }
          case cw::MessageType::kTaskFailed:
            id = cw::decodeTaskFailed(frame.payload).taskId;
            deny = true;
            break;
          case cw::MessageType::kScheduleDeny:
            id = cw::decodeScheduleDeny(frame.payload).taskId;
            deny = true;
            break;
          default:
            return;
        }
        Request* found = request(id);
        if (!found) {
          fail("terminal for unknown task " + std::to_string(id));
          return;
        }
        Request& r = *found;
        if (++r.terminals > 1) fail("task " + std::to_string(id) + " got two terminals");
        if (r.terminals == 1) ++finished_;
        r.terminalAt = t;
        r.denied = r.denied || deny;
        if (!deny && (r.server < 0 || servers_[static_cast<std::size_t>(r.server)].name != server)) {
          fail("task " + std::to_string(id) + " terminal names another server");
        }
      });
    } catch (const std::exception& e) {
      fail(std::string("client decode error: ") + e.what());
    }
    if (client_->closed()) fail("client link closed");
  }

  cn::PacedClock clock_;
  std::mt19937_64 rng_;
  Failures& failures_;
  std::vector<FakeServer> servers_;
  std::shared_ptr<cw::TcpTransport> client_;
  std::size_t registered_ = 0;
  /// Task ids are 1, 2, ... in send order, so request i has id i + 1. A
  /// deque never moves its elements, so growth costs no copying stall.
  std::deque<Request> reqs_;
  std::priority_queue<Hold, std::vector<Hold>, std::greater<Hold>> holds_;
  std::vector<double> inflight_;
  double nextPeriodic_ = 0.0;
  RungBacklog backlog_;
  std::size_t finished_ = 0;  ///< requests with a terminal
  std::vector<double> rungHold_;  ///< hold time (= modelled demand) per rung
};

LatencySummary summarize(const std::vector<double>& us) {
  LatencySummary s;
  s.samples = us.size();
  s.p50Us = percentile(us, 50.0);
  s.p99Us = windowedPercentile(us, 99.0);
  return s;
}

}  // namespace

LiveResult runLivePart(const LiveConfig& config, Failures& failures) {
  LiveResult result;

  // Set-up: agent start until all 8 servers are registered, repeated on
  // fresh deployments; the last one carries the measurement. A set-up takes
  // about 0.4 or 0.9 ms, by whether the registrations catch the agent's
  // polling sleep, hence the median of batch means.
  const int setupReps = config.smoke ? 1 : kSetupReps;
  std::vector<double> setups;
  std::unique_ptr<AgentThread> agent;
  std::unique_ptr<Generator> gen;
  cn::PacedClock clock(1.0);
  for (int rep = 0; rep < setupReps; ++rep) {
    if (gen) gen->closeAll();
    gen.reset();
    agent.reset();
    ScopedSpan span(config.spans, "live setup", "net");
    const Clock::time_point t0 = Clock::now();
    clock = cn::PacedClock(1.0);
    agent = std::make_unique<AgentThread>(clock);
    gen = std::make_unique<Generator>(agent->port(), clock, config.seed, failures);
    if (!gen->registerAll(10.0)) {
      failures.push_back("live: fake servers did not all register");
      return result;
    }
    setups.push_back(secondsSince(t0));
  }
  result.setupS = medianOfBatchMeans(setups, kSetupBatch);

  auto& reg = casched::obs::Registry::global();
  casched::obs::Counter& framesOut = reg.counter("casched_net_frames_out_total");
  casched::obs::Counter& bytesOut = reg.counter("casched_net_bytes_out_total");
  const std::uint64_t frames0 = framesOut.value();
  const std::uint64_t bytes0 = bytesOut.value();

  // Reference rung first (its latencies are the reported ones), then the
  // ladder. The reference measurement gets most of the budget: its p99 is
  // the median over windows of 1000 samples, and more windows make it
  // steadier. A ladder rung needs one window of at least 1500 samples.
  const double refMeasure = 0.7 * config.seconds;
  const auto rungMeasure = [&](double rate) {
    return std::max(0.04 * config.seconds, 1500.0 / rate);
  };
  // Every rung starts on an idle agent: a failed rung's backlog must not
  // count against the next one.
  constexpr double kDrainTimeoutS = 5.0;
  const double maxRate = kLadderCap * config.referenceRate;
  {
    ScopedSpan span(config.spans, "rung " + std::to_string(config.referenceRate), "net");
    result.rungs.push_back(gen->runRung(config.referenceRate, config.depth, refMeasure));
    gen->drain(kDrainTimeoutS);
  }
  // The ladder overloads the agent on purpose, and how far a failing rung
  // gets before it stops decides how much it queues; the workload's memory
  // is its high-water mark up to here.
  result.referencePeakRssMb = peakRssMb();
  while (!config.smoke) {
    const std::optional<double> next =
        nextRungRate(result.rungs, config.referenceRate, maxRate);
    if (!next) break;
    ScopedSpan span(config.spans, "rung " + std::to_string(*next), "net");
    RungResult rung = gen->runRung(*next, config.depth, rungMeasure(*next));
    gen->drain(kDrainTimeoutS);
    // A failing rung is run once more: one host stall should not end the
    // ladder. Only a rate that fails twice does.
    if (!rungPasses(rung)) {
      rung = gen->runRung(*next, config.depth, rungMeasure(*next));
      gen->drain(kDrainTimeoutS);
    }
    result.rungs.push_back(rung);
  }
  gen->drain(10.0);
  result.maxRateRps = maxPassingRate(result.rungs);

  const std::deque<Request>& reqs = gen->requests();
  for (const Request& r : reqs) {
    ++result.attempted;
    if (r.submits != 1 || r.terminals != 1 || r.denied) ++result.failed;
  }
  const RungSamples reference = rungSamples(reqs, 0);
  result.submit = summarize(reference.submitUs);
  result.terminal = summarize(reference.terminalUs);
  result.genLateP99Us = percentile(reference.lateUs, 99.0);
  const std::vector<double>& inflight = gen->referenceInflight();
  result.inflightP50 = median(inflight);
  result.inflightMax = inflight.empty() ? 0.0 : *std::max_element(inflight.begin(), inflight.end());
  const double tasks = static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
  result.framesPerTask = static_cast<double>(framesOut.value() - frames0) / tasks;
  result.bytesPerTask = static_cast<double>(bytesOut.value() - bytes0) / tasks;

  if (result.failed != 0) {
    failures.push_back("live: " + std::to_string(result.failed) + " of " +
                       std::to_string(result.attempted) +
                       " requests lacked exactly one submit and one terminal");
  }
  const auto hasP99 = [](std::size_t n) { return highestReportablePercentile(n).value_or(0.0) >= 99.0; };
  if (!config.smoke && (!hasP99(result.submit.samples) || !hasP99(result.terminal.samples))) {
    failures.push_back("live: too few reference samples for a p99 (" +
                       std::to_string(result.submit.samples) + ")");
  }

  if (config.spans) {
    // The per-task chain due -> sent -> submit received -> complete sent ->
    // terminal received, sharing the task id (reference rung only).
    const Clock::time_point epoch = clock.epoch();
    const auto us = [&](double wallS) {
      return config.spans->toUs(epoch + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(wallS)));
    };
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Request& r = reqs[i];
      if (r.rung != 0 || r.terminalAt < 0.0 || r.submitAt < 0.0) continue;
      const std::uint64_t id = i + 1;
      config.spans->add({"generator wait", "live", us(r.due), 1e6 * (r.sent - r.due), id, 2});
      config.spans->add({"agent request->submit", "live", us(r.sent), 1e6 * (r.submitAt - r.sent), id, 3});
      config.spans->add({"server hold", "live", us(r.submitAt), 1e6 * (r.completeSentAt - r.submitAt), id, 4});
      config.spans->add({"agent complete->terminal", "live", us(r.completeSentAt), 1e6 * (r.terminalAt - r.completeSentAt), id, 5});
    }
  }

  gen->closeAll();
  agent->stop();
  result.agentCpuFrac = agent->cpuFraction();
  return result;
}

void checkLoopbackAgreement(std::uint64_t seed, Failures& failures) {
  cn::LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = seed;
  options.wallTimeoutSeconds = 30.0;
  const cn::LiveRunReport live = cn::runLoopbackScenario("live-loopback", options);
  const casched::scenario::CompiledScenario compiled = casched::scenario::compileScenario(
      casched::scenario::findScenario("live-loopback"), seed);
  const casched::metrics::RunResult sim = casched::scenario::runScenario(compiled, "msf");
  if (live.timedOut || live.completed != sim.completedCount() ||
      live.lost != sim.lostCount() ||
      live.resubmissions != cn::countResubmissions(sim.tasks)) {
    failures.push_back("live-loopback differs from the simulator: live timed_out=" +
                       std::string(live.timedOut ? "yes" : "no") + " completed=" +
                       std::to_string(live.completed) + " lost=" + std::to_string(live.lost) +
                       " resubmitted=" + std::to_string(live.resubmissions) +
                       " vs sim completed=" + std::to_string(sim.completedCount()) +
                       " lost=" + std::to_string(sim.lostCount()) + " resubmitted=" +
                       std::to_string(cn::countResubmissions(sim.tasks)));
  }
}

}  // namespace perfbench
