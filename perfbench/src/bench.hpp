#pragma once
/// \file bench.hpp
/// Shared pieces of the casched benchmark: the pure accounting rules (tail
/// percentiles, due-time latency, the max-rate ladder, HTM depth from task
/// outcomes), the benchmark's own span log, and the entry points of the
/// simulator part, the live part and the per-layer timings.

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "metrics/record.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ----------------------------------------------------------- accounting ---

/// Nearest-rank percentile (q in [0, 100]) of `values`; sorts a copy.
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Set-up is repeated this many times per run, in batches of kSetupBatch.
constexpr int kSetupReps = 64;
constexpr std::size_t kSetupBatch = 8;

/// Median over consecutive batches of `batch` samples of each batch's mean
/// (a short last batch is dropped unless it is the only one). A set-up that
/// takes one of two durations, by whether it catches a polling turn,
/// averages out within a batch, so the result does not jump between the
/// two when their mix is near half and half.
double medianOfBatchMeans(const std::vector<double>& samples, std::size_t batch);

/// Window of the tail percentiles the live part reports: at least 1000
/// samples, so a p99 has ten samples beyond it in every window.
constexpr std::size_t kP99Window = 1000;

/// Percentile q of `ordered` (samples in the order they were taken), as the
/// median over consecutive windows of at least kP99Window samples each. One
/// host stall lands in one window, so it moves a tail percentile by one
/// window's worth instead of deciding it.
double windowedPercentile(const std::vector<double>& ordered, double q);

/// The highest of the percentiles 50, 90, 99 and 99.9 that still has at
/// least ten samples beyond it, or nullopt when even p50 has fewer.
std::optional<double> highestReportablePercentile(std::size_t samples);

/// True when percentile `q` of `samples` values has at least ten samples
/// beyond it.
bool percentileReportable(std::size_t samples, double q);

/// One open-loop request of the live part, in wall seconds since the live
/// clock's epoch (-1 = not yet). Kept small: a run records every request it
/// sends. Request i has task id i + 1; its rung fixes the hold time and the
/// modelled demand.
struct Request {
  double due = 0.0;
  double sent = -1.0;
  double submitAt = -1.0;
  double completeSentAt = -1.0;
  double terminalAt = -1.0;
  std::uint16_t rung = 0;
  std::int8_t server = -1;
  std::uint8_t submits = 0;
  std::uint8_t terminals = 0;
  bool denied = false;
  bool measured = false;  ///< due after the rung's warm-up
};

/// The timings of one rung's measured requests, in microseconds and in send
/// order.
struct RungSamples {
  /// Due time -> submit arrival. Open-loop accounting: a request is charged
  /// from when it was due, so a generator stall counts against every
  /// request it delayed.
  std::vector<double> submitUs;
  /// The fake server's complete send -> the client's terminal arrival.
  std::vector<double> terminalUs;
  /// Due time -> actual send: how late the generator was.
  std::vector<double> lateUs;
};

RungSamples rungSamples(const std::deque<Request>& requests, std::uint16_t rung);

/// Requests of the running rung that still wait for their submit. A submit
/// for an earlier rung's request that arrives late is not this rung's, so it
/// neither hides this rung's backlog nor makes the count go below zero.
class RungBacklog {
 public:
  explicit RungBacklog(std::uint16_t rung = 0) : rung_(rung) {}
  void onSent() { ++sent_; }
  void onSubmit(std::uint16_t rung) {
    if (rung == rung_) ++submitted_;
  }
  std::size_t unsubmitted() const { return sent_ - submitted_; }

 private:
  std::uint16_t rung_;
  std::size_t sent_ = 0;
  std::size_t submitted_ = 0;
};

/// One rung of the max-rate ladder.
struct RungResult {
  double rate = 0.0;          ///< offered requests per second
  double achievedRate = 0.0;  ///< requests sent / measured wall seconds
  std::size_t samples = 0;    ///< submit latencies measured on this rung
  double submitP99Us = 0.0;
  std::size_t backlog = 0;  ///< requests without a terminal after the drain
  bool aborted = false;     ///< stopped early: the agent fell 100 ms behind
};

/// The latency limit the ladder holds: submit p99 at or under 10 ms.
constexpr double kLadderLimitUs = 10000.0;
/// How often the ladder may halve below the reference rate.
constexpr int kMaxHalvings = 1;
/// The ladder's cap, as a multiple of the reference rate: above where
/// either live workload stops keeping its p99 within the limit on a 4-core
/// host, so the ladder ends on a failing rung, not on the cap.
constexpr double kLadderCap = 64.0;

/// A rung passes when its p99 is reportable and within the limit, it was not
/// aborted, and the drain left no backlog.
bool rungPasses(const RungResult& rung);

/// Next rate of the ladder given the rungs run so far (in order), or nullopt
/// when the ladder is finished. The ladder doubles from the reference rate
/// until a rung fails or `maxRate` would be exceeded; when the reference
/// rung itself fails it halves instead, at most kMaxHalvings times, so a
/// regression shows as a lower rate rather than as no rate.
std::optional<double> nextRungRate(const std::vector<RungResult>& rungs,
                                   double referenceRate, double maxRate);

/// The ladder's result: the highest rate that keeps submit p99 within the
/// limit. Between the highest passing rung and the next, failing, rung it is
/// interpolated log-log on p99 against rate, so a system sitting near a rung
/// boundary reads near that boundary on every run instead of flipping
/// between two rungs a factor of two apart. Without a failing rung above
/// (the ladder hit its cap), or when that rung failed on backlog rather than
/// latency, it is the highest passing rung's achieved rate; 0 when no rung
/// passed.
double maxPassingRate(const std::vector<RungResult>& rungs);

/// For every task that ran (scheduledAt >= 0 and a server), how many other
/// tasks occupied the same server at its scheduledAt: those scheduled at or
/// before it whose [scheduledAt, completion) interval still covers it. Lost
/// tasks count as occupying their server until the end of the run.
std::vector<double> depthsAtSchedule(const std::vector<casched::metrics::TaskOutcome>& tasks);

/// Per completed task with a committed prediction, |sigma' - C| / flow in
/// percent (the paper's Table 1 quantity).
std::vector<double> htmErrorsPct(const std::vector<casched::metrics::TaskOutcome>& tasks);

/// Log-log least-squares slope of y against x.
double logLogSlope(const std::vector<double>& x, const std::vector<double>& y);

// ------------------------------------------------------------- span log ---

/// The benchmark's own spans, kept in memory and written once as Chrome
/// trace JSON (load it in https://ui.perfetto.dev). Single-threaded: the
/// live generator records from its own thread only, the agent thread never
/// touches it.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string cat;
    double startUs = 0.0;
    double durUs = 0.0;
    std::uint64_t id = 0;  ///< shared by the spans of one task (0 = none)
    int tid = 1;
  };

  SpanLog() : epoch_(Clock::now()) {}

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }
  double toUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  void add(Span span) { spans_.push_back(std::move(span)); }
  std::size_t size() const { return spans_.size(); }
  std::string chromeJson() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction when `log` is set.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string cat)
      : log_(log), name_(std::move(name)), cat_(std::move(cat)),
        start_(log ? log->nowUs() : 0.0) {}
  ~ScopedSpan() {
    if (log_) log_->add({std::move(name_), std::move(cat_), start_, log_->nowUs() - start_, 0, 1});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::string name_;
  std::string cat_;
  double start_;
};

// -------------------------------------------------------------- results ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind a timing (0 = n/a)
};

/// Failed output checks collect here; any entry fails the run.
using Failures = std::vector<std::string>;

// ------------------------------------------------------------ sim part ---

struct SimConfig {
  bool deep = true;         ///< sim-deep entries, else sim-shallow entries
  std::size_t deepTasks = 400;  ///< tasks per sim-deep metatask
  std::uint64_t seed = 1;
  double seconds = 1.0;     ///< measured time budget
  /// Runs every scenario call twice in a row, untraced and then with the
  /// program's obs::TraceBuffer on, for the tracing overhead.
  bool pairTraced = false;
  bool smoke = false;         ///< tiny sizes, one set-up (the ctest smoke run)
  SpanLog* spans = nullptr;
};

struct SimResult {
  double setupS = 0.0;       ///< median of repeated compile + world builds
  double compileMs = 0.0;    ///< median scenario compile alone
  double wallS = 0.0;        ///< measured untraced calls, summed
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;
  std::uint64_t submitted = 0;
  std::uint64_t events = 0;
  double meanStretch = 0.0;
  std::size_t passes = 0;
  std::vector<double> passRates;  ///< tasks per second of each pass
  double depthP50 = 0.0;
  double depthMax = 0.0;
  double htmErrPct = 0.0;
  double forwardsPerTask = 0.0;
  double stealsPerTask = 0.0;
  /// Median over passes of the geometric mean over seeds of completed
  /// tasks / untraced wall seconds.
  double tasksPerS = 0.0;
  /// pairTraced only: median over paired calls of traced / untraced wall,
  /// minus 1, and the program's spans per task in the traced calls.
  double traceOverheadFrac = 0.0;
  double programSpansPerTask = 0.0;
};

/// Registry entries of each sim workload.
std::vector<std::string> simEntries(bool deep);

SimResult runSimPart(const SimConfig& config, Failures& failures);

/// Wall seconds of one pass over `entries` at `tasks` per metatask (0 =
/// registry size), for the size sweep and the per-entry timings.
std::vector<std::pair<std::string, double>> timeEntries(bool deep, std::size_t tasks,
                                                        std::uint64_t seed, SpanLog* spans);

// ----------------------------------------------------------- live part ---

struct LiveConfig {
  std::size_t depth = 4;      ///< in-flight tasks per fake server
  double referenceRate = 1000.0;
  std::uint64_t seed = 1;
  double seconds = 1.0;       ///< measured time budget
  bool smoke = false;         ///< one set-up, no ladder, no sample-count check
  SpanLog* spans = nullptr;
};

struct LatencySummary {
  std::size_t samples = 0;
  double p50Us = 0.0;
  double p99Us = 0.0;
};

struct LiveResult {
  double setupS = 0.0;  ///< median agent start -> 8 servers registered
  /// Peak resident set of the process after the reference rate, before the
  /// ladder.
  double referencePeakRssMb = 0.0;
  LatencySummary submit;
  LatencySummary terminal;
  std::vector<RungResult> rungs;
  double maxRateRps = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double inflightP50 = 0.0;
  double inflightMax = 0.0;
  double genLateP99Us = 0.0;
  double agentCpuFrac = 0.0;
  double framesPerTask = 0.0;
  double bytesPerTask = 0.0;
};

LiveResult runLivePart(const LiveConfig& config, Failures& failures);

/// Counts of net::runLoopbackScenario("live-loopback") must equal
/// scenario::runScenario's on the same compiled spec.
void checkLoopbackAgreement(std::uint64_t seed, Failures& failures);

// ------------------------------------------------------- layer timings ---

/// Micro timings of single layers through their public entry points.
std::vector<Metric> layerTimings(bool smoke, SpanLog* spans);

/// Fixed xorshift loop: ns per 256 steps, a machine-speed anchor.
double hostAnchorNs();

/// Lines under src/ apps/ bench/ examples/ of the checkout.
double repoSourceLines();

}  // namespace perfbench
