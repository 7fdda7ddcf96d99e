#include <algorithm>
#include <cmath>
#include <map>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()) - 1e-9);
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double medianOfBatchMeans(const std::vector<double>& samples, std::size_t batch) {
  const std::size_t batches = std::max<std::size_t>(1, samples.size() / batch);
  const std::size_t size = std::min(batch, samples.size());
  std::vector<double> means;
  for (std::size_t b = 0; b < batches; ++b) {
    double sum = 0.0;
    for (std::size_t i = b * size; i < (b + 1) * size; ++i) sum += samples[i];
    means.push_back(size == 0 ? 0.0 : sum / static_cast<double>(size));
  }
  return median(means);
}

double windowedPercentile(const std::vector<double>& ordered, double q) {
  const std::size_t chunks = std::max<std::size_t>(1, ordered.size() / kP99Window);
  std::vector<double> perChunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t from = c * ordered.size() / chunks;
    const std::size_t to = (c + 1) * ordered.size() / chunks;
    perChunk.push_back(percentile({ordered.begin() + static_cast<std::ptrdiff_t>(from),
                                   ordered.begin() + static_cast<std::ptrdiff_t>(to)},
                                  q));
  }
  return median(perChunk);
}

bool percentileReportable(std::size_t samples, double q) {
  // Samples strictly beyond the nearest-rank percentile.
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples) - 1e-9);
  return static_cast<double>(samples) - rank >= 10.0;
}

std::optional<double> highestReportablePercentile(std::size_t samples) {
  for (double q : {99.9, 99.0, 90.0, 50.0}) {
    if (percentileReportable(samples, q)) return q;
  }
  return std::nullopt;
}

bool rungPasses(const RungResult& rung) {
  return percentileReportable(rung.samples, 99.0) && rung.submitP99Us <= kLadderLimitUs &&
         rung.backlog == 0 && !rung.aborted;
}

RungSamples rungSamples(const std::deque<Request>& requests, std::uint16_t rung) {
  RungSamples out;
  for (const Request& r : requests) {
    if (r.rung != rung || !r.measured) continue;
    if (r.submitAt >= 0.0) out.submitUs.push_back(1e6 * (r.submitAt - r.due));
    if (r.terminalAt >= 0.0 && r.completeSentAt >= 0.0) {
      out.terminalUs.push_back(1e6 * (r.terminalAt - r.completeSentAt));
    }
    if (r.sent >= 0.0) out.lateUs.push_back(1e6 * (r.sent - r.due));
  }
  return out;
}

std::optional<double> nextRungRate(const std::vector<RungResult>& rungs, double referenceRate,
                                   double maxRate) {
  if (rungs.empty()) return referenceRate;
  const bool referencePassed = rungPasses(rungs.front());
  const RungResult& last = rungs.back();
  if (referencePassed) {
    // Climbing: stop at the first failure or at the cap.
    if (!rungPasses(last)) return std::nullopt;
    const double next = last.rate * 2.0;
    if (next > maxRate) return std::nullopt;
    return next;
  }
  // Descending: stop at the first pass or after kMaxHalvings halvings.
  if (rungPasses(last)) return std::nullopt;
  if (static_cast<int>(rungs.size()) > kMaxHalvings) return std::nullopt;
  return last.rate / 2.0;
}

double maxPassingRate(const std::vector<RungResult>& rungs) {
  const RungResult* pass = nullptr;
  for (const RungResult& r : rungs) {
    if (rungPasses(r) && (!pass || r.rate > pass->rate)) pass = &r;
  }
  if (!pass) return 0.0;
  const RungResult* fail = nullptr;
  for (const RungResult& r : rungs) {
    if (!rungPasses(r) && r.rate > pass->rate && (!fail || r.rate < fail->rate)) fail = &r;
  }
  if (!fail || fail->submitP99Us <= kLadderLimitUs || pass->submitP99Us <= 0.0) {
    return pass->achievedRate;
  }
  const double share = std::log(kLadderLimitUs / pass->submitP99Us) /
                       std::log(fail->submitP99Us / pass->submitP99Us);
  return pass->achievedRate * std::pow(fail->rate / pass->rate, share);
}

std::vector<double> depthsAtSchedule(const std::vector<casched::metrics::TaskOutcome>& tasks) {
  using casched::metrics::TaskOutcome;
  using casched::metrics::TaskStatus;
  std::map<std::string, std::vector<const TaskOutcome*>> byServer;
  for (const TaskOutcome& t : tasks) {
    if (t.scheduledAt >= 0.0 && !t.server.empty()) byServer[t.server].push_back(&t);
  }
  std::vector<double> depths;
  for (auto& [server, list] : byServer) {
    std::stable_sort(list.begin(), list.end(), [](const TaskOutcome* a, const TaskOutcome* b) {
      return a->scheduledAt < b->scheduledAt;
    });
    for (std::size_t i = 0; i < list.size(); ++i) {
      const double at = list[i]->scheduledAt;
      std::size_t depth = 0;
      for (std::size_t j = 0; j < i; ++j) {
        const TaskOutcome& o = *list[j];
        const bool open = o.status != TaskStatus::kCompleted || o.completion > at;
        if (open) ++depth;
      }
      depths.push_back(static_cast<double>(depth));
    }
  }
  return depths;
}

std::vector<double> htmErrorsPct(const std::vector<casched::metrics::TaskOutcome>& tasks) {
  std::vector<double> out;
  for (const casched::metrics::TaskOutcome& t : tasks) {
    if (t.status != casched::metrics::TaskStatus::kCompleted) continue;
    if (t.htmPredictedCompletion < 0.0 || t.flow() <= 0.0) continue;
    out.push_back(100.0 * std::abs(t.htmPredictedCompletion - t.completion) / t.flow());
  }
  return out;
}

double logLogSlope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double dn = static_cast<double>(n);
  const double den = dn * sxx - sx * sx;
  return den == 0.0 ? 0.0 : (dn * sxy - sx * sy) / den;
}

std::string SpanLog::chromeJson() const {
  casched::util::JsonWriter w;
  w.beginObject().key("displayTimeUnit").value("ms").key("traceEvents").beginArray();
  for (const Span& s : spans_) {
    w.beginObject();
    w.key("name").value(s.name).key("cat").value(s.cat).key("ph").value("X");
    w.key("pid").value(1).key("tid").value(s.tid);
    w.key("ts").value(s.startUs).key("dur").value(s.durUs);
    if (s.id != 0) w.key("args").beginObject().key("task").value(s.id).endObject();
    w.endObject();
  }
  w.endArray().endObject();
  return w.str() + "\n";
}

}  // namespace perfbench
