// Traced-run support: an in-memory span recorder driven from the
// benchmark's own code around calls into the engine's public functions,
// and the one place that reads the engine's process-global counters.
//
// Spans carry a name, a request id shared by every span of one operation,
// the index of the span that caused it (-1 for a root), and start/end
// times. They stay in memory and are written as JSON lines when the run
// ends. A parent's self time is its duration minus the durations of its
// children, which the workloads time as separate calls on the same inputs.
#ifndef PERFBENCH_RUNNER_TRACE_H_
#define PERFBENCH_RUNNER_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "src/exec/agg_planner.h"
#include "src/expr/compiled_predicate.h"
#include "src/table/mapped_table.h"

namespace cvopt {
class AqpServer;
}

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    uint64_t request = 0;
    int64_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

  int64_t Begin(const char* name, uint64_t request, int64_t parent = -1) {
    spans_.push_back({name, request, parent, Now(), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }

  /// Per-request durations (seconds) of every span named `name`, summed
  /// within a request, in request order.
  std::vector<double> PerRequest(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint64_t request, int64_t parent = -1)
      : t_(t), id_(t->Begin(name, request, parent)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int64_t id_;
};

/// Median of per-request durations of `name`, in the given unit scale
/// (1e3 for ms, 1e6 for us).
double MedianOf(const Tracer& t, const std::string& name, double scale);

/// Median per-request self time of `parent`: its duration minus the summed
/// durations of `children` in the same request.
double MedianSelf(const Tracer& t, const std::string& parent,
                  const std::vector<std::string>& children, double scale);

/// Snapshot of the engine's process-global counters. Every read of them in
/// the benchmark goes through here, so replacing the globals with a
/// per-query profile changes this one function.
struct GlobalCounters {
  cvopt::ChunkCacheStats chunks;
  cvopt::ZoneSkipStats zones;
  cvopt::AggPlannerStats planner;
};
GlobalCounters ReadGlobalCounters();

/// Counter and histogram values scraped from the server's Prometheus text.
struct ServerScrape {
  std::map<std::string, double> values;  // metric name -> value
  double Get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};
ServerScrape ScrapeServer(const cvopt::AqpServer& server);

/// Adds the tracing-overhead metrics: traced vs untraced p50 and qps of the
/// same operation loop in the same process.
void AddTraceOverhead(const std::vector<Window>& untraced,
                      const std::vector<Window>& traced, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_TRACE_H_
