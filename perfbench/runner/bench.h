// Shared plumbing of the benchmark runner: run options, timing helpers,
// the report every workload fills in, and the set-up repetition helper.
//
// A workload run has three parts: set-up (timed, repeated, median reported
// as setup_s), a measured closed loop of operations, and checks. Every
// operation is counted in `attempted`; an operation that errors, is refused
// or fails a correctness check is counted in `failed`. The runner prints
// one JSON report line; perfbench/run.py turns it into the result line.
#ifndef PERFBENCH_RUNNER_BENCH_H_
#define PERFBENCH_RUNNER_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Set-ups per run; setup_s is their median. Traced runs set up once.
  int setup_reps = 5;
  /// Scratch directory for generated files and the server socket
  /// (relative to the working directory; created by run.py).
  std::string data_dir;
  /// Where a traced run writes its spans (JSON lines).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced.
class Report {
 public:
  /// End-to-end metric (untraced runs) or per-layer metric (traced runs).
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Context printed beside the metrics (sample counts, quality, host).
  void Info(const std::string& name, double value, const std::string& unit) {
    info_.push_back({name, value, unit});
  }
  void InfoText(const std::string& name, const std::string& text) {
    text_.emplace_back(name, text);
  }

  /// Operations attempted, and how many of them failed.
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Marks the run incorrect and records why (the first 20 reasons). An
  /// operation that failed is also counted through CountOps.
  void Fail(const std::string& what);
  /// Fail(what) unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }

  bool correct() const { return failures_.empty(); }
  uint64_t failed() const { return failed_; }

  /// Prints the report as one JSON line on stdout.
  void Print(const Options& opts) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
  std::vector<std::pair<std::string, std::string>> text_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Releases freed heap memory to the system and restarts the process's
/// peak-RSS mark (VmHWM).
void RestartPeakRss();

/// Runs `make` `reps` times, destroying the previous state before the next
/// set-up so at most one is resident, and reports the median wall time as
/// setup_s. Returns the last state. The peak-RSS mark restarts before the
/// last set-up, so peak_rss_mb covers one set-up plus the measured phase,
/// not what the discarded repetitions left in the allocator.
template <class State, class Make>
std::unique_ptr<State> SetUpRepeatedly(int reps, Report* report, Make&& make) {
  std::vector<double> times;
  std::unique_ptr<State> state;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    if (i == reps - 1) RestartPeakRss();
    const auto t0 = Clock::now();
    state = make();
    times.push_back(SecondsSince(t0));
  }
  report->Add("setup_s", Median(times), "s");
  report->Info("setup_reps", reps, "count");
  std::string all;
  for (double t : times) all += (all.empty() ? "" : " ") + std::to_string(t);
  report->InfoText("setup_s_each", all);
  return state;
}

/// Readings since the last Lap() (or construction): the share of the
/// machine's CPU time the hypervisor stole (/proc/stat's aggregate cpu
/// line) and this process's CPU time, user plus system, over all threads.
class LapMeter {
 public:
  struct Reading {
    double steal_share = 0;
    double cpu_s = 0;
  };
  LapMeter() { Lap(); }
  Reading Lap();

 private:
  double steal_ = 0;
  double total_ = 0;
  double cpu_s_ = 0;
};

/// One measurement window of a closed loop: its operations' latencies and
/// the window's length (busy time for a single caller, wall time for
/// several).
struct Window {
  std::vector<double> latencies;
  double seconds = 0;
  LapMeter::Reading host;
};

/// Splits a single caller's loop into windows: Add() records one timed
/// operation, and a window closes once it holds `window_s` of busy time
/// and a multiple of `align` operations.
class WindowedLoop {
 public:
  explicit WindowedLoop(double window_s, size_t align = 1)
      : window_s_(window_s), align_(align) {}
  void Add(double latency_s);
  /// Total busy time recorded so far.
  double busy_s() const { return busy_s_; }
  size_t ops() const { return ops_; }
  /// Closes the open window (kept only if it holds at least half a
  /// window) and returns all windows.
  std::vector<Window> Finish();

 private:
  double window_s_;
  size_t align_;
  double busy_s_ = 0;
  size_t ops_ = 0;
  LapMeter meter_;
  Window open_;
  std::vector<Window> done_;
};

/// Every latency of `windows`, in order, and the windows' total time.
struct LoopTotals {
  std::vector<double> latencies;
  double seconds = 0;
  double qps() const { return static_cast<double>(latencies.size()) / seconds; }
};
LoopTotals Totals(const std::vector<Window>& windows);

/// Closed-loop latency summary shared by the workloads: qps is operations
/// over the windows' total time, p50 the median latency over all
/// operations (and p99 when at least 1000 samples leave ten beyond it),
/// cpu_ms_per_op the median of the windows' process CPU time per
/// operation. Per-window rates, CPU and steal go to the report's text.
void AddLatencyMetrics(const std::vector<Window>& windows, Report* report);

/// Peak resident set of this process in MiB since the last RestartPeakRss().
double PeakRssMb();

// Workloads. Each fills `report`; traced runs emit per-layer metrics.
void RunServeHit(const Options& opts, Report* report);
void RunSampleBuild(const Options& opts, Report* report);
void RunExactHugeG(const Options& opts, Report* report);
void RunMappedScan(const Options& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_BENCH_H_
