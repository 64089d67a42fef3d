// perfbench_runner: runs one benchmark workload in this process and prints
// one JSON report line. Normally launched by perfbench/run.py:
//
//   perfbench_runner --workload serve_hit --seed 7 --seconds 20 --trace 0
//       --data-dir .bench_build/perfbench_data [--trace-out spans.jsonl]
//
// Besides the workload's metrics the report carries host facts (CPU, SIMD,
// build type, morsel-pool size, a memcpy bandwidth probe) and the CPU steal
// share over the run, so a run on a noisy host can be recognised.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/runner/bench.h"
#include "src/exec/parallel.h"
#include "src/util/simd.h"

namespace perfbench {
namespace {

std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "";
}

std::string SimdFlags() {
  std::istringstream flags(CpuInfoField("flags"));
  const char* wanted[] = {"sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f"};
  std::string out, f;
  while (flags >> f) {
    for (const char* w : wanted) {
      if (f == w) out += (out.empty() ? "" : " ") + f;
    }
  }
  return out;
}

// Best-of-5 copy rate over 32 MiB buffers, in GB/s (bytes read + written).
double MemcpyGbPerSecond() {
  const size_t n = 32u << 20;
  std::vector<char> src(n, 1), dst(n, 0);
  double best = 0;
  for (int i = 0; i < 5; ++i) {
    src[static_cast<size_t>(i)] = static_cast<char>(i);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), n);
    const double s = SecondsSince(t0);
    if (dst[static_cast<size_t>(i)] != static_cast<char>(i)) return 0;
    best = std::max(best, 2.0 * static_cast<double>(n) / s / 1e9);
  }
  return best;
}

void AddHostFacts(Report* r) {
  r->Info("host.nproc", std::thread::hardware_concurrency(), "count");
  r->Info("host.morsel_pool_threads",
          static_cast<double>(cvopt::ResolveThreads(0)), "count");
  r->Info("host.memcpy_gbps", MemcpyGbPerSecond(), "GB/s");
  r->InfoText("host.cpu_model", CpuInfoField("model name"));
  r->InfoText("host.simd_flags", SimdFlags());
  r->InfoText("host.simd_backend", cvopt::simd::BackendName());
  r->InfoText("host.build_type", PERFBENCH_BUILD_TYPE);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload "
               "{serve_hit|sample_build|exact_hugeg|mapped_scan} --seed N "
               "--seconds S --trace {0|1} --data-dir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces)
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opts.workload = v;
    } else if (k == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opts.trace = v == "1";
    } else if (k == "--data-dir") {
      opts.data_dir = v;
    } else if (k == "--trace-out") {
      opts.trace_out = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opts.data_dir.empty() || opts.seconds <= 0) return Usage();
  if (opts.trace) opts.setup_reps = 1;

  void (*run)(const Options&, Report*) = nullptr;
  if (opts.workload == "serve_hit") run = RunServeHit;
  if (opts.workload == "sample_build") run = RunSampleBuild;
  if (opts.workload == "exact_hugeg") run = RunExactHugeG;
  if (opts.workload == "mapped_scan") run = RunMappedScan;
  if (run == nullptr) return Usage();

  Report report;
  LapMeter meter;
  run(opts, &report);
  report.Info("host.steal_share", meter.Lap().steal_share, "ratio");
  // Read before the memcpy probe allocates its buffers.
  if (!opts.trace) report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  AddHostFacts(&report);
  report.Print(opts);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
