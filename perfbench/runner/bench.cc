#include "perfbench/runner/bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Report::Fail(const std::string& what) {
  if (failures_.size() < 20) {
    failures_.push_back(what);
  } else if (failures_.size() == 20) {
    failures_.push_back("(further failures omitted)");
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(ms[i].name) + ":{\"value\":" + JsonNumber(ms[i].value) +
           ",\"unit\":" + JsonString(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void Report::Print(const Options& opts) const {
  std::string out = "{\"workload\":" + JsonString(opts.workload) +
                    ",\"seed\":" + std::to_string(opts.seed) +
                    ",\"trace\":" + (opts.trace ? "1" : "0") +
                    ",\"correct\":" + (correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"metrics\":" + JsonMetrics(metrics_) +
                    ",\"info\":" + JsonMetrics(info_) + ",\"text\":{";
  for (size_t i = 0; i < text_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(text_[i].first) + ":" + JsonString(text_[i].second);
  }
  out += "},\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(failures_[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

LapMeter::Reading LapMeter::Lap() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double steal = 0, total = 0;
  for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
    double v = 0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  Reading r;
  const double d_total = total - total_;
  r.steal_share = d_total > 0 ? (steal - steal_) / d_total : 0;
  r.cpu_s = cpu_s - cpu_s_;
  steal_ = steal;
  total_ = total;
  cpu_s_ = cpu_s;
  return r;
}

void WindowedLoop::Add(double latency_s) {
  open_.latencies.push_back(latency_s);
  open_.seconds += latency_s;
  busy_s_ += latency_s;
  ++ops_;
  if (open_.seconds >= window_s_ && open_.latencies.size() % align_ == 0) {
    open_.host = meter_.Lap();
    done_.push_back(std::move(open_));
    open_ = Window();
  }
}

std::vector<Window> WindowedLoop::Finish() {
  if (open_.seconds >= window_s_ / 2 && open_.latencies.size() % align_ == 0) {
    open_.host = meter_.Lap();
    done_.push_back(std::move(open_));
  }
  open_ = Window();
  return std::move(done_);
}

LoopTotals Totals(const std::vector<Window>& windows) {
  LoopTotals t;
  for (const Window& w : windows) {
    t.latencies.insert(t.latencies.end(), w.latencies.begin(), w.latencies.end());
    t.seconds += w.seconds;
  }
  return t;
}

void AddLatencyMetrics(const std::vector<Window>& windows, Report* report) {
  const LoopTotals t = Totals(windows);
  std::vector<double> cpu;
  std::string detail;
  double steal_max = 0;
  for (const Window& w : windows) {
    const double n = static_cast<double>(w.latencies.size());
    cpu.push_back(w.host.cpu_s / n * 1e3);
    steal_max = std::max(steal_max, w.host.steal_share);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.4g/%.4g@%.3f", detail.empty() ? "" : " ",
                  n / w.seconds, cpu.back(), w.host.steal_share);
    detail += buf;
  }
  report->Add("qps", t.qps(), "1/s");
  report->Add("p50_ms", Median(t.latencies) * 1e3, "ms");
  report->Info("cpu_ms_per_op", Median(cpu), "ms");
  report->Info("latency_samples", static_cast<double>(t.latencies.size()), "count");
  report->Info("qps_windows", static_cast<double>(windows.size()), "count");
  report->Info("window_steal_max", steal_max, "ratio");
  // p99 is reported only where at least ten samples lie beyond it.
  if (t.latencies.size() >= 1000) {
    report->Info("p99_ms", Quantile(t.latencies, 0.99) * 1e3, "ms");
  }
  report->InfoText("window_qps/cpu_ms@steal", detail);
}

void RestartPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace perfbench
