#include "perfbench/runner/trace.h"

#include <cstdio>
#include <sstream>

#include "src/server/aqp_server.h"

namespace perfbench {

std::vector<double> Tracer::PerRequest(const std::string& name) const {
  std::map<uint64_t, double> by_request;
  for (const Span& s : spans_) {
    if (name == s.name) {
      by_request[s.request] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::vector<double> out;
  out.reserve(by_request.size());
  for (const auto& [req, sec] : by_request) out.push_back(sec);
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double MedianOf(const Tracer& t, const std::string& name, double scale) {
  return Median(t.PerRequest(name)) * scale;
}

double MedianSelf(const Tracer& t, const std::string& parent,
                  const std::vector<std::string>& children, double scale) {
  std::vector<double> self = t.PerRequest(parent);
  for (const std::string& c : children) {
    const std::vector<double> child = t.PerRequest(c);
    for (size_t i = 0; i < self.size() && i < child.size(); ++i) {
      self[i] -= child[i];
    }
  }
  return Median(self) * scale;
}

GlobalCounters ReadGlobalCounters() {
  GlobalCounters g;
  g.chunks = cvopt::GetChunkCacheStats();
  g.zones = cvopt::GetZoneSkipStats();
  g.planner = cvopt::GetAggPlannerStats();
  return g;
}

ServerScrape ScrapeServer(const cvopt::AqpServer& server) {
  ServerScrape out;
  std::istringstream in(server.RenderMetrics());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out.values[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

void AddTraceOverhead(const std::vector<Window>& untraced,
                      const std::vector<Window>& traced, Report* report) {
  const LoopTotals u = Totals(untraced);
  const LoopTotals t = Totals(traced);
  const double p50_u = Median(u.latencies) * 1e3;
  const double p50_t = Median(t.latencies) * 1e3;
  report->Add("trace.untraced_p50_ms", p50_u, "ms");
  report->Add("trace.traced_p50_ms", p50_t, "ms");
  report->Add("trace.untraced_qps", u.qps(), "1/s");
  report->Add("trace.traced_qps", t.qps(), "1/s");
  report->Add("trace.p50_overhead_ratio", p50_t / p50_u, "ratio");
  report->Info("trace.untraced_ops", static_cast<double>(u.latencies.size()), "count");
  report->Info("trace.traced_ops", static_cast<double>(t.latencies.size()), "count");
}

}  // namespace perfbench
