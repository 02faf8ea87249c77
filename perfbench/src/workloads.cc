#include "workloads.h"

#include <cstdio>

#include "stats.h"

namespace perfbench {

ServiceHost::~ServiceHost() {
  if (server_ != nullptr) {
    server_->Stop();
    serve_thread_.join();
    server_.reset();
  }
  service_->Shutdown();
}

uint16_t ServiceHost::StartNet() {
  if (server_ != nullptr) return port_;
  server_ = std::make_unique<net::NetServer>(*service_, net::NetServerOptions{});
  if (!server_->Start().ok()) {
    server_.reset();
    return 0;
  }
  port_ = server_->port();
  serve_thread_ = std::thread([this] { server_->Serve(); });
  return port_;
}

bool ServiceHost::RunJob(const service::JobRequest& request,
                         uint64_t* summary) {
  Result<service::JobTicket> ticket = service_->Submit(request);
  if (!ticket.ok()) return false;
  const service::JobResult& result = ticket.value()->Wait();
  if (summary != nullptr) *summary = result.summary;
  return result.status.ok();
}

void AddEndToEnd(Report& report, const std::vector<LoopResult>& segments,
                 const std::vector<double>& setup_s) {
  std::vector<double> rates, p50s, all_ms;
  for (const LoopResult& s : segments) {
    rates.push_back(s.JobsPerSecond());
    p50s.push_back(Median(s.job_ms));
    all_ms.insert(all_ms.end(), s.job_ms.begin(), s.job_ms.end());
  }
  const std::string note =
      "median of " + std::to_string(segments.size()) + " segments";
  report.Add("jobs_per_s", Median(rates), "1/s", all_ms.size(), note);
  report.Add("job_p50_ms", Median(p50s), "ms", all_ms.size(), note);
  AddTail(report, "job_p99_ms", 99, all_ms);
  report.Add("setup_s", Median(setup_s), "s", setup_s.size(),
             "median of the run's set-ups");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

void FinishTrace(const Options& options, Report& report, LayerLedger& ledger,
                 const GuidanceCounters& loop_counters,
                 const LoopResult& untraced, const LoopResult& traced,
                 const SpanRecorder& spans) {
  const double overhead =
      traced.JobsPerSecond() > 0
          ? untraced.JobsPerSecond() / traced.JobsPerSecond() - 1.0
          : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "tracing overhead: untraced %.2f jobs/s p50 %.3f ms, traced "
                "%.2f jobs/s p50 %.3f ms (same seed, half the run each)",
                untraced.JobsPerSecond(), Median(untraced.job_ms),
                traced.JobsPerSecond(), Median(traced.job_ms));
  report.Ledger(buf);
  EmitLayerMetrics(report, ledger, loop_counters, overhead, spans);
  const std::string path = options.work_dir + "/trace_" + options.workload +
                           "_" + std::to_string(options.seed) + ".json";
  if (spans.WriteChromeTrace(path, HostStamp(options))) {
    report.Ledger("chrome trace: " + std::to_string(spans.spans().size()) +
                  " spans written");
  } else {
    report.Attempt(true, false);
    report.Ledger("chrome trace: cannot write " + path);
  }
}

}  // namespace perfbench
