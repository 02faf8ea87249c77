#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "replay.h"
#include "slfe/net/net_server.h"
#include "slfe/service/job_service.h"

namespace perfbench {

// Each workload fills `report`: untraced (options.trace == false) with the
// end-to-end metrics, traced with the per-layer metrics. Why each workload
// exists and which layers it stresses is in perfbench/README.md.
void RunServeMix(const Options& options, Report& report);
void RunSolveDeep(const Options& options, Report& report);
void RunMutateStream(const Options& options, Report& report);

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 5;

/// The untraced loop runs as this many equal back-to-back segments, and
/// jobs_per_s and job_p50_ms are medians over them: load from outside the
/// process (other tenants of a shared host) that hits part of a run then
/// moves a minority of the segments instead of the run's figure.
constexpr int kSegments = 5;

/// What a closed loop measured.
struct LoopResult {
  std::vector<double> job_ms;     ///< query jobs, submit to complete
  std::vector<double> mutate_ms;  ///< mutations, submit to complete
  double busy_s = 0;  ///< loop time the denominator of jobs_per_s uses
  uint64_t jobs_ok = 0;
  double JobsPerSecond() const {
    return busy_s > 0 ? static_cast<double>(jobs_ok) / busy_s : 0;
  }
};

/// A JobService, optionally fronted by a NetServer on an ephemeral
/// loopback port served from its own thread.
class ServiceHost {
 public:
  explicit ServiceHost(service::JobServiceOptions options)
      : service_(std::make_unique<service::JobService>(std::move(options))) {}
  ~ServiceHost();
  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  service::JobService& service() { return *service_; }
  /// Starts the TCP front end (once); returns its port, 0 on failure.
  uint16_t StartNet();
  uint16_t port() const { return port_; }

  /// Submit + Wait; false when rejected or failed. `summary` gets the
  /// result's summary scalar.
  bool RunJob(const service::JobRequest& request, uint64_t* summary);

 private:
  std::unique_ptr<service::JobService> service_;
  std::unique_ptr<net::NetServer> server_;
  std::thread serve_thread_;
  uint16_t port_ = 0;
};

/// Prints the traced-run epilogue shared by all workloads: per-layer
/// metrics into `report` and the Chrome trace file under the work dir.
void FinishTrace(const Options& options, Report& report, LayerLedger& ledger,
                 const GuidanceCounters& loop_counters,
                 const LoopResult& untraced, const LoopResult& traced,
                 const SpanRecorder& spans);

/// Adds the end-to-end metrics every workload reports, from the untraced
/// loop's segments.
void AddEndToEnd(Report& report, const std::vector<LoopResult>& segments,
                 const std::vector<double>& setup_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
