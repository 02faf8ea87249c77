#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The traced run's per-layer measurements. A sample of a workload's jobs is
// replayed as standalone calls into each module's public functions, with
// the same arguments the job passes internally, next to the job's own
// Session::RunOn; the benchmark's spans wrap every call.

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "slfe/api/session.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/service/job_service.h"
#include "spans.h"

namespace perfbench {

/// Samples per layer metric, accumulated over every replayed job and probe.
class LayerLedger {
 public:
  void Add(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }
  const std::vector<double>& Samples(const std::string& metric) const;
  double Mean(const std::string& metric) const;
  double Median(const std::string& metric) const;
  double Total(const std::string& metric) const;

  /// Per (app, graph) rows for the printed ledger.
  struct Row {
    double rr_ms = 0, base_ms = 0, unaccounted_ms = 0, guidance_ms = 0,
           engine_ms = 0;
    uint64_t jobs = 0, supersteps = 0;
  };
  std::map<std::string, Row>& rows() { return rows_; }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, Row> rows_;
};

/// What a replay needs from a workload: the session its jobs run through,
/// a JobService (with a NetServer on `port`) for the service and net
/// overheads, and the cluster shape.
struct ReplayTarget {
  api::Session* session = nullptr;
  service::JobService* service = nullptr;
  uint16_t port = 0;
  int nodes = 2;
};

/// One job to replay, with the benchmark's own copy of the graph version
/// it runs on (for the reference).
struct ReplayJob {
  api::AppRequest request;
  std::shared_ptr<const Graph> reference_graph;
};

/// Replays `jobs` one at a time: resolve, RunOn with RR on and off (full
/// values checked against the reference and against each other),
/// DistGraph::Build, guidance Acquire warm and uncached, then the same job
/// through the JobService and over TCP.
void ReplayJobs(const ReplayTarget& target, const std::vector<ReplayJob>& jobs,
                SpanRecorder& spans, Report& report, LayerLedger& ledger);

/// Graph-layer and sim-layer probes on a workload's graphs: CSR build,
/// ApplyDelta and guidance repair for a seeded 16-edge size-neutral delta,
/// cluster spawn and one barrier round at `nodes`.
void ProbeLayers(const std::vector<BenchGraph>& graphs, int nodes,
                 int threads, std::mt19937_64& rng, SpanRecorder& spans,
                 LayerLedger& ledger);

/// Provider and cache counters over the traced loop (after minus before).
struct GuidanceCounters {
  uint64_t hits = 0, misses = 0, generations = 0, repairs = 0,
           repair_fallbacks = 0;
  static GuidanceCounters Of(GuidanceProvider& provider);
  GuidanceCounters Minus(const GuidanceCounters& before) const;
};

/// Adds every per-layer metric of BENCHMARK.json to `report`, prints the
/// per-app ledger and the span self times.
void EmitLayerMetrics(Report& report, LayerLedger& ledger,
                      const GuidanceCounters& loop_counters,
                      double trace_overhead_frac, const SpanRecorder& spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
