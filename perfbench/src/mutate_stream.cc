// mutate_stream: writes beside reads. One in-process JobService (defaults,
// guidance store on) and one caller repeating rounds on LJ: a seeded
// size-neutral mutation, then sssp, cc and pr on the new version, each
// waited before the next is submitted.

#include <cstdio>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::string> kReads = {"sssp", "cc", "pr"};
const std::string kGraph = "LJ";
/// Deletions (and as many insertions) per mutation: 16 edge touches.
constexpr size_t kHalfDelta = 8;

/// The timed set-up: graph synthesis, service start, registration, and
/// warm-up of the three reads (first guidance generation, cc's
/// symmetrized variant).
std::unique_ptr<ServiceHost> SetUp(const Options& options, VertexId root,
                                   int index, Report& report,
                                   double* seconds) {
  Clock::time_point t0 = Clock::now();
  BenchGraph bg = LoadAlias(kGraph);
  service::JobServiceOptions sopt;
  sopt.provider.store_dir =
      options.work_dir + "/mutate_store_" + std::to_string(index);
  auto host = std::make_unique<ServiceHost>(sopt);
  Status s = host->service().RegisterGraph(kGraph, Graph::FromEdges(bg.edges));
  if (!s.ok()) report.Ledger("register: " + s.ToString());
  for (const std::string& app : kReads) {
    service::JobRequest request;
    request.tenant = "warmup";
    request.app = app;
    request.graph = kGraph;
    request.root = root;
    report.Attempt(!host->RunJob(request, nullptr), false);
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return host;
}

struct Stream {
  DeltaSource source;
  uint64_t version = 1;  ///< the version the service should be serving
  std::mt19937_64 rng;
};

/// Mutation rounds until `seconds` of operation time has passed. Only the
/// submit-to-complete intervals count; rebuilding the reference graph and
/// checking results happens between them.
LoopResult Loop(ServiceHost& host, Stream& stream, VertexId root,
                double seconds, SpanRecorder& spans, Report& report) {
  LoopResult out;
  double busy_ms = 0;
  uint64_t job = 0;
  while (busy_ms < seconds * 1e3) {
    ScopedSpan round(spans, "mutate.round", -1, ++job);
    service::MutationRequest mutation;
    mutation.graph = kGraph;
    mutation.delta = stream.source.Next(kHalfDelta, stream.rng);
    ++stream.version;
    {
      ScopedSpan span(spans, "service.mutation", round.id(), job);
      Clock::time_point t0 = Clock::now();
      Result<service::JobTicket> ticket =
          host.service().SubmitMutation(mutation);
      bool ok = ticket.ok() && ticket.value()->Wait().status.ok();
      const double ms = MsSince(t0);
      busy_ms += ms;
      bool wrong = ok && ticket.value()->Wait().summary != stream.version;
      report.Attempt(!ok, wrong);
      if (!ok) {
        // The service did not move: stop rather than check reads against a
        // version that does not exist.
        report.Ledger("mutation failed; round aborted");
        break;
      }
      out.mutate_ms.push_back(ms);
    }
    Graph reference = stream.source.CurrentGraph();
    for (const std::string& app : kReads) {
      service::JobRequest request;
      request.app = app;
      request.graph = kGraph;
      request.root = root;
      ScopedSpan span(spans, "service.job", round.id(), job);
      Clock::time_point t0 = Clock::now();
      uint64_t summary = 0;
      bool ok = host.RunJob(request, &summary);
      const double ms = MsSince(t0);
      span.Close();
      busy_ms += ms;
      bool wrong = false;
      if (ok && app != "pr") {  // pr's summary is a work count
        wrong = summary != ComputeExpected(reference, app, root,
                                         request.max_iters).summary;
      }
      report.Attempt(!ok, wrong);
      if (ok && !wrong) out.job_ms.push_back(ms);
    }
  }
  out.busy_s = busy_ms / 1e3;
  out.jobs_ok = out.job_ms.size();
  return out;
}

void LedgerMutations(const std::vector<LoopResult>& loops, Report& report) {
  std::vector<double> mutate_ms;
  for (const LoopResult& loop : loops) {
    mutate_ms.insert(mutate_ms.end(), loop.mutate_ms.begin(),
                     loop.mutate_ms.end());
  }
  Report scratch;
  scratch.Add("mutate_p50_ms", Median(mutate_ms), "ms", mutate_ms.size());
  AddTail(scratch, "mutate_p90_ms", 90, mutate_ms);
  for (const Metric& m : scratch.metrics()) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%s=%.4f %s (n=%llu) %s", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples), m.note.c_str());
    report.Ledger(buf);
  }
}

}  // namespace

void RunMutateStream(const Options& options, Report& report) {
  std::mt19937_64 rng(options.seed);
  BenchGraph bg = LoadAlias(kGraph);
  const VertexId root = PickRoots(Graph::FromEdges(bg.edges), 1, rng)[0];

  std::vector<double> setup_s;
  std::unique_ptr<ServiceHost> host;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    host.reset();
    double s = 0;
    host = SetUp(options, root, i, report, &s);
    setup_s.push_back(s);
  }
  Stream stream{DeltaSource(bg.edges), 1, std::mt19937_64(options.seed + 7)};

  if (!options.trace) {
    SpanRecorder off(false);
    std::vector<LoopResult> segments;
    for (int s = 0; s < kSegments; ++s) {
      segments.push_back(Loop(*host, stream, root,
                              options.seconds / kSegments, off, report));
    }
    AddEndToEnd(report, segments, setup_s);
    LedgerMutations(segments, report);
    return;
  }

  SpanRecorder off(false), spans(true);
  LoopResult untraced =
      Loop(*host, stream, root, options.seconds / 2, off, report);
  GuidanceCounters before = GuidanceCounters::Of(host->service().provider());
  LoopResult traced =
      Loop(*host, stream, root, options.seconds / 2, spans, report);
  GuidanceCounters loop_counters =
      GuidanceCounters::Of(host->service().provider()).Minus(before);
  LedgerMutations({traced}, report);

  // Replay rounds: ApplyDelta on the workload's own next delta, the same
  // delta through the service, then each read replayed on that version.
  LayerLedger ledger;
  ReplayTarget target{&host->service().session(), &host->service(),
                      host->StartNet(), 2};
  for (int r = 0; r < 3; ++r) {
    GraphDelta delta = stream.source.Next(kHalfDelta, stream.rng);
    std::shared_ptr<const Graph> current =
        host->service().session().GetGraph(kGraph);
    {
      ScopedSpan span(spans, "graph.apply_delta", -1, 0);
      Clock::time_point t0 = Clock::now();
      Result<Graph> next = ApplyDelta(*current, delta);
      ledger.Add("graph.apply_delta_ms", MsSince(t0));
    }
    service::MutationRequest mutation;
    mutation.graph = kGraph;
    mutation.delta = delta;
    Result<service::JobTicket> ticket = host->service().SubmitMutation(mutation);
    bool ok = ticket.ok() && ticket.value()->Wait().status.ok();
    report.Attempt(!ok, false);
    if (!ok) break;
    auto reference =
        std::make_shared<const Graph>(stream.source.CurrentGraph());
    std::vector<ReplayJob> jobs;
    for (const std::string& app : kReads) {
      ReplayJob job;
      job.request.app = app;
      job.request.graph = kGraph;
      job.request.root = root;
      job.reference_graph = reference;
      jobs.push_back(job);
    }
    ReplayJobs(target, jobs, spans, report, ledger);
  }
  ProbeLayers({bg}, 2, 1, rng, spans, ledger);
  FinishTrace(options, report, ledger, loop_counters, untraced, traced, spans);
}

}  // namespace perfbench
