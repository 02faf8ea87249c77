// solve_deep: one in-process api::Session at 4 nodes x 1 thread and one
// sequential caller running a fixed list of long jobs, alternating a pass
// with RR on and a pass with RR off, guidance warm.

#include <cstdio>
#include <map>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::string> kApps = {"sssp", "bfs", "wp", "pr", "tr"};
const std::vector<std::string> kGraphs = {"GRID", "LJ"};
constexpr int kNodes = 4;
/// Roots per graph; pass pair k uses root k mod this, so a run averages
/// over many query depths (a GRID root's depth varies twofold between a
/// corner and the centre). 12 x 2 graphs + pr's guidance fit the
/// provider's 32-entry cache, so the loop never regenerates.
constexpr size_t kRootsPerGraph = 12;

bool SingleSource(const std::string& app) {
  return app == "sssp" || app == "bfs" || app == "wp";
}

struct Inputs {
  std::vector<BenchGraph> graphs;
  std::map<std::string, std::shared_ptr<const Graph>> reference;
  std::map<std::string, std::vector<VertexId>> roots;
  /// app/graph/root-index -> reference answer.
  std::map<std::string, Expected> expected;
};

std::string Key(const std::string& app, const std::string& graph,
                size_t root_index) {
  return app + "/" + graph + "/" +
         std::to_string(SingleSource(app) ? root_index : 0);
}

api::SessionOptions SessionShape() {
  api::SessionOptions opt;
  opt.num_nodes = kNodes;
  opt.threads_per_node = 1;
  return opt;
}

/// The timed set-up: graph synthesis, registration, and the first
/// guidance generation for every root and policy the list uses.
std::unique_ptr<api::Session> SetUp(const Inputs& in, Report& report,
                                    double* seconds) {
  Clock::time_point t0 = Clock::now();
  auto session = std::make_unique<api::Session>(SessionShape());
  for (const std::string& g : kGraphs) {
    BenchGraph bg = LoadAlias(g);
    Status s = session->AddGraph(g, Graph::FromEdges(bg.edges));
    if (!s.ok()) report.Ledger("register " + g + ": " + s.ToString());
    std::shared_ptr<const Graph> graph = session->GetGraph(g);
    if (graph == nullptr) continue;
    GuidanceRequest request;
    request.policy = GuidanceRootPolicy::kSingleSource;
    for (VertexId root : in.roots.at(g)) {
      request.root = root;
      report.Attempt(!session->provider().Acquire(*graph, request), false);
    }
    request.policy = GuidanceRootPolicy::kSourceVertices;  // pr and tr
    report.Attempt(!session->provider().Acquire(*graph, request), false);
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return session;
}

/// Pass wall times and per-job times by (app, graph), for the report lines.
struct PassLog {
  std::vector<double> rr_pass_s, base_pass_s;
  std::map<std::string, std::vector<double>> rr_ms, base_ms;  // per app.graph
};

/// Runs pass pairs (RR on, then RR off, same roots) until `seconds` of
/// job time has passed; a started pair always finishes. `*pair` carries the
/// root rotation from one call to the next.
LoopResult Loop(const Inputs& in, api::Session& session, double seconds,
                size_t* pair, PassLog* log, SpanRecorder& spans,
                Report& report) {
  LoopResult out;
  double busy_ms = 0;
  uint64_t job = 0;
  for (; busy_ms < seconds * 1e3; ++*pair) {
    const size_t root_index = *pair % kRootsPerGraph;
    for (bool rr : {true, false}) {
      ScopedSpan pass(spans, rr ? "solve.pass_rr" : "solve.pass_base", -1, 0);
      double pass_ms = 0;
      for (const std::string& app : kApps) {
        for (const std::string& g : kGraphs) {
          api::AppRequest request;
          request.app = app;
          request.graph = g;
          request.root = in.roots.at(g)[root_index];
          request.enable_rr = rr;
          ScopedSpan span(spans, "api.run", pass.id(), ++job);
          Clock::time_point t0 = Clock::now();
          api::AppOutcome outcome = session.Run(request);
          const double ms = MsSince(t0);
          span.Close();
          pass_ms += ms;
          const bool failed = !outcome.status.ok();
          const bool wrong =
              !failed &&
              !ValuesMatch(app, outcome.values,
                           in.expected.at(Key(app, g, root_index)).values);
          report.Attempt(failed, wrong);
          if (failed || wrong) continue;
          out.job_ms.push_back(ms);
          (rr ? log->rr_ms : log->base_ms)[app + "." + g].push_back(ms);
        }
      }
      busy_ms += pass_ms;
      (rr ? log->rr_pass_s : log->base_pass_s).push_back(pass_ms / 1e3);
    }
  }
  out.busy_s = busy_ms / 1e3;
  out.jobs_ok = out.job_ms.size();
  return out;
}

void LedgerPasses(const PassLog& r, Report& report) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "solve_rr_s=%.4f s (n=%zu)  solve_base_s=%.4f s (n=%zu)  "
                "median pass wall time",
                Median(r.rr_pass_s), r.rr_pass_s.size(), Median(r.base_pass_s),
                r.base_pass_s.size());
  report.Ledger(buf);
  for (const auto& [key, rr] : r.rr_ms) {
    auto it = r.base_ms.find(key);
    if (it == r.base_ms.end()) continue;
    std::snprintf(buf, sizeof(buf),
                  "apps.rr_ratio.%s=%.3f (median base_ms=%.3f / median "
                  "rr_ms=%.3f, n=%zu)",
                  key.c_str(), Median(it->second) / Median(rr),
                  Median(it->second), Median(rr), rr.size());
    report.Ledger(buf);
  }
}

}  // namespace

void RunSolveDeep(const Options& options, Report& report) {
  Inputs in;
  std::mt19937_64 rng(options.seed);
  for (const std::string& g : kGraphs) {
    BenchGraph bg = LoadAlias(g);
    auto graph = std::make_shared<const Graph>(Graph::FromEdges(bg.edges));
    in.roots[g] = PickRoots(*graph, kRootsPerGraph, rng);
    for (const std::string& app : kApps) {
      size_t n = SingleSource(app) ? kRootsPerGraph : 1;
      for (size_t i = 0; i < n; ++i) {
        in.expected[Key(app, g, i)] =
            ComputeExpected(*graph, app, in.roots[g][i],
                            api::AppRequest{}.max_iters);
      }
    }
    in.reference[g] = graph;
    in.graphs.push_back(std::move(bg));
  }

  std::vector<double> setup_s;
  std::unique_ptr<api::Session> session;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    session.reset();
    double s = 0;
    session = SetUp(in, report, &s);
    setup_s.push_back(s);
  }

  size_t pair = 0;
  if (!options.trace) {
    SpanRecorder off(false);
    PassLog log;
    std::vector<LoopResult> segments;
    for (int s = 0; s < kSegments; ++s) {
      segments.push_back(Loop(in, *session, options.seconds / kSegments, &pair,
                              &log, off, report));
    }
    AddEndToEnd(report, segments, setup_s);
    LedgerPasses(log, report);
    return;
  }

  SpanRecorder off(false), spans(true);
  PassLog untraced_log, traced_log;
  LoopResult untraced = Loop(in, *session, options.seconds / 2, &pair,
                             &untraced_log, off, report);
  GuidanceCounters before = GuidanceCounters::Of(session->provider());
  LoopResult traced = Loop(in, *session, options.seconds / 2, &pair,
                           &traced_log, spans, report);
  GuidanceCounters loop_counters =
      GuidanceCounters::Of(session->provider()).Minus(before);
  LedgerPasses(traced_log, report);

  // The service and net overheads need a JobService of the same shape; it
  // gets its own copies of the graphs and is warmed before the replay.
  service::JobServiceOptions sopt;
  sopt.job_nodes = kNodes;
  sopt.job_threads = 1;
  ServiceHost host(sopt);
  for (const BenchGraph& g : in.graphs) {
    host.service().RegisterGraph(g.name, Graph::FromEdges(g.edges));
  }
  std::vector<ReplayJob> jobs;
  for (const std::string& app : kApps) {
    for (const std::string& g : kGraphs) {
      ReplayJob job;
      job.request.app = app;
      job.request.graph = g;
      job.request.root = in.roots[g][0];
      job.reference_graph = in.reference[g];
      jobs.push_back(job);
      service::JobRequest warm;
      warm.app = app;
      warm.graph = g;
      warm.root = job.request.root;
      report.Attempt(!host.RunJob(warm, nullptr), false);
    }
  }
  LayerLedger ledger;
  ReplayTarget target{session.get(), &host.service(), host.StartNet(),
                      kNodes};
  ReplayJobs(target, jobs, spans, report, ledger);
  ProbeLayers(in.graphs, kNodes, 1, rng, spans, ledger);
  FinishTrace(options, report, ledger, loop_counters, untraced, traced,
              spans);
}

}  // namespace perfbench
