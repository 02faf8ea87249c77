// serve_mix: the daemon as shipped (slfe_server defaults: 2 workers, 2
// simulated nodes, job tracing on, a guidance store) behind its TCP front
// end, with 4 closed-loop connections, one tenant each, submitting a seeded
// mix of six apps over PK and LJ with RR on and guidance warm.

#include <algorithm>
#include <map>
#include <thread>

#include "line_client.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::string> kApps = {"sssp", "bfs", "wp", "cc", "pr", "tr"};
const std::vector<std::string> kGraphs = {"PK", "LJ"};
constexpr size_t kRootsPerGraph = 8;
constexpr int kClients = 4;

bool SingleSource(const std::string& app) {
  return app == "sssp" || app == "bfs" || app == "wp";
}

std::string JobKey(const std::string& app, const std::string& graph,
                   VertexId root) {
  return app + "/" + graph + "/" + std::to_string(SingleSource(app) ? root : 0);
}

struct Inputs {
  std::vector<BenchGraph> graphs;
  std::map<std::string, std::shared_ptr<const Graph>> reference;
  std::map<std::string, std::vector<VertexId>> roots;
  std::map<std::string, Expected> expected;
};

/// The timed set-up: graph synthesis, service start, registration, the TCP
/// listener, and warm-up (first guidance generation per root and policy,
/// cc's symmetrized variant).
std::unique_ptr<ServiceHost> SetUp(const Options& options, const Inputs& in,
                                   int index, Report& report,
                                   double* seconds) {
  Clock::time_point t0 = Clock::now();
  std::vector<BenchGraph> graphs;
  for (const std::string& g : kGraphs) graphs.push_back(LoadAlias(g));
  service::JobServiceOptions sopt;  // the slfe_server defaults
  sopt.provider.store_dir =
      options.work_dir + "/serve_store_" + std::to_string(index);
  auto host = std::make_unique<ServiceHost>(sopt);
  for (BenchGraph& g : graphs) {
    Status s = host->service().RegisterGraph(g.name, Graph::FromEdges(g.edges));
    if (!s.ok()) report.Ledger("register " + g.name + ": " + s.ToString());
  }
  report.Attempt(host->StartNet() == 0, false);
  for (const std::string& g : kGraphs) {
    std::vector<std::string> warm = {"cc", "pr"};
    for (VertexId root : in.roots.at(g)) {
      service::JobRequest request;
      request.tenant = "warmup";
      request.app = "sssp";  // bfs and wp share the per-root guidance
      request.graph = g;
      request.root = root;
      report.Attempt(!host->RunJob(request, nullptr), false);
    }
    for (const std::string& app : warm) {  // tr shares pr's guidance
      service::JobRequest request;
      request.tenant = "warmup";
      request.app = app;
      request.graph = g;
      report.Attempt(!host->RunJob(request, nullptr), false);
    }
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return host;
}

/// Closed loop: each connection sends one submit, waits for its streamed
/// completion, and only then sends the next.
LoopResult Loop(const Options& options, const Inputs& in, uint16_t port,
                double seconds, uint64_t salt, SpanRecorder& spans,
                Report& report) {
  struct ClientOut {
    std::vector<double> ms;
    uint64_t attempted = 0, failed = 0, wrong = 0;
    double end_s = 0;
  };
  std::vector<ClientOut> outs(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOut& out = outs[static_cast<size_t>(c)];
      std::mt19937_64 rng(options.seed * 1000003 + salt * 101 + c);
      LineClient client(port);
      const std::string tenant = "tenant" + std::to_string(c);
      uint64_t job = 0;
      // A shuffled deck of every (app, graph) pair, redealt when empty:
      // the seed sets the order and the roots, never the mix's make-up.
      std::vector<std::pair<std::string, std::string>> deck;
      while (client.connected() && Clock::now() < deadline) {
        if (deck.empty()) {
          for (const std::string& a : kApps) {
            for (const std::string& g : kGraphs) deck.emplace_back(a, g);
          }
          std::shuffle(deck.begin(), deck.end(), rng);
        }
        const auto [app, graph] = deck.back();
        deck.pop_back();
        const std::vector<VertexId>& roots = in.roots.at(graph);
        VertexId root = roots[rng() % roots.size()];
        const std::string line = "submit " + tenant + " " + app + " " +
                                 graph + " " + std::to_string(root) + "\n";
        ScopedSpan span(spans, "net.client_job", -1,
                        (static_cast<uint64_t>(c) << 32) | ++job);
        Clock::time_point t0 = Clock::now();
        std::string reply = client.SubmitAndWait(line);
        double ms = MsSince(t0);
        span.Close();
        ++out.attempted;
        if (reply.rfind("job ", 0) != 0 || Field(reply, "status") != "ok") {
          ++out.failed;
          if (reply.empty()) break;
          continue;
        }
        if (!SummaryMatches(reply, in.expected.at(JobKey(app, graph, root)))) {
          ++out.wrong;
          continue;
        }
        out.ms.push_back(ms);
      }
      if (!client.connected()) {
        ++out.attempted;
        ++out.failed;
      }
      client.Send("quit\n");
      out.end_s = std::chrono::duration<double>(Clock::now() - start).count();
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult result;
  for (const ClientOut& out : outs) {
    result.job_ms.insert(result.job_ms.end(), out.ms.begin(), out.ms.end());
    result.busy_s = std::max(result.busy_s, out.end_s);
    report.Count(out.attempted, out.failed, out.wrong);
  }
  result.jobs_ok = result.job_ms.size();
  return result;
}

}  // namespace

void RunServeMix(const Options& options, Report& report) {
  Inputs in;
  std::mt19937_64 rng(options.seed);
  for (const std::string& g : kGraphs) {
    BenchGraph bg = LoadAlias(g);
    auto graph = std::make_shared<const Graph>(Graph::FromEdges(bg.edges));
    in.roots[g] = PickRoots(*graph, kRootsPerGraph, rng);
    for (const std::string& app : kApps) {
      std::vector<VertexId> roots =
          SingleSource(app) ? in.roots[g] : std::vector<VertexId>{0};
      for (VertexId root : roots) {
        in.expected[JobKey(app, g, root)] = ComputeExpected(
            *graph, app, root, service::JobRequest{}.max_iters);
      }
    }
    in.reference[g] = graph;
    in.graphs.push_back(std::move(bg));
  }

  std::vector<double> setup_s;
  std::unique_ptr<ServiceHost> host;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    host.reset();  // the previous set-up's service, before timing the next
    double s = 0;
    host = SetUp(options, in, i, report, &s);
    setup_s.push_back(s);
  }
  const uint16_t port = host->port();

  if (!options.trace) {
    SpanRecorder off(false);
    std::vector<LoopResult> segments;
    for (int s = 0; s < kSegments; ++s) {
      segments.push_back(
          Loop(options, in, port, options.seconds / kSegments, s, off, report));
    }
    AddEndToEnd(report, segments, setup_s);
    return;
  }

  SpanRecorder off(false), spans(true);
  LoopResult untraced =
      Loop(options, in, port, options.seconds / 2, kSegments, off, report);
  GuidanceCounters before = GuidanceCounters::Of(host->service().provider());
  LoopResult traced =
      Loop(options, in, port, options.seconds / 2, kSegments + 1, spans, report);
  GuidanceCounters loop_counters =
      GuidanceCounters::Of(host->service().provider()).Minus(before);

  LayerLedger ledger;
  ReplayTarget target{&host->service().session(), &host->service(), port, 2};
  std::vector<ReplayJob> jobs;
  for (const std::string& g : kGraphs) {
    for (const std::string& app : kApps) {
      ReplayJob job;
      job.request.app = app;
      job.request.graph = g;
      job.request.root = in.roots[g][0];
      job.reference_graph = in.reference[g];
      jobs.push_back(job);
    }
  }
  ReplayJobs(target, jobs, spans, report, ledger);
  ProbeLayers(in.graphs, 2, 1, rng, spans, ledger);
  FinishTrace(options, report, ledger, loop_counters, untraced, traced, spans);
}

}  // namespace perfbench
