#include "replay.h"

#include <cstdio>

#include "line_client.h"
#include "slfe/api/app_registry.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/sim/cluster.h"
#include "stats.h"

namespace perfbench {

const std::vector<double>& LayerLedger::Samples(
    const std::string& metric) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(metric);
  return it == samples_.end() ? kEmpty : it->second;
}

double LayerLedger::Mean(const std::string& metric) const {
  const std::vector<double>& v = Samples(metric);
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

double LayerLedger::Median(const std::string& metric) const {
  return perfbench::Median(Samples(metric));
}

double LayerLedger::Total(const std::string& metric) const {
  return Sum(Samples(metric));
}

namespace {

/// Times `fn` as a span named `name` under `parent` and returns its ms.
template <typename Fn>
double Timed(SpanRecorder& spans, const std::string& name, int64_t parent,
             uint64_t job, Fn&& fn) {
  ScopedSpan span(spans, name, parent, job);
  Clock::time_point t0 = Clock::now();
  fn();
  return MsSince(t0);
}

}  // namespace

void ReplayJobs(const ReplayTarget& target, const std::vector<ReplayJob>& jobs,
                SpanRecorder& spans, Report& report, LayerLedger& ledger) {
  LineClient client(target.port);
  static uint64_t next_job = 1;
  for (const ReplayJob& job : jobs) {
    const uint64_t id = next_job++;
    const api::AppRequest& request = job.request;
    const std::string key = request.app + "." + request.graph;
    ScopedSpan job_span(spans, "replay.job", -1, id);
    const int64_t parent = job_span.id();

    Expected expected;
    Timed(spans, "bench.reference", parent, id, [&] {
      expected = ComputeExpected(*job.reference_graph, request.app,
                                 request.root, request.max_iters);
    });

    Result<std::shared_ptr<const Graph>> resolved =
        Status::Internal("unresolved");
    ledger.Add("api.resolve_ms", Timed(spans, "api.resolve", parent, id, [&] {
                 resolved = target.session->ResolveGraph(request);
               }));
    if (!resolved.ok()) {
      report.Attempt(true, false);
      report.Ledger("replay resolve failed: " + resolved.status().ToString());
      continue;
    }
    std::shared_ptr<const Graph> graph = resolved.value();

    api::AppOutcome rr, base;
    api::AppRequest base_request = request;
    base_request.enable_rr = false;
    const double rr_ms = Timed(spans, "api.run_on", parent, id, [&] {
      rr = target.session->RunOn(request, graph);
    });
    const double base_ms = Timed(spans, "api.run_on_base", parent, id, [&] {
      base = target.session->RunOn(base_request, graph);
    });
    bool rr_ok = rr.status.ok(), base_ok = base.status.ok();
    report.Attempt(!rr_ok, rr_ok && !ValuesMatch(request.app, rr.values,
                                                 expected.values));
    report.Attempt(!base_ok, base_ok && !ValuesMatch(request.app, base.values,
                                                     expected.values));
    if (rr_ok && base_ok &&
        !ValuesMatch(request.app, rr.values, base.values)) {
      report.Mismatch("RR on vs off for " + key);
    }
    if (!rr_ok || !base_ok) continue;

    const EngineStats& s = rr.info.stats;
    ledger.Add("api.run_ms", rr_ms);
    ledger.Add("api.unaccounted_ms", UnaccountedMs(rr_ms, rr));
    ledger.Add("apps.rr_ms", rr_ms);
    ledger.Add("apps.base_ms", base_ms);
    ledger.Add("engine.runtime_ms", 1e3 * s.RuntimeSeconds());
    ledger.Add("engine.pull_ms", 1e3 * s.pull_seconds);
    ledger.Add("engine.push_ms", 1e3 * s.push_seconds);
    ledger.Add("engine.supersteps", static_cast<double>(rr.info.supersteps));
    ledger.Add("engine.edges_computed", static_cast<double>(s.computations));
    ledger.Add("engine.skipped", static_cast<double>(s.skipped));
    ledger.Add("engine.updates", static_cast<double>(s.updates));
    ledger.Add("engine.imbalance", s.InterNodeImbalance());
    ledger.Add("sim.messages", static_cast<double>(s.messages));
    ledger.Add("sim.bytes", static_cast<double>(s.bytes));
    ledger.Add("sim.comm_model_ms", 1e3 * s.comm_seconds);
    LayerLedger::Row& row = ledger.rows()[key];
    ++row.jobs;
    row.rr_ms += rr_ms;
    row.base_ms += base_ms;
    row.unaccounted_ms += UnaccountedMs(rr_ms, rr);
    row.guidance_ms += 1e3 * rr.info.guidance_seconds;
    row.engine_ms += 1e3 * s.RuntimeSeconds();
    row.supersteps += rr.info.supersteps;

    ledger.Add("engine.distgraph_build_ms",
               Timed(spans, "engine.distgraph_build", parent, id, [&] {
                 DistGraph dg = DistGraph::Build(*graph, target.nodes);
                 (void)dg;
               }));
    const api::AppDescriptor* app = api::AppRegistry::Global().Find(request.app);
    GuidanceRequest guidance;
    guidance.policy = app->root_policy;
    guidance.root = request.root;
    GuidanceProvider& provider = target.session->provider();
    ledger.Add("core.acquire_hit_ms",
               Timed(spans, "core.acquire_hit", parent, id,
                     [&] { provider.Acquire(*graph, guidance); }));
    guidance.use_cache = false;
    ledger.Add("core.generate_ms",
               Timed(spans, "core.generate", parent, id,
                     [&] { provider.Acquire(*graph, guidance); }));

    service::JobRequest job_request;
    job_request.tenant = "replay";
    job_request.app = request.app;
    job_request.graph = request.graph;
    job_request.root = request.root;
    job_request.max_iters = request.max_iters;
    bool service_ok = false;
    const double service_ms = Timed(spans, "service.job", parent, id, [&] {
      Result<service::JobTicket> ticket =
          target.service->Submit(job_request);
      if (!ticket.ok()) return;
      const service::JobResult& result = ticket.value()->Wait();
      service_ok = result.status.ok() &&
                   (!expected.summary_checked ||
                    result.summary == expected.summary);
    });
    report.Attempt(!service_ok, false);
    ledger.Add("service.overhead_ms", service_ms - rr_ms);

    std::string line;
    const double net_ms = Timed(spans, "net.job", parent, id, [&] {
      line = client.SubmitAndWait("submit replay " + request.app + " " +
                                  request.graph + " " +
                                  std::to_string(request.root) + "\n");
    });
    const bool net_ok =
        line.rfind("job ", 0) == 0 && Field(line, "status") == "ok";
    report.Attempt(!net_ok, net_ok && !SummaryMatches(line, expected));
    ledger.Add("net.overhead_ms", net_ms - service_ms);
  }
}

void ProbeLayers(const std::vector<BenchGraph>& graphs, int nodes,
                 int threads, std::mt19937_64& rng, SpanRecorder& spans,
                 LayerLedger& ledger) {
  constexpr int kReps = 3;
  for (const BenchGraph& g : graphs) {
    ScopedSpan probe(spans, "probe." + g.name, -1, 0);
    auto base = std::make_shared<const Graph>(Graph::FromEdges(g.edges));
    for (int i = 0; i < kReps; ++i) {
      ledger.Add("graph.csr_build_ms",
                 Timed(spans, "graph.csr_build", probe.id(), 0, [&] {
                   Graph copy = Graph::FromEdges(g.edges);
                   (void)copy;
                 }));
    }
    DeltaSource source(g.edges);
    std::vector<VertexId> roots = PickRoots(*base, kReps, rng);
    for (int i = 0; i < kReps; ++i) {
      auto delta = std::make_shared<const GraphDelta>(source.Next(8, rng));
      Result<Graph> next = Status::Internal("unapplied");
      ledger.Add("graph.apply_delta_ms",
                 Timed(spans, "graph.apply_delta", probe.id(), 0,
                       [&] { next = ApplyDelta(*base, *delta); }));
      if (!next.ok()) continue;
      // A private provider, so the probe leaves the workload's cache as
      // the loop left it.
      GuidanceProvider provider;
      GuidanceRequest request;
      request.policy = GuidanceRootPolicy::kSingleSource;
      request.root = roots[static_cast<size_t>(i)];
      provider.Acquire(*base, request);
      provider.RecordMutation(base, next.value(), delta);
      GuidanceAcquisition acquisition;
      ledger.Add("core.repair_ms",
                 Timed(spans, "core.repair", probe.id(), 0, [&] {
                   acquisition = provider.Acquire(next.value(), request);
                 }));
      ledger.Add("core.repair_probe_repaired", acquisition.repaired ? 1 : 0);
    }
  }

  ScopedSpan probe(spans, "probe.sim", -1, 0);
  for (int i = 0; i < 10; ++i) {
    ledger.Add("sim.cluster_spawn_ms",
               Timed(spans, "sim.cluster_spawn", probe.id(), 0, [&] {
                 sim::Cluster cluster(nodes, threads);
                 cluster.Run([](sim::NodeContext&) {});
               }));
  }
  constexpr int kRounds = 200;
  for (int i = 0; i < 5; ++i) {
    sim::Cluster cluster(nodes, threads);
    double per_barrier_us = 0;
    Timed(spans, "sim.barrier_x200", probe.id(), 0, [&] {
      cluster.Run([&](sim::NodeContext& ctx) {
        ctx.world->Barrier();
        Clock::time_point t0 = Clock::now();
        for (int r = 0; r < kRounds; ++r) ctx.world->Barrier();
        if (ctx.rank == 0) per_barrier_us = 1e3 * MsSince(t0) / kRounds;
      });
    });
    ledger.Add("sim.barrier_us", per_barrier_us);
  }
}

GuidanceCounters GuidanceCounters::Of(GuidanceProvider& provider) {
  GuidanceCounters c;
  GuidanceCacheStats cache = provider.cache_stats();
  GuidanceProviderStats stats = provider.stats();
  c.hits = cache.hits;
  c.misses = cache.misses;
  c.generations = stats.generations;
  c.repairs = stats.repairs;
  c.repair_fallbacks = stats.repair_fallbacks;
  return c;
}

GuidanceCounters GuidanceCounters::Minus(const GuidanceCounters& b) const {
  GuidanceCounters c;
  c.hits = hits - b.hits;
  c.misses = misses - b.misses;
  c.generations = generations - b.generations;
  c.repairs = repairs - b.repairs;
  c.repair_fallbacks = repair_fallbacks - b.repair_fallbacks;
  return c;
}

void EmitLayerMetrics(Report& report, LayerLedger& ledger,
                      const GuidanceCounters& loop, double trace_overhead_frac,
                      const SpanRecorder& spans) {
  auto n = [&](const std::string& m) { return ledger.Samples(m).size(); };
  auto median = [&](const std::string& m, const std::string& unit) {
    report.Add(m, ledger.Median(m), unit, n(m), "median");
  };
  auto mean = [&](const std::string& m, const std::string& unit) {
    report.Add(m, ledger.Mean(m), unit, n(m), "mean per replayed job");
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  median("graph.csr_build_ms", "ms");
  median("graph.apply_delta_ms", "ms");
  mean("api.resolve_ms", "ms");
  mean("api.run_ms", "ms");
  mean("api.unaccounted_ms", "ms");
  report.Add("api.unaccounted_frac",
             ratio(ledger.Total("api.unaccounted_ms"),
                   ledger.Total("api.run_ms")),
             "ratio", n("api.run_ms"), "sum unaccounted / sum RunOn wall");
  median("core.acquire_hit_ms", "ms");
  median("core.generate_ms", "ms");
  median("core.repair_ms", "ms");
  report.Add("core.hit_ratio",
             ratio(static_cast<double>(loop.hits),
                   static_cast<double>(loop.hits + loop.misses)),
             "ratio", loop.hits + loop.misses, "cache hits / lookups, loop");
  report.Add("core.generations", static_cast<double>(loop.generations),
             "count", 1, "over the traced loop");
  report.Add("core.repairs", static_cast<double>(loop.repairs), "count", 1,
             "over the traced loop");
  report.Add("core.repair_fallbacks",
             static_cast<double>(loop.repair_fallbacks), "count", 1,
             "over the traced loop");
  median("engine.distgraph_build_ms", "ms");
  mean("engine.runtime_ms", "ms");
  mean("engine.pull_ms", "ms");
  mean("engine.push_ms", "ms");
  mean("engine.supersteps", "count");
  mean("engine.edges_computed", "count");
  mean("engine.skipped", "count");
  mean("engine.updates", "count");
  report.Add("engine.useful_ratio",
             ratio(ledger.Total("engine.updates"),
                   ledger.Total("engine.edges_computed")),
             "ratio", n("engine.updates"), "updates / edges computed");
  mean("engine.imbalance", "ratio");
  report.Add("apps.rr_ratio",
             ratio(ledger.Total("apps.base_ms"), ledger.Total("apps.rr_ms")),
             "ratio", n("apps.rr_ms"), "sum RR-off wall / sum RR-on wall");
  median("sim.cluster_spawn_ms", "ms");
  median("sim.barrier_us", "us");
  mean("sim.messages", "count");
  mean("sim.bytes", "count");
  mean("sim.comm_model_ms", "ms");
  median("service.overhead_ms", "ms");
  median("net.overhead_ms", "ms");
  report.Add("trace.overhead_frac", trace_overhead_frac, "ratio", 2,
             "untraced / traced loop jobs per second, minus 1");

  char buf[400];
  for (auto& [key, row] : ledger.rows()) {
    std::snprintf(buf, sizeof(buf),
                  "replay %-9s api.unaccounted_frac.%s=%.3f "
                  "apps.rr_ratio.%s=%.3f jobs=%llu rr_ms=%.3f base_ms=%.3f "
                  "guidance_ms=%.3f engine_ms=%.3f supersteps=%.1f",
                  key.c_str(), key.c_str(),
                  ratio(row.unaccounted_ms, row.rr_ms), key.c_str(),
                  ratio(row.base_ms, row.rr_ms),
                  static_cast<unsigned long long>(row.jobs),
                  row.rr_ms / row.jobs, row.base_ms / row.jobs,
                  row.guidance_ms / row.jobs, row.engine_ms / row.jobs,
                  static_cast<double>(row.supersteps) / row.jobs);
    report.Ledger(buf);
  }
  const double repaired = ledger.Total("core.repair_probe_repaired");
  std::snprintf(buf, sizeof(buf),
                "ledger core.repair_ms probe: %.0f of %zu acquisitions took "
                "the repair path",
                repaired, n("core.repair_ms"));
  report.Ledger(buf);
  for (const auto& [name, t] : spans.SelfTimes()) {
    std::snprintf(buf, sizeof(buf),
                  "self %-24s count=%-5llu total_ms=%10.3f self_ms=%10.3f",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    report.Ledger(buf);
  }
}

}  // namespace perfbench
