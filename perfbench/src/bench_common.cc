#include "bench_common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>

#include "bench/bench_util.h"
#include "slfe/apps/reference.h"
#include "slfe/common/version.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void AddTail(Report& report, const std::string& name, int tail_percentile,
             const std::vector<double>& samples_ms) {
  TailPercentile tail = Tail(samples_ms, tail_percentile);
  std::string note;
  if (tail.fell_back) {
    note = "p" + std::to_string(tail.percentile) + " reported: p" +
           std::to_string(tail_percentile) + " needs " +
           std::to_string(100 * 10 / (100 - tail_percentile)) +
           " samples for ten beyond it";
  }
  if (!tail.resolved) note += " (unresolved: fewer than 20 samples)";
  report.Add(name, tail.value, "ms", tail.samples, note);
}

std::string HostStamp(const Options& options) {
  std::string out = "host: nproc=" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += " compiler=\"" __VERSION__ "\" build=" PERFBENCH_BUILD_TYPE;
  out += " commit=" + std::string(slfe::BuildCommit());
  out += " version=" + std::string(slfe::BuildVersion());
  out += " SLFE_BENCH_SCALE=" + std::to_string(slfe::bench::ScaleDivisor());
  out += " workload=" + options.workload;
  out += " seed=" + std::to_string(options.seed);
  out += " seconds=" + std::to_string(options.seconds);
  out += " trace=" + std::to_string(options.trace ? 1 : 0);
  return out;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

BenchGraph LoadAlias(const std::string& alias) {
  return BenchGraph{alias, slfe::bench::EdgesFor(alias)};
}

std::vector<VertexId> PickRoots(const Graph& graph, size_t count,
                                std::mt19937_64& rng) {
  std::uniform_int_distribution<VertexId> pick(0, graph.num_vertices() - 1);
  std::set<VertexId> chosen;
  std::vector<VertexId> roots;
  while (roots.size() < count) {
    VertexId v = pick(rng);
    if (graph.out_degree(v) == 0 || !chosen.insert(v).second) continue;
    roots.push_back(v);
  }
  return roots;
}

DeltaSource::DeltaSource(const EdgeList& edges)
    : num_vertices_(edges.num_vertices()), edges_(edges.edges()) {
  present_.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) present_.insert(Key(e.src, e.dst));
}

GraphDelta DeltaSource::Next(size_t half, std::mt19937_64& rng) {
  GraphDelta delta;
  // Deletions first, from the current set (the generator dedups, so one
  // erased pair removes exactly one edge).
  for (size_t i = 0; i < half && !edges_.empty(); ++i) {
    std::uniform_int_distribution<size_t> pick(0, edges_.size() - 1);
    size_t at = pick(rng);
    const Edge e = edges_[at];
    delta.erase.emplace_back(e.src, e.dst);
    present_.erase(Key(e.src, e.dst));
    edges_[at] = edges_.back();
    edges_.pop_back();
  }
  std::uniform_int_distribution<VertexId> vertex(0, num_vertices_ - 1);
  std::uniform_int_distribution<int> weight(1, 256);
  while (delta.insert.size() < half) {
    VertexId s = vertex(rng), d = vertex(rng);
    // Also skip pairs erased by this very delta: ApplyDelta deletes before
    // it inserts, so re-adding one would be legal, but keeping the two
    // sides disjoint makes every delta unambiguous.
    if (s == d || present_.count(Key(s, d)) != 0) continue;
    bool erased_now = false;
    for (const auto& pair : delta.erase) {
      erased_now |= pair.first == s && pair.second == d;
    }
    if (erased_now) continue;
    Edge e{s, d, static_cast<Weight>(weight(rng))};
    delta.insert.push_back(e);
    present_.insert(Key(s, d));
    edges_.push_back(e);
  }
  return delta;
}

Graph DeltaSource::CurrentGraph() const {
  EdgeList list(num_vertices_);
  list.mutable_edges() = edges_;
  return Graph::FromEdges(list);
}

Expected ComputeExpected(const Graph& graph, const std::string& app,
                         VertexId root, uint32_t max_iters) {
  Expected out;
  auto widen = [](const auto& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  if (app == "sssp") {
    std::vector<float> d = ReferenceSssp(graph, root);
    for (float x : d) out.summary += x < std::numeric_limits<float>::infinity();
    out.values = widen(d);
  } else if (app == "wp") {
    std::vector<float> w = ReferenceWp(graph, root);
    for (float x : w) out.summary += x > 0;
    out.values = widen(w);
  } else if (app == "bfs") {
    std::vector<uint32_t> l = ReferenceBfs(graph, root);
    uint32_t depth = 0;
    for (uint32_t x : l) {
      if (x != UINT32_MAX) depth = std::max(depth, x);
    }
    out.summary = depth;
    out.values = widen(l);
  } else if (app == "cc") {
    std::vector<uint32_t> l = ReferenceCc(graph);
    out.summary = std::set<uint32_t>(l.begin(), l.end()).size();
    out.values = widen(l);
  } else if (app == "pr") {
    out.values = widen(ReferencePr(graph, max_iters));
    out.summary_checked = false;
  } else if (app == "tr") {
    out.values = widen(ReferenceTr(graph, max_iters));
    out.summary_checked = false;
  } else {
    std::fprintf(stderr, "perfbench: no reference for app %s\n", app.c_str());
    std::exit(2);
  }
  return out;
}

bool ValuesMatch(const std::string& app, const std::vector<double>& got,
                 const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  // Guided pr/tr freeze early-converged vertices; the test suite bounds
  // their drift from the exact power iteration at 5e-3.
  const bool arithmetic = app == "pr" || app == "tr";
  for (size_t i = 0; i < got.size(); ++i) {
    if (arithmetic) {
      if (!(std::fabs(got[i] - want[i]) <= 5e-3)) return false;
    } else if (got[i] != want[i]) {
      return false;
    }
  }
  return true;
}

double UnaccountedMs(double wall_ms, const api::AppOutcome& outcome) {
  return wall_ms - 1e3 * (outcome.info.guidance_seconds +
                          outcome.info.stats.RuntimeSeconds());
}

}  // namespace perfbench
