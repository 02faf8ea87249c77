#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

// Shared pieces of the perfbench binary: options, the metric report,
// seeded inputs (roots, size-neutral deltas), and the correctness gate
// against the sequential references in slfe/apps/reference.h.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "slfe/api/session.h"
#include "slfe/graph/delta.h"
#include "slfe/graph/edge_list.h"
#include "slfe/graph/graph.h"
#include "spans.h"

namespace perfbench {

using namespace slfe;  // NOLINT: the benchmark drives slfe types throughout

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch space for stores and the trace file (inside the checkout).
  std::string work_dir;
};

/// One reported metric: value, unit, and the sample count behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

/// Everything one invocation reports: the metrics of its mode, the
/// operation counts behind `attempted`/`failed`, and free-form ledger lines
/// (per-app and per-graph breakdowns) printed above the JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples, const std::string& note = "") {
    metrics_.push_back(Metric{name, value, unit, samples, note});
  }
  void Ledger(const std::string& line) { ledger_.push_back(line); }

  /// One operation's outcome: `wrong` = ran but gave a result the
  /// reference rejects; `failed` = rejected or returned an error.
  void Attempt(bool failed, bool wrong) { Count(1, failed, wrong); }
  void Count(uint64_t attempted, uint64_t failed, uint64_t wrong) {
    attempted_ += attempted;
    failed_ += failed;
    wrong_ += wrong;
  }
  /// A correctness check that is not itself an operation (e.g. the
  /// traced replay's RR-on vs RR-off comparison).
  void Mismatch(const std::string& what) {
    ++wrong_;
    Ledger("MISMATCH " + what);
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& ledger() const { return ledger_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_ + wrong_; }
  uint64_t wrong() const { return wrong_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> ledger_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

/// Adds the `tail_percentile` latency of `samples_ms` as `name`, applying
/// the ten-samples-beyond rule (the note says when it fell back).
void AddTail(Report& report, const std::string& name, int tail_percentile,
             const std::vector<double>& samples_ms);

/// Host and build stamp printed ahead of every result.
std::string HostStamp(const Options& options);

/// Peak resident set of this process so far, MiB.
double PeakRssMb();

/// A graph the benchmark drives, kept as edges too so the benchmark can
/// rebuild reference graphs without going through the code under test.
struct BenchGraph {
  std::string name;
  EdgeList edges;
};

/// The alias graphs of bench/bench_util.h's EdgesFor at the default
/// SLFE_BENCH_SCALE.
BenchGraph LoadAlias(const std::string& alias);

/// `count` distinct query roots with at least one out-edge, drawn from
/// `rng`, so every single-source job reaches past its root.
std::vector<VertexId> PickRoots(const Graph& graph, size_t count,
                                std::mt19937_64& rng);

/// Keeps a mutable edge set in step with the served graph and draws
/// size-neutral deltas from it: `half` deletions of existing edges and
/// `half` insertions of absent ones, so |E| never drifts over a run.
class DeltaSource {
 public:
  explicit DeltaSource(const EdgeList& edges);
  GraphDelta Next(size_t half, std::mt19937_64& rng);
  /// The edge set after every delta drawn so far.
  Graph CurrentGraph() const;

 private:
  static uint64_t Key(VertexId s, VertexId d) {
    return (static_cast<uint64_t>(s) << 32) | d;
  }
  VertexId num_vertices_;
  std::vector<Edge> edges_;
  std::unordered_set<uint64_t> present_;
};

/// The reference answer for one (app, graph version, root) query.
struct Expected {
  std::vector<double> values;
  /// AppOutcome::summary a correct run reports; pr/tr report a work count
  /// (early-converged vertices) there instead, so theirs is unchecked.
  uint64_t summary = 0;
  bool summary_checked = true;
};

/// Sequential reference (slfe/apps/reference.h) for a query job on `graph`
/// (the registered, unsymmetrized version; ReferenceCc treats it as
/// undirected).
Expected ComputeExpected(const Graph& graph, const std::string& app,
                         VertexId root, uint32_t max_iters);

/// Full-value check: exact for the min/max apps, and within the tolerance
/// tests/apps_equivalence_test.cc applies to guided pr/tr.
bool ValuesMatch(const std::string& app, const std::vector<double>& got,
                 const std::vector<double>& want);

/// Wall time of a query job minus what the program itself accounts for
/// (guidance acquisition plus the engine's RuntimeSeconds).
double UnaccountedMs(double wall_ms, const api::AppOutcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
