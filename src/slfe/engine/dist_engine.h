#ifndef SLFE_ENGINE_DIST_ENGINE_H_
#define SLFE_ENGINE_DIST_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "slfe/common/bitmap.h"
#include "slfe/common/logging.h"
#include "slfe/common/timer.h"
#include "slfe/common/work_stealing.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/sim/cluster.h"

namespace slfe {

/// Which propagation direction a superstep ran in (paper §3.3).
enum class Mode { kPush, kPull };

/// Per-destination decision returned by a pull filter (the RR hook).
enum class PullAction {
  kSkip,          ///< bypass this vertex entirely ("start late" delay)
  kGatherActive,  ///< aggregate contributions of active in-neighbors only
  kGatherAll,     ///< aggregate ALL in-neighbors (first unlocked iteration,
                  ///< arithmetic apps, safety sweep)
};

/// How ProcessEdges chooses the direction each superstep.
enum class ModePolicy {
  kAdaptive,    ///< Gemini rule: pull (dense) when active out-edges > |E|*f
  kAlwaysPull,  ///< arithmetic apps always pull (paper footnote 2)
  kAlwaysPush,
};

/// What to reactivate when the engine transitions pull -> push. RR may
/// deactivate vertices whose latest value was never observed by skipped
/// successors, so the transition push must re-deliver values (paper
/// Algorithm 3's activateAllVertices). `kDirty` is the precise variant:
/// only vertices whose value changed since their last push are revived —
/// it produces the "small amount of immediate computations" bump the paper
/// circles in Fig. 9a. `kAll` is the paper's literal (conservative) rule.
enum class TransitionReactivation { kNone, kDirty, kAll };

struct EngineOptions {
  ModePolicy mode_policy = ModePolicy::kAdaptive;
  /// Active-out-edge fraction above which the engine runs dense/pull
  /// (Gemini uses |E|/20).
  double dense_fraction = 0.05;
  /// Mini-chunk work stealing inside a node (paper §3.6). Disable for the
  /// Fig. 10a ablation.
  bool enable_work_stealing = true;
  /// Pull->push correctness rule; kNone for the non-RR baseline.
  TransitionReactivation reactivation = TransitionReactivation::kNone;
  /// Virtual network cost model for the simulated cluster.
  sim::CostModel cost_model;
  /// RR guidance for this engine's runs, typically acquired through the
  /// GuidanceProvider (apps thread it here via MakeEngineOptions). Runners
  /// constructed without explicit guidance read it off the engine; null =
  /// the Gemini baseline. Shared ownership keeps the guidance alive even
  /// if the provider's cache evicts it mid-run.
  std::shared_ptr<const RRGuidance> guidance;
};

/// Aggregate statistics of one engine run. Counter definitions follow the
/// paper: `computations` = edge aggregation evaluations (Fig. 9),
/// `updates` = vertex property overwrites (Table 2), `skipped` =
/// evaluations bypassed by redundancy reduction.
struct EngineStats {
  uint64_t iterations = 0;
  double pull_seconds = 0;
  double push_seconds = 0;
  double comm_seconds = 0;  ///< simulated network time (BSP max per step)
  uint64_t computations = 0;
  uint64_t updates = 0;
  uint64_t skipped = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::vector<uint64_t> per_iter_computations;  ///< Fig. 9 series
  std::vector<Mode> per_iter_mode;
  std::vector<double> node_compute_seconds;   ///< per-rank wall time
  std::vector<uint64_t> node_computations;    ///< per-rank work, Fig. 10b
  std::vector<uint64_t> per_thread_chunks;    ///< stealing diag, Fig. 10a

  /// Wall compute time plus simulated communication time — the quantity
  /// reported as "runtime" in the distributed benchmarks.
  double RuntimeSeconds() const {
    return pull_seconds + push_seconds + comm_seconds;
  }
  /// (max - min) / max of per-node computation counts (Fig. 10b y-axis).
  /// Work-based rather than wall-clock: simulated ranks timeshare the
  /// host's cores, so per-rank wall time does not reflect node balance.
  double InterNodeImbalance() const {
    if (node_computations.empty()) return 0;
    uint64_t lo = node_computations[0], hi = node_computations[0];
    for (uint64_t c : node_computations) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return hi > 0 ? static_cast<double>(hi - lo) / static_cast<double>(hi)
                  : 0;
  }
};

/// Vertex-centric BSP engine over a DistGraph: the reproduction of Gemini's
/// push/pull dual-mode runtime that SLFE builds on. All methods marked
/// *collective* must be called by every rank of the cluster in the same
/// order (SPMD style); they contain the necessary barriers.
///
/// The accumulator type V parameterizes pull-mode gathering. Vertex
/// property arrays are owned by the application and captured in the
/// gather/apply/scatter lambdas; cross-node writes (push mode) must go
/// through the AtomicMin/AtomicMax/AtomicAdd helpers, and pull-mode apply
/// must store with AtomicStore, because other ranks' gathers AtomicLoad
/// the same element.
///
/// Collective schedule: a superstep costs two barriers (three on a
/// reactivating pull->push transition). Every value a rank uses to decide
/// which collectives to run (mode, last mode, active counts) is either
/// rank-local or comes out of an all-reduce, so all ranks agree on it.
template <typename V>
class DistEngine {
 public:
  /// gather(acc, src, weight) -> new accumulator (pull mode, per in-edge)
  using GatherFn = std::function<V(V, VertexId, Weight)>;
  /// apply(dst, acc) -> true iff dst's property changed (pull mode commit)
  using ApplyFn = std::function<bool(VertexId, V)>;
  /// scatter(src, dst, weight) -> true iff dst's property changed (push)
  using ScatterFn = std::function<bool(VertexId, VertexId, Weight)>;
  /// pull_filter(dst) -> what to do with dst this superstep (RR hook).
  /// Called exactly once per destination per pull superstep, from the one
  /// worker thread owning dst's mini-chunk, so it may update per-vertex
  /// bookkeeping without synchronization.
  using PullFilterFn = std::function<PullAction(VertexId)>;

  DistEngine(const DistGraph& dist_graph, EngineOptions options)
      : dg_(dist_graph),
        options_(options),
        scheduler_(options.enable_work_stealing),
        ranks_(static_cast<size_t>(dg_.num_nodes())) {
    VertexId n = dg_.graph().num_vertices();
    active_[0].Resize(n);
    active_[1].Resize(n);
    dirty_.Resize(n);
  }

  const DistGraph& dist_graph() const { return dg_; }
  const EngineOptions& options() const { return options_; }
  EngineOptions& mutable_options() { return options_; }

  /// Guidance threaded in through EngineOptions (nullptr = baseline mode).
  const RRGuidance* guidance() const { return options_.guidance.get(); }

  /// Collective: clears all run state (active sets, counters, timers).
  /// Each rank clears its own vertex range.
  void BeginRun(sim::NodeContext& ctx) {
    RankState& me = ranks_[ctx.rank];
    me = RankState{};
    me.thread_chunks.assign(ctx.pool->num_threads(), 0);
    const VertexRange& r = dg_.range(ctx.rank);
    active_[0].ClearRange(r.begin, r.end);
    active_[1].ClearRange(r.begin, r.end);
    dirty_.ClearRange(r.begin, r.end);
    if (ctx.rank == 0) stats_ = EngineStats{};
    ctx.world->Barrier();
  }

  /// Collective: activates the seed vertices (each owner sets its own).
  /// Seeds carry initial values nobody has observed yet, so they start
  /// dirty for the transition-reactivation bookkeeping. One barrier
  /// however many seeds there are.
  void ActivateSeeds(sim::NodeContext& ctx,
                     const std::vector<VertexId>& seeds) {
    const VertexRange& r = dg_.range(ctx.rank);
    Bitmap& next = Next(ranks_[ctx.rank]);
    for (VertexId v : seeds) {
      if (r.Contains(v)) {
        next.SetBit(v);
        MarkDirty(v);
      }
    }
    ctx.world->Barrier();
  }

  /// Collective: activates every vertex (all initial values unobserved).
  void ActivateAll(sim::NodeContext& ctx) {
    const VertexRange& r = dg_.range(ctx.rank);
    Bitmap& next = Next(ranks_[ctx.rank]);
    for (VertexId v = r.begin; v < r.end; ++v) {
      next.SetBit(v);
      MarkDirty(v);
    }
    ctx.world->Barrier();
  }

  /// Installs the predicate deciding whether an updated vertex becomes
  /// "dirty" (its new value may go unseen by a delayed successor, so the
  /// next pull->push transition must re-deliver it). Without a policy every
  /// update is dirty — the conservative rule. The RR runner installs
  /// `iter + 1 < max(lastIter of out-neighbors)` each superstep: if all
  /// successors are already unlocked they gather the value next iteration
  /// and nothing is unseen. Call before seeding and per superstep; not
  /// thread-safe against a running ProcessEdges.
  void SetDirtyPolicy(std::function<bool(VertexId)> policy) {
    dirty_policy_ = std::move(policy);
  }

  /// Collective: promotes the "next" active set to "current" and returns
  /// the global number of active vertices. Apps call this once before the
  /// iteration loop, right after ActivateSeeds/ActivateAll (whose barrier
  /// it relies on); ProcessEdges does it implicitly for later supersteps.
  /// One barrier.
  uint64_t PromoteActiveSet(sim::NodeContext& ctx) {
    return Promote(ctx, sim::StepTotals{}).active_vertices;
  }

  /// Collective: one superstep. Picks push or pull per the mode policy,
  /// runs the user functions over the graph, applies RR filtering in pull
  /// mode, charges simulated communication, then promotes the active set
  /// and returns the number of globally active vertices for the next
  /// superstep.
  ///
  /// `gather_all`: when true, pull mode aggregates over ALL in-neighbors of
  /// a processed destination rather than only active ones. Required by
  /// "start late" (a delayed vertex must see every predecessor, paper §3.2)
  /// and by arithmetic apps (which have no meaningful active sources).
  /// `forced_mode` overrides the mode policy for this superstep (the RR
  /// verification sweep must pull even with an empty active set).
  uint64_t ProcessEdges(sim::NodeContext& ctx, V identity,
                        const GatherFn& gather, const ApplyFn& apply,
                        const ScatterFn& scatter,
                        const PullFilterFn& pull_filter = nullptr,
                        bool gather_all = false,
                        const Mode* forced_mode = nullptr) {
    RankState& me = ranks_[ctx.rank];
    Mode mode = forced_mode != nullptr ? *forced_mode : DecideMode(me);
    Bitmap& cur = Cur(me);
    Bitmap& next = Next(me);

    // Pull->push transition: RR may have deactivated vertices whose values
    // were never observed by their successors; reactivate them so push
    // delivers the "unseen" updates (paper Algorithm 3, lines 2-4). kDirty
    // revives only vertices whose value changed since their last push.
    // The barrier keeps peers' pushes from marking this rank's vertices
    // dirty while it is still reading dirty_.
    if (options_.reactivation != TransitionReactivation::kNone &&
        mode == Mode::kPush && me.last_mode == Mode::kPull) {
      const VertexRange& r = dg_.range(ctx.rank);
      for (VertexId v = r.begin; v < r.end; ++v) {
        if (options_.reactivation == TransitionReactivation::kAll ||
            dirty_.TestBit(v)) {
          cur.SetBit(v);
        }
      }
      ctx.world->Barrier();
    }
    me.last_mode = mode;

    Timer step_timer;
    StepCounters local;
    if (mode == Mode::kPull) {
      RunPull(ctx, cur, next, identity, gather, apply, pull_filter,
              gather_all, &local);
    } else {
      RunPush(ctx, cur, next, scatter, &local);
    }
    me.compute_seconds += step_timer.Seconds();
    me.totals.Add(local);

    // Past this barrier no rank writes Next or reads Cur, so each rank may
    // count its range of Next and clear its range of Cur.
    ctx.world->Barrier();
    sim::StepTotals step;
    step.max_comm_seconds =
        options_.cost_model.Cost(local.messages, local.bytes);
    step.computations = local.computations;
    sim::StepTotals total = Promote(ctx, step);

    if (ctx.rank == 0) {
      ++stats_.iterations;
      stats_.comm_seconds += total.max_comm_seconds;
      stats_.per_iter_computations.push_back(total.computations);
      stats_.per_iter_mode.push_back(mode);
      double wall = step_timer.Seconds();
      if (mode == Mode::kPull) {
        stats_.pull_seconds += wall;
      } else {
        stats_.push_seconds += wall;
      }
    }
    return total.active_vertices;
  }

  /// Collective: applies fn to every master vertex and returns the
  /// all-reduced sum of its return values (e.g., rank delta in PageRank).
  double ProcessVertices(sim::NodeContext& ctx,
                         const std::function<double(VertexId)>& fn) {
    const VertexRange& r = dg_.range(ctx.rank);
    std::vector<double> partial(ctx.pool->num_threads(), 0.0);
    scheduler_.Run(*ctx.pool, r.begin, r.end,
                   [&](size_t worker, size_t lo, size_t hi) {
                     double acc = 0;
                     for (size_t v = lo; v < hi; ++v) {
                       acc += fn(static_cast<VertexId>(v));
                     }
                     partial[worker] += acc;
                   });
    double local = 0;
    for (double p : partial) local += p;
    return ctx.world->AllReduce(ctx.rank, local,
                                [](double a, double b) { return a + b; });
  }

  /// Collective: merges every rank's counters into the run's stats. Call
  /// after the loop (the safety sweep also calls it mid-run). Only rank 0
  /// may read the result; it stays valid until rank 0's next collective.
  const EngineStats& FinishRun(sim::NodeContext& ctx) {
    ctx.world->Barrier();
    if (ctx.rank == 0) {
      StepCounters sum;
      stats_.node_compute_seconds.clear();
      stats_.node_computations.clear();
      stats_.per_thread_chunks.clear();
      for (const RankState& rs : ranks_) {
        sum.Add(rs.totals);
        stats_.node_compute_seconds.push_back(rs.compute_seconds);
        stats_.node_computations.push_back(rs.totals.computations);
        stats_.per_thread_chunks.insert(stats_.per_thread_chunks.end(),
                                        rs.thread_chunks.begin(),
                                        rs.thread_chunks.end());
      }
      stats_.computations = sum.computations;
      stats_.updates = sum.updates;
      stats_.skipped = sum.skipped;
      stats_.messages = sum.messages;
      stats_.bytes = sum.bytes;
    }
    ctx.world->Barrier();  // peers may not write their counters until read
    return stats_;
  }

  const EngineStats& stats() const { return stats_; }

 private:
  /// Work counters of one rank, for one superstep or summed over a run.
  struct StepCounters {
    uint64_t computations = 0, updates = 0, skipped = 0;
    uint64_t messages = 0, bytes = 0;
    void Add(const StepCounters& o) {
      computations += o.computations;
      updates += o.updates;
      skipped += o.skipped;
      messages += o.messages;
      bytes += o.bytes;
    }
  };

  /// State only its own rank writes. Rank 0 reads the counters in
  /// FinishRun, between two barriers.
  struct alignas(64) RankState {
    int parity = 0;  ///< active_[parity] is Cur, active_[parity ^ 1] Next
    Mode last_mode = Mode::kPull;  ///< first push after a pull reactivates
    uint64_t active_out_edges = 0;  ///< global, from the last promotion
    double compute_seconds = 0;
    StepCounters totals;
    std::vector<uint64_t> thread_chunks;  ///< stealing diagnostics
  };

  Bitmap& Cur(const RankState& me) { return active_[me.parity]; }
  Bitmap& Next(const RankState& me) { return active_[me.parity ^ 1]; }

  void MarkDirty(VertexId v) {
    if (!dirty_policy_ || dirty_policy_(v)) dirty_.SetBit(v);
  }

  /// Runs after a barrier past which nobody writes Next or reads Cur: adds
  /// this rank's next-frontier counts to `local`, clears its range of Cur,
  /// flips its parity, and all-reduces the step (one barrier). The next
  /// superstep's mode decision reuses the reduced out-edge total.
  sim::StepTotals Promote(sim::NodeContext& ctx, sim::StepTotals local) {
    RankState& me = ranks_[ctx.rank];
    const VertexRange& r = dg_.range(ctx.rank);
    CountFrontier(Next(me), r, &local.active_vertices,
                  &local.active_out_edges);
    Cur(me).ClearRange(r.begin, r.end);
    me.parity ^= 1;
    sim::StepTotals total = ctx.world->AllReduceStep(ctx.rank, local);
    me.active_out_edges = total.active_out_edges;
    return total;
  }

  /// Counts the set bits of `bits` within `r` and their out-degrees, a
  /// word at a time; a full word's out-degree is one CSR offset difference.
  void CountFrontier(const Bitmap& bits, const VertexRange& r,
                     uint64_t* vertices, uint64_t* out_edges) const {
    if (r.begin >= r.end) return;
    const Csr& out = dg_.graph().out();
    size_t first = r.begin / 64, last = (r.end - 1) / 64;
    for (size_t w = first; w <= last; ++w) {
      uint64_t word = bits.Word64(w);
      if (w == first) word &= ~uint64_t{0} << (r.begin % 64);
      if (w == last) word &= ~uint64_t{0} >> (63 - (r.end - 1) % 64);
      if (word == 0) continue;
      VertexId base = static_cast<VertexId>(w * 64);
      *vertices += static_cast<uint64_t>(__builtin_popcountll(word));
      if (word == ~uint64_t{0}) {
        *out_edges += out.begin(base + 64) - out.begin(base);
        continue;
      }
      while (word != 0) {
        *out_edges += out.degree(base + __builtin_ctzll(word));
        word &= word - 1;
      }
    }
  }

  Mode DecideMode(const RankState& me) const {
    switch (options_.mode_policy) {
      case ModePolicy::kAlwaysPull:
        return Mode::kPull;
      case ModePolicy::kAlwaysPush:
        return Mode::kPush;
      case ModePolicy::kAdaptive:
        break;
    }
    double threshold =
        options_.dense_fraction * static_cast<double>(dg_.graph().num_edges());
    return me.active_out_edges > threshold ? Mode::kPull : Mode::kPush;
  }

  void RunPull(sim::NodeContext& ctx, const Bitmap& cur, Bitmap& next,
               V identity, const GatherFn& gather, const ApplyFn& apply,
               const PullFilterFn& pull_filter, bool gather_all,
               StepCounters* local) {
    const Csr& in = dg_.graph().in();
    const VertexRange& r = dg_.range(ctx.rank);
    size_t nthreads = ctx.pool->num_threads();
    std::vector<StepCounters> tc(nthreads);

    auto chunks = scheduler_.Run(
        *ctx.pool, r.begin, r.end, [&](size_t worker, size_t lo, size_t hi) {
          StepCounters& c = tc[worker];
          for (size_t dv = lo; dv < hi; ++dv) {
            VertexId dst = static_cast<VertexId>(dv);
            PullAction action = pull_filter
                                    ? pull_filter(dst)
                                    : (gather_all ? PullAction::kGatherAll
                                                  : PullAction::kGatherActive);
            if (action == PullAction::kSkip) {
              c.skipped += in.degree(dst);
              continue;
            }
            bool all = action == PullAction::kGatherAll;
            V acc = identity;
            bool any = false;
            for (EdgeId e = in.begin(dst); e < in.end(dst); ++e) {
              VertexId src = in.neighbor(e);
              if (!all && !cur.TestBit(src)) continue;
              acc = gather(acc, src, in.weight(e));
              ++c.computations;
              any = true;
            }
            if (any && apply(dst, acc)) {
              next.SetBit(dst);
              MarkDirty(dst);
              ++c.updates;
            }
          }
        });
    AddThreadCounters(ctx.rank, tc, chunks, local);
    // Mirror refresh traffic: every master whose value changed last step
    // (i.e., is active now) must ship its value to each node holding a
    // mirror, so that remote pull-mode gathers see it.
    uint64_t refresh_values = 0;
    for (VertexId v = r.begin; v < r.end; ++v) {
      if (cur.TestBit(v)) refresh_values += dg_.MirrorNodeCount(v);
    }
    local->bytes += refresh_values * (sizeof(VertexId) + sizeof(V));
    if (refresh_values > 0) {
      local->messages += static_cast<uint64_t>(dg_.num_nodes() - 1);
    }
  }

  void RunPush(sim::NodeContext& ctx, const Bitmap& cur, Bitmap& next,
               const ScatterFn& scatter, StepCounters* local) {
    const Csr& out = dg_.graph().out();
    const VertexRange& r = dg_.range(ctx.rank);
    size_t nthreads = ctx.pool->num_threads();
    std::vector<StepCounters> tc(nthreads);
    std::vector<uint64_t> vals(nthreads, 0);

    auto chunks = scheduler_.Run(
        *ctx.pool, r.begin, r.end, [&](size_t worker, size_t lo, size_t hi) {
          StepCounters& c = tc[worker];
          uint64_t chunk_vals = 0;
          for (size_t sv = lo; sv < hi; ++sv) {
            VertexId src = static_cast<VertexId>(sv);
            if (!cur.TestBit(src)) continue;
            // Pushing delivers src's current value to every out-neighbor,
            // so src is no longer "dirty" (unseen) afterwards.
            dirty_.ResetBit(src);
            if (out.degree(src) == 0) continue;
            chunk_vals += dg_.MirrorNodeCount(src);
            for (EdgeId e = out.begin(src); e < out.end(src); ++e) {
              VertexId dst = out.neighbor(e);
              ++c.computations;
              if (scatter(src, dst, out.weight(e))) {
                next.SetBit(dst);
                MarkDirty(dst);
                ++c.updates;
              }
            }
          }
          vals[worker] += chunk_vals;
        });
    AddThreadCounters(ctx.rank, tc, chunks, local);
    uint64_t total_vals = 0;
    for (uint64_t v : vals) total_vals += v;
    local->bytes += total_vals * (sizeof(VertexId) + sizeof(V));
    if (total_vals > 0) {
      // Gemini batches sparse updates into one MPI message per node pair
      // per superstep (unlike PowerGraph's fine-grained signals, which the
      // GAS baseline models as per-mirror messages).
      local->messages += static_cast<uint64_t>(dg_.num_nodes() - 1);
    }
  }

  void AddThreadCounters(int rank, const std::vector<StepCounters>& tc,
                         const std::vector<uint64_t>& chunks,
                         StepCounters* local) {
    std::vector<uint64_t>& mine = ranks_[rank].thread_chunks;
    for (size_t w = 0; w < tc.size(); ++w) {
      local->Add(tc[w]);
      mine[w] += chunks[w];
    }
  }

  const DistGraph& dg_;
  EngineOptions options_;
  WorkStealingScheduler scheduler_;

  Bitmap active_[2];  ///< Cur/Next, selected by each rank's parity
  Bitmap dirty_;      ///< value changed since last pushed (unseen by some)
  std::function<bool(VertexId)> dirty_policy_;
  std::vector<RankState> ranks_;
  EngineStats stats_;  ///< written and read by rank 0 only
};

}  // namespace slfe

#endif  // SLFE_ENGINE_DIST_ENGINE_H_
