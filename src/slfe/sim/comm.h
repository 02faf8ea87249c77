#ifndef SLFE_SIM_COMM_H_
#define SLFE_SIM_COMM_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <vector>

#include "slfe/common/counters.h"
#include "slfe/common/logging.h"

namespace slfe::sim {

/// Models the network of the paper's 8-node InfiniBand cluster. Virtual
/// communication time for a superstep is
///   latency_per_message * messages + bytes / bandwidth
/// evaluated per node and max-reduced, mirroring BSP h-relation cost.
/// Defaults approximate a 100 Gb/s fabric with ~2 us one-way latency.
struct CostModel {
  double latency_per_message = 2e-6;
  double bytes_per_second = 12.5e9;  // 100 Gb/s

  double Cost(uint64_t messages, uint64_t bytes) const {
    return latency_per_message * static_cast<double>(messages) +
           static_cast<double>(bytes) / bytes_per_second;
  }
};

/// One inter-node message: an opaque byte payload.
struct Message {
  int src_node = 0;
  std::vector<uint8_t> payload;
};

/// One rank's contribution to a superstep's fused reduction, and the
/// reduced result: the BSP-max of the simulated communication cost plus
/// global sums of the work and next-frontier counts.
struct StepTotals {
  double max_comm_seconds = 0;
  uint64_t computations = 0;
  uint64_t active_vertices = 0;
  uint64_t active_out_edges = 0;
};

/// In-memory stand-in for MPI. N ranks (threads) share a World; each rank
/// interacts through its own Comm handle (rank id + mailboxes + barrier +
/// reduction scratch). All collective calls must be invoked by every rank.
class World {
 public:
  explicit World(int num_nodes);

  int num_nodes() const { return num_nodes_; }

  /// Delivers a message into `dst`'s mailbox. Thread-safe.
  void Send(int src, int dst, const void* data, size_t size);

  /// Drains and returns all messages queued for `rank`. Call after a
  /// barrier so that all sends for the superstep have landed.
  std::vector<Message> Recv(int rank);

  /// Blocking barrier across all ranks. Waiters sleep on a condition
  /// variable rather than spin: simulated ranks share the host's cores
  /// with each other's worker pools and with other jobs.
  void Barrier();

  /// Number of barriers every rank has passed since construction. Stable
  /// between a rank's collectives (a barrier completes only when all ranks
  /// arrive), so a rank may read it to count the barriers a call costs.
  uint64_t BarrierCount() const;

  /// All-reduce of one double using `op` (associative+commutative).
  /// Every rank passes its local value; all receive the reduction, folded
  /// in rank order so every rank (and every run) gets identical bits.
  /// Costs one barrier.
  double AllReduce(int rank, double value,
                   const std::function<double(double, double)>& op);

  /// All-reduce specialization: sum of uint64 (active-vertex counts etc.).
  /// Costs one barrier.
  uint64_t AllReduceSum(int rank, uint64_t value);

  /// The per-superstep fused all-reduce: max of max_comm_seconds, sums of
  /// the counts. Costs one barrier.
  StepTotals AllReduceStep(int rank, const StepTotals& local);

  /// Traffic accounting for the current epoch (reset via ResetTraffic).
  uint64_t TotalMessages() const { return total_messages_.Get(); }
  uint64_t TotalBytes() const { return total_bytes_.Get(); }
  uint64_t NodeMessages(int rank) const {
    return per_node_[rank].messages.Get();
  }
  uint64_t NodeBytes(int rank) const { return per_node_[rank].bytes.Get(); }
  void ResetTraffic();

 private:
  struct Mailbox {
    std::mutex mu;
    std::vector<Message> queue;
  };
  struct NodeTraffic {
    Counter messages;
    Counter bytes;
  };
  /// One rank's published operand; each collective uses one field.
  struct alignas(64) ReduceSlot {
    double value = 0;    ///< AllReduce
    uint64_t sum = 0;    ///< AllReduceSum
    StepTotals step;     ///< AllReduceStep
  };
  struct alignas(64) ReduceParity {
    size_t bank = 0;  ///< bank of this rank's next round; flipped per round
  };

  /// Publishes `mine` as `rank`'s slot for this round, waits for every
  /// rank, and returns the round's slots in rank order. The slots are
  /// double-buffered: a rank's next round writes the other bank, and the
  /// round after that cannot start before every rank has passed the next
  /// round's barrier, i.e. has finished reading this one.
  const ReduceSlot* Exchange(int rank, const ReduceSlot& mine);

  int num_nodes_;
  std::vector<Mailbox> mailboxes_;
  std::vector<NodeTraffic> per_node_;  // outbound traffic per rank
  Counter total_messages_;
  Counter total_bytes_;

  // Barrier state: the generation number advances once per barrier.
  mutable std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  uint64_t barrier_generation_ = 0;

  // Reduction scratch: 2 banks x num_nodes slots, plus each rank's own
  // bank selector (touched only by that rank).
  std::vector<ReduceSlot> reduce_slots_;
  std::vector<ReduceParity> reduce_parity_;
};

}  // namespace slfe::sim

#endif  // SLFE_SIM_COMM_H_
