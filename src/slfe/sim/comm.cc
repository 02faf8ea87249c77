#include "slfe/sim/comm.h"

#include <algorithm>

namespace slfe::sim {

World::World(int num_nodes)
    : num_nodes_(num_nodes),
      mailboxes_(num_nodes),
      per_node_(num_nodes),
      reduce_slots_(2 * static_cast<size_t>(num_nodes)),
      reduce_parity_(num_nodes) {
  SLFE_CHECK_GE(num_nodes, 1);
}

void World::Send(int src, int dst, const void* data, size_t size) {
  SLFE_CHECK_LT(dst, num_nodes_);
  Message m;
  m.src_node = src;
  m.payload.resize(size);
  if (size > 0) std::memcpy(m.payload.data(), data, size);
  {
    std::lock_guard<std::mutex> lock(mailboxes_[dst].mu);
    mailboxes_[dst].queue.push_back(std::move(m));
  }
  if (src != dst) {
    // Loopback traffic is free: a real cluster node does not cross the
    // network to talk to itself.
    per_node_[src].messages.Add();
    per_node_[src].bytes.Add(size);
    total_messages_.Add();
    total_bytes_.Add(size);
  }
}

std::vector<Message> World::Recv(int rank) {
  std::lock_guard<std::mutex> lock(mailboxes_[rank].mu);
  std::vector<Message> out;
  out.swap(mailboxes_[rank].queue);
  return out;
}

void World::Barrier() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  uint64_t generation = barrier_generation_;
  if (++barrier_waiting_ == num_nodes_) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    lock.unlock();
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock,
                     [&] { return barrier_generation_ != generation; });
  }
}

uint64_t World::BarrierCount() const {
  std::lock_guard<std::mutex> lock(barrier_mu_);
  return barrier_generation_;
}

const World::ReduceSlot* World::Exchange(int rank, const ReduceSlot& mine) {
  SLFE_CHECK_GE(rank, 0);
  SLFE_CHECK_LT(rank, num_nodes_);
  size_t& bank = reduce_parity_[rank].bank;
  ReduceSlot* slots = &reduce_slots_[bank * num_nodes_];
  bank ^= 1;
  slots[rank] = mine;
  Barrier();  // every slot of this bank written; the mutex publishes them
  return slots;
}

double World::AllReduce(int rank, double value,
                        const std::function<double(double, double)>& op) {
  ReduceSlot mine;
  mine.value = value;
  const ReduceSlot* slots = Exchange(rank, mine);
  double result = slots[0].value;
  for (int r = 1; r < num_nodes_; ++r) result = op(result, slots[r].value);
  return result;
}

uint64_t World::AllReduceSum(int rank, uint64_t value) {
  ReduceSlot mine;
  mine.sum = value;
  const ReduceSlot* slots = Exchange(rank, mine);
  uint64_t result = 0;
  for (int r = 0; r < num_nodes_; ++r) result += slots[r].sum;
  return result;
}

StepTotals World::AllReduceStep(int rank, const StepTotals& local) {
  ReduceSlot mine;
  mine.step = local;
  const ReduceSlot* slots = Exchange(rank, mine);
  StepTotals result = slots[0].step;
  for (int r = 1; r < num_nodes_; ++r) {
    const StepTotals& t = slots[r].step;
    result.max_comm_seconds =
        std::max(result.max_comm_seconds, t.max_comm_seconds);
    result.computations += t.computations;
    result.active_vertices += t.active_vertices;
    result.active_out_edges += t.active_out_edges;
  }
  return result;
}

void World::ResetTraffic() {
  total_messages_.Reset();
  total_bytes_.Reset();
  for (auto& t : per_node_) {
    t.messages.Reset();
    t.bytes.Reset();
  }
}

}  // namespace slfe::sim
