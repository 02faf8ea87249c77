// Unit tests for the simulated cluster runtime: message passing,
// barriers, collectives, traffic accounting, and the cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "slfe/sim/cluster.h"
#include "slfe/sim/comm.h"

namespace slfe::sim {
namespace {

TEST(CostModelTest, LatencyAndBandwidthTerms) {
  CostModel model;
  model.latency_per_message = 1e-6;
  model.bytes_per_second = 1e9;
  // 1000 messages of 1e6 bytes total: 1ms latency + 1ms transfer.
  EXPECT_DOUBLE_EQ(model.Cost(1000, 1000000), 1e-3 + 1e-3);
  EXPECT_DOUBLE_EQ(model.Cost(0, 0), 0.0);
}

TEST(WorldTest, SendRecvDeliversPayload) {
  World world(2);
  uint32_t data = 0xabcd1234;
  world.Send(0, 1, &data, sizeof(data));
  auto messages = world.Recv(1);
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].src_node, 0);
  uint32_t got;
  std::memcpy(&got, messages[0].payload.data(), sizeof(got));
  EXPECT_EQ(got, data);
  // Mailbox drained.
  EXPECT_TRUE(world.Recv(1).empty());
}

TEST(WorldTest, TrafficCountsExcludeLoopback) {
  World world(2);
  int x = 7;
  world.Send(0, 0, &x, sizeof(x));  // loopback: free
  world.Send(0, 1, &x, sizeof(x));
  EXPECT_EQ(world.TotalMessages(), 1u);
  EXPECT_EQ(world.TotalBytes(), sizeof(x));
  EXPECT_EQ(world.NodeMessages(0), 1u);
  EXPECT_EQ(world.NodeBytes(0), sizeof(x));
  world.ResetTraffic();
  EXPECT_EQ(world.TotalMessages(), 0u);
}

TEST(ClusterTest, RunInvokesEveryRankOnce) {
  Cluster cluster(4);
  std::atomic<uint64_t> mask{0};
  cluster.Run([&](NodeContext& ctx) {
    EXPECT_EQ(ctx.num_nodes, 4);
    mask.fetch_or(1ull << ctx.rank);
  });
  EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(ClusterTest, BarrierSynchronizesPhases) {
  // Every rank increments a counter, barriers, then checks that all
  // increments are visible — repeated across many phases to catch
  // sense-reversal bugs.
  constexpr int kRanks = 4;
  constexpr int kPhases = 50;
  Cluster cluster(kRanks);
  std::atomic<int> counter{0};
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    for (int phase = 1; phase <= kPhases; ++phase) {
      counter.fetch_add(1);
      ctx.world->Barrier();
      if (counter.load() < phase * kRanks) failures.fetch_add(1);
      ctx.world->Barrier();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, AllReduceSumAcrossRanks) {
  Cluster cluster(5);
  std::vector<uint64_t> results(5);
  cluster.Run([&](NodeContext& ctx) {
    results[ctx.rank] =
        ctx.world->AllReduceSum(ctx.rank, static_cast<uint64_t>(ctx.rank + 1));
  });
  for (uint64_t r : results) EXPECT_EQ(r, 15u);  // 1+2+3+4+5
}

TEST(ClusterTest, AllReduceSumRepeatedUsesCleanScratch) {
  Cluster cluster(3);
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    for (int round = 0; round < 20; ++round) {
      uint64_t sum = ctx.world->AllReduceSum(ctx.rank, 1);
      if (sum != 3) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, AllReduceMaxAndMin) {
  Cluster cluster(4);
  std::vector<double> maxes(4), mins(4);
  cluster.Run([&](NodeContext& ctx) {
    double mine = static_cast<double>(ctx.rank * 10);
    maxes[ctx.rank] = ctx.world->AllReduce(
        ctx.rank, mine, [](double a, double b) { return std::max(a, b); });
    mins[ctx.rank] = ctx.world->AllReduce(
        ctx.rank, mine, [](double a, double b) { return std::min(a, b); });
  });
  for (double m : maxes) EXPECT_DOUBLE_EQ(m, 30.0);
  for (double m : mins) EXPECT_DOUBLE_EQ(m, 0.0);
}

TEST(ClusterTest, AllToAllMessaging) {
  // Every rank sends its id to every other rank; after a barrier each rank
  // must find exactly num_nodes-1 messages with the senders' ids.
  constexpr int kRanks = 4;
  Cluster cluster(kRanks);
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    int id = ctx.rank;
    for (int dst = 0; dst < kRanks; ++dst) {
      if (dst != ctx.rank) ctx.world->Send(ctx.rank, dst, &id, sizeof(id));
    }
    ctx.world->Barrier();
    auto messages = ctx.world->Recv(ctx.rank);
    if (messages.size() != kRanks - 1) failures.fetch_add(1);
    uint64_t seen = 0;
    for (const Message& m : messages) {
      int sender;
      std::memcpy(&sender, m.payload.data(), sizeof(sender));
      if (sender != m.src_node) failures.fetch_add(1);
      seen |= 1ull << sender;
    }
    uint64_t want = ((1ull << kRanks) - 1) & ~(1ull << ctx.rank);
    if (seen != want) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, PerNodePoolsAreIndependent) {
  Cluster cluster(2, /*threads_per_node=*/3);
  std::atomic<int> total{0};
  cluster.Run([&](NodeContext& ctx) {
    ctx.pool->ParallelRun([&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 6);
}

TEST(ClusterTest, SequentialRunsReuseWorld) {
  Cluster cluster(3);
  for (int i = 0; i < 3; ++i) {
    std::atomic<int> count{0};
    cluster.Run([&](NodeContext& ctx) {
      ctx.world->Barrier();
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 3);
  }
}

TEST(ClusterTest, BarrierCountAdvancesOncePerBarrier) {
  Cluster cluster(3);
  std::vector<uint64_t> seen(3);
  cluster.Run([&](NodeContext& ctx) {
    uint64_t before = ctx.world->BarrierCount();
    ctx.world->Barrier();
    ctx.world->AllReduceSum(ctx.rank, 1);
    seen[ctx.rank] = ctx.world->BarrierCount() - before;
  });
  for (uint64_t s : seen) EXPECT_EQ(s, 2u);
  EXPECT_EQ(cluster.world().BarrierCount(), 2u);
}

// Interleaves the three single-barrier collectives over thousands of
// rounds, with rank-dependent yields so ranks run ahead of each other into
// the next round's bank. Every result is checked exactly; the double sum
// must equal the rank-order fold on every rank, so it is bit-identical
// between ranks and between runs.
std::vector<double> StressCollectives(int ranks, int rounds,
                                      std::atomic<int>* failures) {
  Cluster cluster(ranks);
  std::vector<double> sums(rounds);
  auto fraction = [](int rank, int round) {
    return 1.0 / (3.0 + rank) + 1e-9 * round;
  };
  cluster.Run([&](NodeContext& ctx) {
    World& world = *ctx.world;
    const uint64_t n = static_cast<uint64_t>(ranks);
    for (int round = 0; round < rounds; ++round) {
      const uint64_t r = static_cast<uint64_t>(round);
      if ((round + ctx.rank) % 7 == 0) std::this_thread::yield();
      for (int k = 0; k < 3; ++k) {
        switch ((round + k) % 3) {
          case 0: {
            uint64_t sum = world.AllReduceSum(ctx.rank, r * n + ctx.rank);
            if (sum != r * n * n + n * (n - 1) / 2) failures->fetch_add(1);
            break;
          }
          case 1: {
            double max = world.AllReduce(
                ctx.rank, static_cast<double>(round + ctx.rank),
                [](double a, double b) { return std::max(a, b); });
            if (max != static_cast<double>(round + ranks - 1)) {
              failures->fetch_add(1);
            }
            break;
          }
          case 2: {
            StepTotals mine;
            mine.max_comm_seconds = ctx.rank == round % ranks ? 1.0 + r : 0;
            mine.computations = r + ctx.rank;
            mine.active_vertices = 1;
            mine.active_out_edges = r;
            StepTotals t = world.AllReduceStep(ctx.rank, mine);
            if (t.max_comm_seconds != 1.0 + static_cast<double>(r) ||
                t.computations != r * n + n * (n - 1) / 2 ||
                t.active_vertices != n || t.active_out_edges != r * n) {
              failures->fetch_add(1);
            }
            break;
          }
        }
      }
      double sum = world.AllReduce(ctx.rank, fraction(ctx.rank, round),
                                   [](double a, double b) { return a + b; });
      double fold = fraction(0, round);
      for (int q = 1; q < ranks; ++q) fold += fraction(q, round);
      if (std::memcmp(&sum, &fold, sizeof(sum)) != 0) failures->fetch_add(1);
      if (ctx.rank == 0) sums[round] = sum;
    }
  });
  return sums;
}

TEST(ClusterTest, SingleBarrierCollectivesStress) {
  constexpr int kRounds = 3000;
  for (int ranks : {1, 2, 3, 8}) {
    std::atomic<int> failures{0};
    std::vector<double> first = StressCollectives(ranks, kRounds, &failures);
    std::vector<double> second = StressCollectives(ranks, kRounds, &failures);
    EXPECT_EQ(failures.load(), 0) << ranks << " ranks";
    EXPECT_EQ(std::memcmp(first.data(), second.data(),
                          first.size() * sizeof(double)),
              0)
        << ranks << " ranks";
  }
}

}  // namespace
}  // namespace slfe::sim
