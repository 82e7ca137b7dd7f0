// Collective contracts: the barrier synchronizes ranks, a lost rank turns
// into a clean kDeadlineExceeded instead of a hang, aborts fan out to
// every blocked rank, and the all-reduce's bits depend only on the slot
// contents — never on how many ranks participated.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/collective.h"
#include "core/rng.h"
#include "core/status.h"

namespace cyqr {
namespace {

Collective::Options Opts(int world_size, double timeout_millis = 5000.0) {
  Collective::Options options;
  options.world_size = world_size;
  options.timeout_millis = timeout_millis;
  return options;
}

TEST(CollectiveTest, SingleRankBarrierIsImmediate) {
  Collective collective(Opts(1));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(collective.Barrier().ok());
  }
}

TEST(CollectiveTest, BarrierSynchronizesRanks) {
  constexpr int kWorld = 4;
  constexpr int kRounds = 10;
  Collective collective(Opts(kWorld));
  std::atomic<int> arrivals{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> ranks;
  for (int r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        arrivals.fetch_add(1);
        ASSERT_TRUE(collective.Barrier().ok());
        // Every rank of this round arrived before any rank passed.
        if (arrivals.load() < (round + 1) * kWorld) violated.store(true);
        ASSERT_TRUE(collective.Barrier().ok());  // Close the round.
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  EXPECT_FALSE(violated.load());
}

TEST(CollectiveTest, MissingPeerTimesOutWithDeadlineExceeded) {
  Collective collective(Opts(2, /*timeout_millis=*/100.0));
  // The peer never arrives: the barrier must poison itself, not hang.
  const Status status = collective.Barrier();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  // The poison sticks: every later operation fails fast with it.
  EXPECT_EQ(collective.Barrier().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(collective.abort_status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(CollectiveTest, AbortWakesBlockedRanksAndFirstAbortWins) {
  Collective collective(Opts(2));
  Status seen;
  std::thread blocked([&] { seen = collective.Barrier(); });
  collective.Abort(Status::Internal("coordinator failed"));
  collective.Abort(Status::IoError("latecomer"));  // Must not overwrite.
  blocked.join();
  ASSERT_FALSE(seen.ok());
  EXPECT_EQ(seen.code(), StatusCode::kInternal);
  EXPECT_EQ(collective.abort_status().code(), StatusCode::kInternal);
}

TEST(CollectiveTest, StallUntilAbortedReturnsPeerAbort) {
  Collective collective(Opts(2));
  Status seen;
  std::thread stalled([&] { seen = collective.StallUntilAborted(); });
  collective.Abort(Status::DeadlineExceeded("peers timed out"));
  stalled.join();
  EXPECT_EQ(seen.code(), StatusCode::kDeadlineExceeded);
}

TEST(CollectiveTest, StallWithNoPeersSelfAborts) {
  Collective collective(Opts(1, /*timeout_millis=*/100.0));
  const Status status = collective.StallUntilAborted();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

/// The reference fold: the slot-index tree the collective once ran level
/// by level, a barrier between levels, executed sequentially here.
/// AllReduceSum must match this bit for bit at every world size.
std::vector<float> ReferenceTreeSum(std::vector<std::vector<float>> slots) {
  for (size_t stride = 1; stride < slots.size(); stride *= 2) {
    for (size_t j = 0; j + stride < slots.size(); j += 2 * stride) {
      for (size_t e = 0; e < slots[j].size(); ++e) {
        slots[j][e] += slots[j + stride][e];
      }
    }
  }
  return slots[0];
}

/// Slot contents for one all-reduce call. Magnitudes span ten decades, so
/// summing in any other order changes the low-order bits.
std::vector<std::vector<float>> MakeSlots(int num_slots, size_t elements,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> slots(static_cast<size_t>(num_slots));
  for (std::vector<float>& slot : slots) {
    for (size_t e = 0; e < elements; ++e) {
      const float scale = std::pow(10.0f, static_cast<float>(e % 11) - 5.0f);
      slot.push_back(static_cast<float>(rng.NextGaussian()) * scale);
    }
  }
  return slots;
}

/// Runs `rounds` all-reduce calls on one collective and one set of slot
/// buffers, refilled in place before each call the way the trainer reuses
/// its gradient slots. Returns slot 0 after each call; fails the test if a
/// call cost more than one barrier.
std::vector<std::vector<float>> RunAllReduce(int world_size, int num_slots,
                                             size_t elements, int rounds) {
  Collective collective(Opts(world_size));
  std::vector<std::vector<float>> slots(
      static_cast<size_t>(num_slots), std::vector<float>(elements));
  std::vector<std::thread> ranks;
  for (int r = 1; r < world_size; ++r) {
    ranks.emplace_back([&collective, &slots, r, rounds] {
      for (int round = 0; round < rounds; ++round) {
        ASSERT_TRUE(collective.Barrier().ok());  // Slots are filled.
        ASSERT_TRUE(collective.AllReduceSum(r, &slots).ok());
      }
    });
  }
  std::vector<std::vector<float>> sums;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<std::vector<float>> fill =
        MakeSlots(num_slots, elements, static_cast<uint64_t>(round));
    for (size_t j = 0; j < slots.size(); ++j) {
      std::copy(fill[j].begin(), fill[j].end(), slots[j].begin());
    }
    EXPECT_TRUE(collective.Barrier().ok());
    const int64_t generation = collective.generation();
    EXPECT_TRUE(collective.AllReduceSum(0, &slots).ok());
    EXPECT_LE(collective.generation() - generation, 1)
        << "world=" << world_size << " slots=" << num_slots;
    sums.push_back(slots[0]);
  }
  for (std::thread& t : ranks) t.join();
  return sums;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(CollectiveTest, AllReduceSumIsBitIdenticalAcrossWorldSizes) {
  constexpr int kRounds = 3;
  // Element counts 1, 3 and 1001 leave some ranks with an empty or a
  // one-element-longer slice.
  for (const size_t elements :
       {size_t{1}, size_t{3}, size_t{4}, size_t{1001}}) {
    for (const int num_slots : {1, 2, 4, 5, 8}) {
      for (const int world : {1, 2, 3, 4}) {
        if (world > num_slots) continue;
        const std::vector<std::vector<float>> sums =
            RunAllReduce(world, num_slots, elements, kRounds);
        ASSERT_EQ(sums.size(), static_cast<size_t>(kRounds));
        for (int round = 0; round < kRounds; ++round) {
          const std::vector<float> reference = ReferenceTreeSum(
              MakeSlots(num_slots, elements, static_cast<uint64_t>(round)));
          EXPECT_TRUE(SameBits(sums[static_cast<size_t>(round)], reference))
              << "world=" << world << " slots=" << num_slots
              << " elements=" << elements << " round=" << round;
        }
      }
    }
  }
}

TEST(CollectiveTest, BarrierAccumulatesWaitTime) {
  Collective collective(Opts(2));
  std::thread peer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(collective.Barrier().ok());
  });
  ASSERT_TRUE(collective.Barrier().ok());
  peer.join();
  // The first arrival waited ~20ms for the sleeper.
  EXPECT_GT(collective.total_wait_millis(), 5.0);
}

}  // namespace
}  // namespace cyqr
