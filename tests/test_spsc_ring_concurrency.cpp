// Concurrency hammers for the lock-free SPSC ring
// (emulator/spsc_ring.hpp). Built into the
// concurrency-labeled test binary so the CI ThreadSanitizer job checks
// the acquire/release protocol, not just the outcomes.

#include "emulator/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace emulator = synapse::emulator;

TEST(SpscRingConcurrency, HammerPreservesEveryItemInOrder) {
  // One producer, one consumer, a ring much smaller than the stream:
  // every item must arrive exactly once, in push order, through
  // thousands of wraparounds.
  constexpr uint64_t kItems = 200000;
  emulator::SpscRing<uint64_t> ring(8);

  uint64_t sum = 0;
  uint64_t count = 0;
  bool ordered = true;
  std::thread consumer([&] {
    uint64_t item = 0;
    uint64_t expected = 0;
    while (ring.pop(item)) {
      if (item != expected) ordered = false;
      ++expected;
      sum += item;
      ++count;
    }
  });

  for (uint64_t i = 0; i < kItems; ++i) ASSERT_TRUE(ring.push(i));
  ring.close();
  consumer.join();

  EXPECT_TRUE(ordered);
  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

TEST(SpscRingConcurrency, SharedPtrPayloadsSurviveTheHandoff) {
  // The batched replay pushes shared_ptr batch handles; the control
  // block's refcount traffic must stay race-free across the ring.
  constexpr int kItems = 50000;
  emulator::SpscRing<std::shared_ptr<int>> ring(4);

  long long sum = 0;
  std::thread consumer([&] {
    std::shared_ptr<int> item;
    while (ring.pop(item)) sum += *item;
  });

  long long expected = 0;
  for (int i = 0; i < kItems; ++i) {
    expected += i;
    ASSERT_TRUE(ring.push(std::make_shared<int>(i)));
  }
  ring.close();
  consumer.join();
  EXPECT_EQ(sum, expected);
}

TEST(SpscRingConcurrency, DiscardingCloseMidStreamStopsBothSides) {
  // The error path of the replay coordinator: close(discard) fires from
  // a third thread while the producer is pushing and the consumer
  // popping flat out. Both sides must return (no deadlock, no crash);
  // items delivered before the close must be a prefix of what was
  // pushed.
  emulator::SpscRing<uint64_t> ring(4);

  std::atomic<uint64_t> pushed{0};
  std::thread producer([&] {
    uint64_t i = 0;
    while (ring.push(i)) {
      ++i;
      pushed.store(i, std::memory_order_relaxed);
    }
  });

  std::atomic<uint64_t> popped{0};
  bool ordered = true;
  std::thread consumer([&] {
    uint64_t item = 0;
    uint64_t expected = 0;
    while (ring.pop(item)) {
      if (item != expected) ordered = false;
      ++expected;
      popped.store(expected, std::memory_order_relaxed);
    }
  });

  // Let the pipeline actually flow before killing it.
  while (popped.load(std::memory_order_relaxed) < 1000) {
    std::this_thread::yield();
  }
  ring.close(/*discard_pending=*/true);
  producer.join();
  consumer.join();

  EXPECT_TRUE(ordered);
  EXPECT_GE(popped.load(), 1000u);
  EXPECT_LE(popped.load(), pushed.load());
}

TEST(SpscRingConcurrency, RecycledPointerSlotsCarryPublishedWrites) {
  // The frame pipeline's usage pattern: a fixed pool of task structs
  // cycles through the ring, the producer filling fields before each
  // push. The consumer must observe the fields of the push that
  // delivered the pointer, not a stale generation.
  struct Task {
    uint64_t value = 0;
    std::atomic<bool> busy{false};
  };
  constexpr uint64_t kRounds = 50000;
  std::vector<Task> pool(3);
  emulator::SpscRing<Task*> ring(2);

  uint64_t mismatches = 0;
  std::thread consumer([&] {
    Task* task = nullptr;
    uint64_t expected = 0;
    while (ring.pop(task)) {
      if (task->value != expected) ++mismatches;
      ++expected;
      task->busy.store(false, std::memory_order_release);
    }
  });

  for (uint64_t i = 0; i < kRounds; ++i) {
    Task* task = &pool[i % pool.size()];
    while (task->busy.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    task->value = i;
    task->busy.store(true, std::memory_order_relaxed);
    ASSERT_TRUE(ring.push(task));
  }
  ring.close();
  consumer.join();
  EXPECT_EQ(mismatches, 0u);
}
