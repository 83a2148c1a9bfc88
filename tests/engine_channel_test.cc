// Channel<T>: bounded capacity / backpressure, close-while-blocked wakeup,
// poison-on-error propagation, and a multi-producer multi-consumer stress
// test (run it under TSan via scripts/check.sh to validate the locking).

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "engine/channel.h"

namespace qox {
namespace {

TEST(ChannelTest, FifoWithinCapacity) {
  Channel<int> channel(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(channel.Push(i).ok());
  }
  EXPECT_EQ(channel.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const Result<std::optional<int>> item = channel.Pop();
    ASSERT_TRUE(item.ok());
    ASSERT_TRUE(item.value().has_value());
    EXPECT_EQ(*item.value(), i);
  }
}

TEST(ChannelTest, ZeroCapacityIsPromotedToOne) {
  Channel<int> channel(0);
  EXPECT_EQ(channel.capacity(), 1u);
  ASSERT_TRUE(channel.Push(42).ok());
}

TEST(ChannelTest, PushBlocksUntilConsumerMakesRoom) {
  Channel<int> channel(2);
  ASSERT_TRUE(channel.Push(1).ok());
  ASSERT_TRUE(channel.Push(2).ok());
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    int64_t waited = 0;
    ASSERT_TRUE(channel.Push(3, &waited).ok());
    third_pushed.store(true);
  });
  // The producer must be stuck on the full channel.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(*channel.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_GE(channel.stats().push_wait_micros, 0);
  EXPECT_EQ(channel.stats().high_water, 2u);
}

TEST(ChannelTest, PopBlocksUntilProducerDelivers) {
  Channel<int> channel(2);
  std::thread consumer([&] {
    int64_t waited = 0;
    const Result<std::optional<int>> item = channel.Pop(&waited);
    ASSERT_TRUE(item.ok());
    EXPECT_EQ(*item.value(), 7);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(channel.Push(7).ok());
  consumer.join();
}

TEST(ChannelTest, CloseDrainsThenSignalsEndOfStream) {
  Channel<int> channel(4);
  ASSERT_TRUE(channel.Push(1).ok());
  ASSERT_TRUE(channel.Push(2).ok());
  channel.Close();
  EXPECT_FALSE(channel.Push(3).ok());  // no pushes after close
  EXPECT_EQ(*channel.Pop().value(), 1);  // pending items still drain
  EXPECT_EQ(*channel.Pop().value(), 2);
  const Result<std::optional<int>> end = channel.Pop();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value().has_value());  // closed and drained
}

TEST(ChannelTest, CloseWakesBlockedPopper) {
  Channel<int> channel(1);
  std::atomic<bool> saw_end{false};
  std::thread consumer([&] {
    const Result<std::optional<int>> item = channel.Pop();
    ASSERT_TRUE(item.ok());
    EXPECT_FALSE(item.value().has_value());
    saw_end.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.Close();
  consumer.join();
  EXPECT_TRUE(saw_end.load());
}

TEST(ChannelTest, CloseWakesBlockedPusher) {
  Channel<int> channel(1);
  ASSERT_TRUE(channel.Push(1).ok());
  std::atomic<bool> push_failed{false};
  std::thread producer([&] {
    const Status st = channel.Push(2);
    EXPECT_FALSE(st.ok());
    push_failed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.Close();
  producer.join();
  EXPECT_TRUE(push_failed.load());
}

TEST(ChannelTest, PoisonDropsQueueAndFailsEveryone) {
  Channel<int> channel(4);
  ASSERT_TRUE(channel.Push(1).ok());
  ASSERT_TRUE(channel.Push(2).ok());
  channel.Poison(Status::Unavailable("upstream died"));
  EXPECT_EQ(channel.size(), 0u);  // pending items dropped
  const Result<std::optional<int>> item = channel.Pop();
  EXPECT_FALSE(item.ok());
  EXPECT_EQ(item.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(channel.Push(3).ok());
  // First poison wins.
  channel.Poison(Status::Internal("second"));
  EXPECT_EQ(channel.poison().code(), StatusCode::kUnavailable);
  // Closing after poisoning changes nothing.
  channel.Close();
  EXPECT_EQ(channel.Pop().status().code(), StatusCode::kUnavailable);
}

TEST(ChannelTest, PoisonWakesBlockedParties) {
  Channel<int> channel(1);
  ASSERT_TRUE(channel.Push(0).ok());
  std::atomic<int> failures{0};
  std::thread producer([&] {
    if (!channel.Push(1).ok()) failures.fetch_add(1);
  });
  Channel<int> empty(1);
  std::thread consumer([&] {
    if (!empty.Pop().ok()) failures.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.Poison(Status::Cancelled("shutdown"));
  empty.Poison(Status::Cancelled("shutdown"));
  producer.join();
  consumer.join();
  EXPECT_EQ(failures.load(), 2);
}

TEST(ChannelTest, OkPoisonIsIgnored) {
  Channel<int> channel(1);
  channel.Poison(Status::OK());
  ASSERT_TRUE(channel.Push(1).ok());
  EXPECT_EQ(*channel.Pop().value(), 1);
}

// Multi-producer multi-consumer stress: every pushed value is popped
// exactly once, nothing is lost, and the run is clean under TSan.
TEST(ChannelTest, ConcurrentProducersAndConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;
  Channel<int> channel(8);
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(channel.Push(p * kPerProducer + i).ok());
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        const Result<std::optional<int>> item = channel.Pop();
        ASSERT_TRUE(item.ok());
        if (!item.value().has_value()) break;
        sum.fetch_add(*item.value());
        popped.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  channel.Close();
  for (std::thread& t : consumers) t.join();
  constexpr long long kTotal = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(channel.stats().items_pushed, static_cast<size_t>(kTotal));
  EXPECT_LE(channel.stats().high_water, 8u);
}

}  // namespace
}  // namespace qox
