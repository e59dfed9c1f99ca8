#include "util/mpsc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/fault_injection.h"

namespace tkc {
namespace {

TEST(BoundedMpscQueueTest, FifoOrder) {
  BoundedMpscQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedMpscQueueTest, PushOrEvictRespectsCapacity) {
  BoundedMpscQueue<int> queue(2);
  auto less = [](int a, int b) { return a < b; };
  int evicted = -1;
  int item = 1;
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted), PushOutcome::kPushed);
  item = 2;
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted), PushOutcome::kPushed);
  item = 0;  // full, and the incoming item loses the contest
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted),
            PushOutcome::kRejectedIncoming);
  EXPECT_EQ(queue.size(), 2u);
  int out;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted),
            PushOutcome::kPushed);  // room again
  EXPECT_EQ(evicted, -1);           // nothing was ever evicted
}

TEST(BoundedMpscQueueTest, TryPopOnEmptyFails) {
  BoundedMpscQueue<int> queue(2);
  int out;
  EXPECT_FALSE(queue.TryPop(&out));
}

TEST(BoundedMpscQueueTest, ZeroCapacityClampsToOne) {
  BoundedMpscQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  auto less = [](int a, int b) { return a < b; };
  int item = 7, evicted = -1;
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted), PushOutcome::kPushed);
  item = 6;  // a second item does not fit: the queue holds exactly one
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted),
            PushOutcome::kRejectedIncoming);
  EXPECT_EQ(queue.size(), 1u);
  queue.Close();
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted), PushOutcome::kClosed);
}

TEST(BoundedMpscQueueTest, CloseDrainsThenFails) {
  BoundedMpscQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_FALSE(queue.Push(3));  // rejected after close
  int out;
  EXPECT_TRUE(queue.Pop(&out));  // queued items still drain
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out));  // drained + closed
}

TEST(BoundedMpscQueueTest, CloseWakesBlockedConsumer) {
  BoundedMpscQueue<int> queue(4);
  std::thread consumer([&] {
    int out;
    EXPECT_FALSE(queue.Pop(&out));  // blocks until Close, then fails
  });
  queue.Close();
  consumer.join();
}

TEST(BoundedMpscQueueTest, FullQueueExertsBackpressure) {
  BoundedMpscQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // blocks until the consumer pops
    second_pushed.store(true);
  });
  // The producer cannot finish while the queue is full. (No sleep: we only
  // assert the ordering once the pops release it.)
  int out;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(BoundedMpscQueueTest, ManyProducersOneConsumer) {
  BoundedMpscQueue<int> queue(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen;
  int out;
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_TRUE(queue.Pop(&out));
    seen.push_back(out);
  }
  for (std::thread& t : producers) t.join();
  // Every item arrives exactly once, and each producer's items in order.
  std::vector<int> last(kProducers, -1);
  for (int value : seen) {
    int p = value / kPerProducer;
    EXPECT_LT(last[p], value % kPerProducer);
    last[p] = value % kPerProducer;
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
}

TEST(BoundedMpscQueueTest, CloseWakesProducerBlockedInPush) {
  BoundedMpscQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::thread producer([&] {
    // Blocks on the full queue; Close must wake it, and the push must
    // report failure.
    EXPECT_FALSE(queue.Push(2));
  });
  queue.Close();
  producer.join();
  int out;
  EXPECT_TRUE(queue.Pop(&out));  // drain-then-fail still holds
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(BoundedMpscQueueTest, PushOrEvictPushesWhenRoom) {
  BoundedMpscQueue<int> queue(2);
  auto less = [](int a, int b) { return a < b; };
  int item = 5, evicted = -1;
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted), PushOutcome::kPushed);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedMpscQueueTest, PushOrEvictEvictsTheMinimum) {
  BoundedMpscQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(3));
  ASSERT_TRUE(queue.Push(7));
  auto less = [](int a, int b) { return a < b; };
  int item = 5, evicted = -1;
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted),
            PushOutcome::kPushedEvicted);
  EXPECT_EQ(evicted, 3);  // the queued minimum lost the contest
  // The incoming item took the evicted slot in place (stable positions).
  int out;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 5);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 7);
}

TEST(BoundedMpscQueueTest, PushOrEvictRejectsIncomingMinimum) {
  BoundedMpscQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(3));
  ASSERT_TRUE(queue.Push(7));
  auto less = [](int a, int b) { return a < b; };
  int item = 2, evicted = -1;
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted),
            PushOutcome::kRejectedIncoming);
  EXPECT_EQ(item, 2);  // rejection does not consume the incoming item
  EXPECT_EQ(evicted, -1);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedMpscQueueTest, PushOrEvictOnClosedQueue) {
  BoundedMpscQueue<int> queue(2);
  queue.Close();
  auto less = [](int a, int b) { return a < b; };
  int item = 1, evicted = -1;
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted), PushOutcome::kClosed);
}

TEST(BoundedMpscQueueTest, QueueFullFaultSimulatesFullQueue) {
  // probability 1, max_fires 1: exactly the first non-blocking push
  // observes a "full" queue, the next succeeds.
  ScopedFault fault(kFaultQueueFull, FaultSchedule{1.0, 42, 1});
  BoundedMpscQueue<int> queue(4);
  auto less = [](int a, int b) { return a < b; };
  int item = 1, evicted = -1;
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted),
            PushOutcome::kRejectedIncoming);
  EXPECT_EQ(queue.PushOrEvict(&item, less, &evicted), PushOutcome::kPushed);
  EXPECT_EQ(fault.stats().fires, 1u);
}

}  // namespace
}  // namespace tkc
