#ifndef TKC_UTIL_MPSC_QUEUE_H_
#define TKC_UTIL_MPSC_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>

#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

/// \file mpsc_queue.h
/// A bounded blocking FIFO for the serving layer's request and update
/// plumbing: many client threads push, one (or more) drainers pop. Design
/// points:
///
///  * **Bounded.** Push blocks while the queue holds `capacity` items, so a
///    submission storm exerts backpressure on producers instead of growing
///    an unbounded backlog. Capacity 0 is clamped to 1 (it would deadlock).
///  * **Closeable.** Close() wakes every blocked producer and consumer;
///    Push fails after close, Pop drains the remaining items and then
///    fails. This is the shutdown handshake: close, then join the drainer.
///  * **Mutex-based on purpose.** Queue operations bracket work that is
///    orders of magnitude heavier (a k-core query, an index rebuild);
///    a lock-free ring would optimize the wrong layer.
///
/// Lock discipline is machine-checked: `items_`/`closed_` are
/// TKC_GUARDED_BY(mu_) and every entry point is annotated, so clang's
/// -Wthread-safety proves no access escapes the mutex. Waits are explicit
/// predicate loops (see util/mutex.h for why), and every notify happens
/// after the lock scope closes so a woken thread never collides with the
/// notifier still holding the mutex.
///
/// The name states the intended role (multi-producer, single-consumer);
/// the implementation is safe for multiple consumers too.

namespace tkc {

/// Result of PushOrEvict: what happened to the incoming item, and whether a
/// queued item was displaced to make room for it.
enum class PushOutcome {
  kPushed,            ///< enqueued; nothing evicted
  kPushedEvicted,     ///< enqueued after evicting a queued item into *evicted
  kRejectedIncoming,  ///< queue full and the incoming item lost the contest
  kClosed,            ///< queue closed; nothing enqueued
};

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Blocks until there is room (or the queue closes); true iff enqueued.
  bool Push(T item) TKC_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Never-blocking push with an eviction contest. If there is room,
  /// `*item` is enqueued (kPushed). If the queue is full, the queued item
  /// that orders first under `less` — for the serving layer, the batch
  /// with the least remaining deadline — is compared against the incoming
  /// item: the loser of the contest is shed. Either the queued minimum
  /// moves into `*evicted` and the incoming item takes its slot
  /// (kPushedEvicted), or the incoming item loses (kRejectedIncoming).
  /// `*item` is consumed only on kPushed/kPushedEvicted; on rejection (and
  /// on kClosed) the caller still owns it intact — that is what lets the
  /// caller fail the loser's future instead of losing it. One lock
  /// acquisition, so the full/evict decision is atomic with the enqueue.
  ///
  /// The armed `queue.full` fault simulates a full queue by rejecting the
  /// incoming item without evicting — the conservative shed.
  template <typename Less>
  PushOutcome PushOrEvict(T* item, Less less, T* evicted) TKC_EXCLUDES(mu_) {
    PushOutcome outcome;
    {
      MutexLock lock(mu_);
      if (closed_) return PushOutcome::kClosed;
      if (FaultFires(kFaultQueueFull)) return PushOutcome::kRejectedIncoming;
      if (items_.size() < capacity_) {
        items_.push_back(std::move(*item));
        outcome = PushOutcome::kPushed;
      } else {
        auto min_it = std::min_element(items_.begin(), items_.end(), less);
        if (!less(*min_it, *item)) return PushOutcome::kRejectedIncoming;
        // The incoming item takes the loser's slot in place: the contest is
        // on deadlines, not arrival order, and a stable queue keeps the
        // remaining items' latency profile intact.
        *evicted = std::move(*min_it);
        *min_it = std::move(*item);
        outcome = PushOutcome::kPushedEvicted;
      }
    }
    not_empty_.NotifyOne();
    return outcome;
  }

  /// Blocks until an item is available (or the queue closes and drains);
  /// true iff `*out` received an item.
  bool Pop(T* out) TKC_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
      if (items_.empty()) return false;  // closed and fully drained
      *out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return true;
  }

  /// Dequeues only if an item is available right now; never blocks.
  bool TryPop(T* out) TKC_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (items_.empty()) return false;
      *out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return true;
  }

  /// Rejects future pushes and wakes every waiter. Items already queued
  /// remain poppable (drain-then-fail semantics). Idempotent.
  void Close() TKC_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  size_t size() const TKC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ TKC_GUARDED_BY(mu_);
  bool closed_ TKC_GUARDED_BY(mu_) = false;
};

}  // namespace tkc

#endif  // TKC_UTIL_MPSC_QUEUE_H_
