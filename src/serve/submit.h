#ifndef TKC_SERVE_SUBMIT_H_
#define TKC_SERVE_SUBMIT_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "util/timer.h"
#include "workload/query_workload.h"

/// \file submit.h
/// The two serving verbs, their request and result types, and the one
/// adapter over the async verb, SubmitFuture. QueryEngine
/// (serve/query_engine.h) has the sync verb; LiveQueryEngine
/// (serve/snapshot.h) has both:
///
///  * `ServeBatch(queries, deadline = Deadline())` — the sync verb. Runs on
///    the calling thread: cache hits are answered inline and the caller
///    joins the pool's ParallelFor over the batch's distinct misses, so it
///    does part of the work itself. An already-expired deadline answers
///    every query `Status::Timeout` without touching the cache.
///  * `Submit(BatchRequest{queries, deadline}, Completion)` — the async
///    verb, LiveQueryEngine only. The batch pins the current snapshot.
///    When no other batch is in flight — on any snapshot — it is looked up
///    in that snapshot's cache on the submitting thread, and a batch the
///    cache answers whole completes there; otherwise it is enqueued on the
///    live engine's one bounded request queue and Submit returns. A
///    pool-resident dispatcher fans each queued batch's distinct misses out
///    as individual pool tasks on the pinned snapshot's engine, so no
///    worker blocks on a batch barrier.
///
/// Threading contract of Submit, and of SubmitFuture below:
///
///  * **Who runs the completion.** It runs exactly once: on the pool task
///    that finishes the batch's last distinct miss, or on the submitting
///    thread, before Submit returns, when the batch is settled at
///    submission — expired, shed, or answered wholly from the cache (or
///    empty) while no other batch was in flight. A batch answered wholly
///    from the cache that arrived under load completes on the dispatcher.
///    On a 1-thread pool every path runs inline, so Submit returns after
///    the completion ran. A completion that blocks holds a pool worker (or
///    the submitter) for as long as it blocks; one that takes a lock the
///    submitter holds across Submit deadlocks.
///  * **An unlimited deadline blocks on a full queue.** The submitter waits
///    for room (producer backpressure), and such a batch is never shed.
///  * **A finite deadline never blocks.** Already expired, the batch settles
///    at once with every outcome `Status::Timeout`. On a full queue the
///    batch with the least remaining deadline — a queued one, whichever
///    snapshot it pinned, or the incoming one — is shed with
///    `Status::ResourceExhausted`. A batch whose deadline dies in the queue
///    settles with `Timeout` at dispatch.
///  * **Concurrency and lifetime.** Any number of threads may call either
///    verb concurrently; batches dispatch FIFO across snapshot swaps and
///    complete in any order. The batch holds its snapshot pin until its
///    completion has returned, and drops it before it counts as settled:
///    the live engine's DrainAsync (and so Shutdown and its destructor)
///    blocks until every accepted batch's completion has returned and its
///    pin is gone. A snapshot whose last pin a batch held is destroyed on
///    the thread that settled the batch.

namespace tkc {

/// One batch for the async verb.
struct BatchRequest {
  std::vector<Query> queries;
  /// Unlimited by default. The initializer lets `{queries}` omit it
  /// without a -Wmissing-field-initializers warning.
  Deadline deadline{};
};

/// The completed answer to one batch.
struct BatchResult {
  std::vector<RunOutcome> outcomes;  ///< outcomes[i] answers queries[i]
  /// Version of the graph snapshot the batch executed against (its pin).
  uint64_t snapshot_version = 0;
};

/// Receives a batch's result; see the threading contract above.
using Completion = std::function<void(BatchResult&&)>;

/// Future adapter: Submit whose result settles the returned future.
/// `Engine` is LiveQueryEngine; a template so this header needs only the
/// verb's types.
template <typename Engine>
std::future<BatchResult> SubmitFuture(Engine& engine, BatchRequest request) {
  auto promise = std::make_shared<std::promise<BatchResult>>();
  std::future<BatchResult> future = promise->get_future();
  engine.Submit(std::move(request), [promise](BatchResult&& result) {
    promise->set_value(std::move(result));
  });
  return future;
}

}  // namespace tkc

#endif  // TKC_SERVE_SUBMIT_H_
