#include "psc/exec/parallel.h"

#include <memory>

#include "psc/obs/metrics.h"
#include "psc/obs/scope.h"
#include "psc/obs/trace.h"
#include "psc/sync/mutex.h"

namespace psc {
namespace exec {

namespace {

/// Countdown latch for fork-join completion (C++20 std::latch is not yet
/// universally available on the supported toolchains).
struct Latch {
  sync::Mutex mutex{"exec.parallel.latch", sync::kRankExecLatch};
  sync::CondVar cv;
  size_t remaining PSC_GUARDED_BY(mutex);

  explicit Latch(size_t count) : remaining(count) {}

  void CountDown() {
    sync::MutexLock lock(&mutex);
    if (--remaining == 0) cv.NotifyAll();
  }

  void Wait() {
    sync::MutexLock lock(&mutex);
    while (remaining != 0) cv.Wait(mutex);
  }
};

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body,
                 const limits::CancelToken* cancel) {
  if (n == 0) return;
  if (RunsInline(pool, n)) {
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->cancelled()) {
        PSC_OBS_COUNTER_ADD("exec.shards_cancelled", n - i);
        return;
      }
      body(i);
    }
    return;
  }
  const auto latch = std::make_shared<Latch>(n);
  // The token is copied into the closure (copies share state) so the
  // caller's `cancel` pointer need not outlive late-running shards.
  const limits::CancelToken token =
      cancel != nullptr ? *cancel : limits::CancelToken();
  const bool cancellable = cancel != nullptr;
  // The submitting thread's telemetry context (active obs::Scope +
  // innermost open span) travels with every shard, so the query's metric
  // attribution and span tree survive work-stealing onto other threads.
  const obs::TraceContext trace_context = obs::CaptureTraceContext();
  for (size_t i = 0; i < n; ++i) {
    pool->Submit([&body, latch, token, cancellable, trace_context, i] {
      const obs::TraceContextGuard trace_guard(trace_context);
      if (cancellable && token.cancelled()) {
        PSC_OBS_COUNTER_INC("exec.shards_cancelled");
      } else {
        PSC_OBS_SPAN("exec.shard");
        body(i);
      }
      latch->CountDown();
    });
  }
  latch->Wait();
}

}  // namespace exec
}  // namespace psc
