#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parse.h"

namespace tasfar {

namespace {

/// Set on every pool worker thread (permanently) and on a ParallelFor
/// caller while it runs chunks of its own region; ParallelFor consults it
/// to run nested parallel regions inline instead of re-entering the queue.
thread_local bool tls_is_pool_worker = false;

/// Pool health metrics. Handles are resolved lazily (thread-safe static
/// locals) so a pool constructed before main() does not race registry
/// setup; all updates are gated on the enabled flag.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* const kGauge =
      obs::Registry::Get().GetGauge("tasfar.thread_pool.queue_depth");
  return kGauge;
}

obs::Counter* RegionsCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.regions");
  return kCounter;
}

obs::Counter* InlineRegionsCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.inline_regions");
  return kCounter;
}

obs::Counter* ChunksCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.chunks");
  return kCounter;
}

obs::Counter* BusyMicrosCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.busy_us");
  return kCounter;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads < 2) return;
  workers_.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_is_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t range = end - begin;
  // Serial fast paths: no workers, a region nested in a chunk (on a worker,
  // or on a caller running its own chunks), or a range that fits in one
  // chunk. All three execute iterations in ascending order, like every
  // chunk below, so the result is the same.
  if (workers_.empty() || tls_is_pool_worker || range <= grain) {
    if (obs::MetricsEnabled()) InlineRegionsCounter()->Increment();
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const bool metrics = obs::MetricsEnabled();
  // The submitting thread's trace context rides into every chunk so
  // worker-side spans chain onto the submitter's trace (one TLS read here,
  // only when tracing is on; {0,0} otherwise is a no-op install).
  const obs::TraceContext trace_ctx =
      obs::TracingEnabled() ? obs::CurrentTraceContext()
                            : obs::TraceContext{};
  // ~4 chunks per worker balances uneven iteration costs without a
  // stealing scheduler; `grain` keeps chunks from getting too fine.
  const size_t target_chunks = workers_.size() * 4;
  const size_t chunk =
      std::max(grain, (range + target_chunks - 1) / target_chunks);
  const size_t num_chunks = (range + chunk - 1) / chunk;

  // Per-region state shared by the caller and its helper tasks: the next
  // chunk to claim, a completion latch and the first exception captured.
  // Heap-allocated so a helper dequeued after the region returned still
  // finds it (and then claims nothing, so it never touches `fn`).
  struct Region {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending = 0;  // Chunks not yet finished.
    std::exception_ptr first_error;
  };
  auto region = std::make_shared<Region>();
  region->pending = num_chunks;
  // Claims chunks until none is left, then reports how many it ran.
  auto work = [region, begin, end, chunk, num_chunks, &fn, metrics,
               trace_ctx] {
    size_t ran = 0;
    for (;; ++ran) {
      const size_t c = region->next.fetch_add(1);
      if (c >= num_chunks) break;
      const size_t lo = begin + c * chunk;
      const size_t hi = std::min(lo + chunk, end);
      const uint64_t t0 = metrics ? obs::MonotonicMicros() : 0;
      {
        obs::ScopedTraceContext tctx(trace_ctx);
        TASFAR_TRACE_SPAN("thread_pool.chunk");
        try {
          for (size_t i = lo; i < hi; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> rlock(region->mu);
          if (!region->first_error) {
            region->first_error = std::current_exception();
          }
        }
      }
      if (metrics) {
        BusyMicrosCounter()->Increment(obs::MonotonicMicros() - t0);
      }
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> rlock(region->mu);
    region->pending -= ran;
    if (region->pending == 0) region->done_cv.notify_all();
  };

  // The caller runs chunks too, so a region never needs more helpers than
  // it has chunks besides the caller's first, nor more than the workers.
  const size_t helpers = std::min(num_chunks - 1, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    TASFAR_CHECK_MSG(!stop_, "ParallelFor on a stopped ThreadPool");
    for (size_t h = 0; h < helpers; ++h) queue_.emplace_back(work);
    if (metrics) {
      RegionsCounter()->Increment();
      ChunksCounter()->Increment(num_chunks);
      QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
    }
  }
  for (size_t h = 0; h < helpers; ++h) cv_.notify_one();

  // While the caller runs chunks it counts as a worker, so regions nested
  // in them run inline.
  tls_is_pool_worker = true;
  work();
  tls_is_pool_worker = false;

  std::unique_lock<std::mutex> rlock(region->mu);
  region->done_cv.wait(rlock, [&region] { return region->pending == 0; });
  if (region->first_error) std::rethrow_exception(region->first_error);
}

BackgroundThread::BackgroundThread(std::string name,
                                   std::function<void()> body)
    : name_(std::move(name)), thread_(std::move(body)) {}

BackgroundThread::~BackgroundThread() {
  if (thread_.joinable()) thread_.join();
}

namespace {

size_t DefaultNumThreads() {
  if (const char* env = std::getenv("TASFAR_NUM_THREADS")) {
    const std::optional<uint64_t> v = ParseUnsigned(env, 1, kMaxNumThreads);
    if (v.has_value()) return static_cast<size_t>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultNumThreads());
  return *slot;
}

}  // namespace

size_t GetNumThreads() { return GlobalPool().num_threads(); }

void SetNumThreads(size_t num_threads) {
  const size_t n = num_threads == 0 ? DefaultNumThreads() : num_threads;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  slot.reset();  // Join the old workers before spawning the new pool.
  slot = std::make_unique<ThreadPool>(n);
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn) {
  GlobalPool().ParallelFor(begin, end, grain, fn);
}

}  // namespace tasfar
