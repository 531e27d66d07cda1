#ifndef TASFAR_UTIL_THREAD_POOL_H_
#define TASFAR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tasfar {

/// Fixed-size thread pool with a deterministic `ParallelFor` — the only
/// parallel execution primitive in the library (tools/analyze forbids raw
/// `std::thread` anywhere else; see docs/THREADING.md for the threading
/// model and determinism contract).
///
/// Design constraints, in order:
///  1. *Determinism.* ParallelFor only ever partitions an index range into
///     contiguous chunks; it never reorders iterations within a chunk and
///     callers write to disjoint, pre-sized outputs. Any computation whose
///     per-index work is a pure function of the index therefore produces
///     bit-identical results at every thread count (including 1).
///  2. *No nesting surprises.* A ParallelFor issued from inside a chunk
///     runs inline on that thread (a thread-local flag marks pool workers,
///     and the caller while it runs chunks of its own region), so nested
///     parallel regions cannot deadlock the pool. Concurrency is bounded by
///     the pool size plus the threads inside ParallelFor.
///  3. *Simplicity over stealing.* A region's chunks are claimed from one
///     atomic index, by the caller and by at most one helper task per
///     worker, queued on a single FIFO guarded by one mutex. The networks
///     in this repo are small; chunk counts are tens, not millions, so a
///     work-stealing scheduler would buy nothing.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (values 0 and 1 spawn none; every
  /// ParallelFor then runs inline on the calling thread).
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers. Outstanding ParallelFor calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution lanes (1 when no workers were spawned).
  size_t num_threads() const {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// Calls `fn(i)` for every i in [begin, end), partitioned into
  /// contiguous chunks of at least `grain` iterations (grain 0 is treated
  /// as 1), and returns when all iterations completed. The caller runs
  /// chunks too, and wakes at most min(chunks - 1, workers) workers to
  /// help. Empty ranges return immediately. If any `fn` throws, the first
  /// exception captured is rethrown on the calling thread after the region
  /// drains (remaining chunks still run).
  ///
  /// `fn` runs concurrently with itself: it must only touch state that is
  /// disjoint per index (or otherwise synchronized by the caller).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// A single named long-lived thread with RAII join semantics — the one
/// sanctioned way to run something *other than* data-parallel chunks off
/// the calling thread (tools/analyze forbids raw `std::thread` outside this
/// file). The serving layer uses it for its network loop and its adapt-job
/// runner (docs/THREADING.md §Background threads); compute inside the body
/// still fans out through the global ParallelFor, where the body's thread
/// works its own regions beside the pool's workers.
///
/// The body runs exactly once. Destruction joins (it does not signal the
/// body to stop — owners needing cancellation must provide their own flag
/// and set it before destroying the BackgroundThread).
class BackgroundThread {
 public:
  /// Starts `body` immediately on a fresh thread. `name` is for
  /// diagnostics only.
  BackgroundThread(std::string name, std::function<void()> body);

  /// Joins the thread (blocks until `body` returns).
  ~BackgroundThread();

  BackgroundThread(const BackgroundThread&) = delete;
  BackgroundThread& operator=(const BackgroundThread&) = delete;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::thread thread_;
};

/// Largest TASFAR_NUM_THREADS the global pool accepts. A value outside
/// [1, kMaxNumThreads], or one that is not a whole unsigned decimal, is
/// ignored: the pool takes std::thread::hardware_concurrency() instead.
inline constexpr size_t kMaxNumThreads = 1024;

/// Number of threads the global pool uses (lazily created on first use).
size_t GetNumThreads();

/// Replaces the global pool with one of `num_threads` threads (0 restores
/// the default: the TASFAR_NUM_THREADS environment variable if it holds a
/// valid count, else std::thread::hardware_concurrency()). Must not be
/// called while another thread is inside a global ParallelFor.
void SetNumThreads(size_t num_threads);

/// ParallelFor on the global pool; see ThreadPool::ParallelFor.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn);

/// Below this many multiply-adds a region runs as one inline chunk on the
/// calling thread: the hand-off to the workers would cost more than they
/// save (64³ = 262,144 sits just above).
inline constexpr size_t kParallelMinMadds = size_t{1} << 17;

/// Grain for a ParallelFor over `items` indices that do `madds`
/// multiply-adds in all: the whole range (one inline chunk) below
/// kParallelMinMadds, else 1.
inline size_t ParallelGrain(size_t items, size_t madds) {
  return madds < kParallelMinMadds ? items : 1;
}

}  // namespace tasfar

#endif  // TASFAR_UTIL_THREAD_POOL_H_
