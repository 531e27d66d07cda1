#ifndef TASFAR_TENSOR_WORKSPACE_H_
#define TASFAR_TENSOR_WORKSPACE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "tensor/buffer.h"
#include "tensor/tensor.h"

namespace tasfar {

/// Per-thread pool of tensor buffers for hot-loop scratch and activations.
///
/// `NewTensor` hands out a tensor backed by a free pooled buffer when one
/// is large enough, and allocates (and pools) a new block otherwise. A
/// buffer is "free" again the moment no Tensor references it — there is no
/// explicit release call; dropping the tensor (or overwriting the member
/// that holds it) returns the block to its pool. In steady state a loop
/// that requests the same shape sequence every iteration performs zero
/// buffer allocations (`tasfar.workspace.reuse` counts the hits,
/// `tasfar.tensor.alloc.*` the misses).
///
/// Workspace tensors are ordinary Tensors: they obey copy-on-write, may be
/// returned to callers, and may outlive the loop that created them — the
/// pool keeps a block alive as long as any tensor views it. The only
/// contract difference is that `NewTensor` contents are UNINITIALIZED
/// (possibly stale data from a previous checkout); use `ZeroTensor` when
/// the consumer does not overwrite every element.
///
/// Thread model: `ThreadLocal()` returns this thread's pool (or the pool a
/// `Workspace::Scope` installed on this thread); the Workspace object
/// itself is not synchronized and must only be used by one thread at a
/// time. Tensors drawn from it may be released on any thread (the buffer
/// refcount is atomic); the block simply becomes reusable by the pool's
/// next acquisition. See docs/MEMORY.md.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's workspace: the one the innermost live `Scope`
  /// on this thread installed, else the thread's own pool. Thread-pool
  /// workers are persistent (util/thread_pool.h), so their pools survive
  /// across parallel regions and reuse kicks in from the second pass
  /// onward.
  static Workspace& ThreadLocal();

  /// Routes this thread's `ThreadLocal()` to another workspace for the
  /// scope's lifetime; scopes nest, and destruction restores the previous
  /// routing. For work that hops between pool workers from call to call
  /// (an ensemble member's pass, one ParallelFor task each): pinning each
  /// unit of work to one workspace makes its steady state allocation-free
  /// whichever worker runs it. The caller guarantees one thread at a time
  /// per workspace (a lock, or a ParallelFor region boundary).
  class Scope {
   public:
    explicit Scope(Workspace* workspace);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace* previous_;
  };

  /// Tensor of the given shape with UNINITIALIZED contents, drawn from the
  /// pool when a free buffer fits.
  Tensor NewTensor(std::vector<size_t> shape);

  /// Zero-filled pooled tensor.
  Tensor ZeroTensor(std::vector<size_t> shape);

  /// Number of buffers currently tracked by this pool (free or checked
  /// out).
  size_t PooledBuffers() const { return pool_.size(); }

  /// Drops every pooled buffer that no tensor currently references.
  /// Checked-out buffers stay alive until their tensors release them (and
  /// are then freed, not reused, since the pool no longer tracks them).
  void Trim();

 private:
  // Soft cap on tracked buffers; beyond it free blocks are evicted and, if
  // every block is checked out, new buffers are handed out untracked. Far
  // above what one model forward/backward needs, so steady-state loops
  // never evict.
  static constexpr size_t kMaxPooledBuffers = 256;

  std::shared_ptr<detail::TensorBuffer> Acquire(size_t n);

  std::vector<std::shared_ptr<detail::TensorBuffer>> pool_;
  // Rotating scan start: steady-state loops re-request the same shape
  // sequence, so the next free buffer is usually right after the last hit.
  size_t cursor_ = 0;
};

}  // namespace tasfar

#endif  // TASFAR_TENSOR_WORKSPACE_H_
