#include "tensor/workspace.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace tasfar {

namespace {

/// The workspace installed by the innermost live Scope on this thread.
thread_local Workspace* tls_scoped = nullptr;

}  // namespace

Workspace& Workspace::ThreadLocal() {
  if (tls_scoped != nullptr) return *tls_scoped;
  static thread_local Workspace workspace;
  return workspace;
}

Workspace::Scope::Scope(Workspace* workspace) : previous_(tls_scoped) {
  TASFAR_CHECK(workspace != nullptr);
  tls_scoped = workspace;
}

Workspace::Scope::~Scope() { tls_scoped = previous_; }

std::shared_ptr<detail::TensorBuffer> Workspace::Acquire(size_t n) {
  if (n == 0) return nullptr;
  // Best-fit over free blocks, scanning from the rotating cursor so the
  // steady-state case (same request sequence every pass) hits immediately.
  size_t best = pool_.size();
  size_t best_capacity = 0;
  for (size_t probe = 0; probe < pool_.size(); ++probe) {
    const size_t i = (cursor_ + probe) % pool_.size();
    const auto& buf = pool_[i];
    if (buf->TensorRefs() != 0 || buf->capacity() < n) continue;
    if (best == pool_.size() || buf->capacity() < best_capacity) {
      best = i;
      best_capacity = buf->capacity();
      if (best_capacity == n) break;
    }
  }
  if (best != pool_.size()) {
    cursor_ = (best + 1) % pool_.size();
    detail::NoteWorkspaceReuse();
    return pool_[best];
  }
  auto fresh = std::make_shared<detail::TensorBuffer>(n);
  if (pool_.size() >= kMaxPooledBuffers) {
    Trim();
  }
  if (pool_.size() < kMaxPooledBuffers) {
    pool_.push_back(fresh);
  }
  return fresh;
}

Tensor Workspace::NewTensor(std::vector<size_t> shape) {
  const size_t n = detail::CheckedElementCount(shape);
  return Tensor(Acquire(n), 0, std::move(shape));
}

Tensor Workspace::ZeroTensor(std::vector<size_t> shape) {
  Tensor t = NewTensor(std::move(shape));
  t.Fill(0.0);
  return t;
}

void Workspace::Trim() {
  pool_.erase(std::remove_if(pool_.begin(), pool_.end(),
                             [](const std::shared_ptr<detail::TensorBuffer>&
                                    buf) { return buf->TensorRefs() == 0; }),
              pool_.end());
  cursor_ = 0;
}

}  // namespace tasfar
