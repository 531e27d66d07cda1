#include "nn/sequential.h"

#include "util/rng.h"

namespace tasfar {

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  TASFAR_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::Forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->Forward(x, training);
  return x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (size_t i = layers_.size(); i > 0; --i) g = layers_[i - 1]->Backward(g);
  return g;
}

void Sequential::BackwardParams(const Tensor& grad_output) {
  BackwardFrom(grad_output, layers_.size());
}

bool Sequential::SupportsF32() const {
  for (const auto& layer : layers_) {
    if (!layer->SupportsF32()) return false;
  }
  return true;
}

void Sequential::ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                            bool training) {
  ForwardF32(in, out, training, 0, layers_.size());
}

void Sequential::ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                            bool training, size_t begin, size_t end) {
  TASFAR_CHECK(out != nullptr && out != &in);
  TASFAR_CHECK(begin <= end && end <= layers_.size());
  if (begin == end) {
    out->CopyFrom(in);
    return;
  }
  const simd::F32Tensor* cur = &in;
  for (size_t i = begin; i < end; ++i) {
    simd::F32Tensor* dst = (i + 1 == end)
                               ? out
                               : (cur == &stage_a_ ? &stage_b_ : &stage_a_);
    layers_[i]->ForwardF32(*cur, dst, training);
    cur = dst;
  }
}

Tensor Sequential::ForwardTo(const Tensor& input, size_t cut, bool training) {
  TASFAR_CHECK(cut <= layers_.size());
  Tensor x = input;
  for (size_t i = 0; i < cut; ++i) x = layers_[i]->Forward(x, training);
  return x;
}

Tensor Sequential::ForwardFrom(const Tensor& features, size_t cut,
                               bool training) {
  TASFAR_CHECK(cut <= layers_.size());
  Tensor x = features;
  for (size_t i = cut; i < layers_.size(); ++i) {
    x = layers_[i]->Forward(x, training);
  }
  return x;
}

void Sequential::BackwardFrom(const Tensor& grad, size_t cut) {
  TASFAR_CHECK(cut <= layers_.size());
  if (cut == 0) return;
  Tensor g = grad;
  for (size_t i = cut; i > 1; --i) g = layers_[i - 1]->Backward(g);
  layers_[0]->BackwardParams(g);
}

std::vector<Tensor*> Sequential::Params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::Grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->Grads()) out.push_back(g);
  }
  return out;
}

std::unique_ptr<Layer> Sequential::Clone() const { return CloneSequential(); }

std::unique_ptr<Sequential> Sequential::CloneSequential() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& layer : layers_) copy->Add(layer->Clone());
  return copy;
}

void Sequential::ReseedStochastic(uint64_t seed) {
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ReseedStochastic(MixSeed(seed, i));
  }
}

bool Sequential::HasStochasticState() const {
  for (const auto& layer : layers_) {
    if (layer->HasStochasticState()) return true;
  }
  return false;
}

std::string Sequential::Name() const {
  std::string out = "Sequential[";
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out += ", ";
    out += layers_[i]->Name();
  }
  out += "]";
  return out;
}

size_t Sequential::ParameterCount() {
  size_t n = 0;
  for (Tensor* p : Params()) n += p->size();
  return n;
}

void Sequential::CopyParamsFrom(Sequential& other) {
  auto dst = Params();
  auto src = other.Params();
  TASFAR_CHECK_MSG(dst.size() == src.size(),
                   "CopyParamsFrom requires identical architectures");
  for (size_t i = 0; i < dst.size(); ++i) {
    TASFAR_CHECK(dst[i]->SameShape(*src[i]));
    *dst[i] = *src[i];
  }
}

}  // namespace tasfar
