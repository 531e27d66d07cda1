#include "spans.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace bench {

namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<SpanEvent>* Log() {
  static std::vector<SpanEvent>* const kLog = new std::vector<SpanEvent>();
  return kLog;
}

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EnableSpans(bool enabled) { g_enabled.store(enabled); }

std::vector<SpanEvent> SnapshotSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return *Log();
}

bool WriteSpansJsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanEvent& e : SnapshotSpans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"dur_ms\":%.6f,"
                 "\"op_id\":%llu,\"thread\":%d}\n",
                 e.name, e.start_s, e.dur_s * 1e3,
                 static_cast<unsigned long long>(e.op_id), e.thread);
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t op_id)
    : name_(name), op_id_(op_id), start_s_(NowSeconds()) {}

Span::~Span() {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  SpanEvent e;
  e.name = name_;
  e.start_s = start_s_;
  e.dur_s = NowSeconds() - start_s_;
  e.op_id = op_id_;
  e.thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(g_mu);
  Log()->push_back(e);
}

double Span::Elapsed() const { return NowSeconds() - start_s_; }

}  // namespace bench
