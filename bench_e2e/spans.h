#ifndef TASFAR_BENCH_E2E_SPANS_H_
#define TASFAR_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

/// One span recorded by the benchmark's own code around a call into a
/// module's public function. `op_id` links the spans of one operation
/// (and, for calls into the program, equals the program trace id the
/// benchmark installed around the call).
struct SpanEvent {
  const char* name = nullptr;  ///< "<module>.<function>", static storage.
  double start_s = 0.0;
  double dur_s = 0.0;
  uint64_t op_id = 0;
  int thread = 0;
};

/// In-memory span log. Disabled by default; when disabled a Span costs a
/// clock read only where the caller needs the duration anyway.
void EnableSpans(bool enabled);
std::vector<SpanEvent> SnapshotSpans();
/// Writes one JSON object per span; false on I/O failure.
bool WriteSpansJsonl(const std::string& path);

/// Scoped timer: records a SpanEvent on destruction when spans are
/// enabled, and always exposes its elapsed time.
class Span {
 public:
  explicit Span(const char* name, uint64_t op_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since construction.
  double Elapsed() const;

 private:
  const char* name_;
  uint64_t op_id_;
  double start_s_;
};

}  // namespace bench

#endif  // TASFAR_BENCH_E2E_SPANS_H_
