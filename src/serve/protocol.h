#ifndef TASFAR_SERVE_PROTOCOL_H_
#define TASFAR_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace tasfar::serve {

/// The TASFAR serving wire protocol (docs/PROTOCOL.md is the normative
/// spec; the `protocol-doc-sync` analyzer rule keeps the two in lockstep).
///
/// Every message travels in one frame:
///
///   offset  size  field
///   0       4     magic: the bytes 'T' 'S' 'F' 'R'
///   4       2     protocol version, little-endian (currently 1)
///   6       2     message type (MessageType), little-endian
///   8       4     payload length in bytes, little-endian
///   12      n     payload (message-specific, see PayloadWriter/Reader)
///
/// All integers are little-endian fixed width; doubles are the IEEE-754
/// bit pattern as a little-endian u64 (exact round trip, no text
/// formatting). Strings are a u32 byte length followed by raw bytes.

/// Frame header magic: 'T','S','F','R' in wire order.
inline constexpr char kFrameMagic[4] = {'T', 'S', 'F', 'R'};

/// Current (and only) protocol version.
inline constexpr uint16_t kProtocolVersion = 1;

/// Frame header size in bytes.
inline constexpr size_t kFrameHeaderBytes = 12;

/// Hard payload bound; a header announcing more is a protocol error (the
/// connection is dropped before any allocation of that size happens).
inline constexpr uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

/// Wire message types. Requests are < 128, responses >= 128. Values are
/// frozen once released — new messages append, nothing is renumbered
/// (docs/PROTOCOL.md §Versioning).
enum class MessageType : uint16_t {
  // Requests.
  kCreateSession = 1,
  kSubmitTargetData = 2,
  kAdapt = 3,
  kQuerySession = 4,
  kPredict = 5,
  kSaveSession = 6,
  kRestoreSession = 7,
  kCloseSession = 8,
  kGetMetrics = 9,
  kPing = 10,
  kInspectSession = 11,
  // Responses.
  kOkResponse = 128,
  kErrorResponse = 129,
  kSessionInfoResponse = 130,
  kPredictResponse = 131,
  kMetricsResponse = 132,
  kPongResponse = 133,
  kSessionTelemetryResponse = 134,
};

/// Traced-frame flag: a frame whose type field has this bit set carries a
/// 16-byte trace-context prefix (trace id u64 LE, span id u64 LE) before
/// the message payload. The real message type is `type & ~kTracedFrameBit`.
/// The flag is opt-in per frame, so untraced peers interoperate unchanged
/// and no payload gains suffix bytes (docs/PROTOCOL.md §Trace context).
inline constexpr uint16_t kTracedFrameBit = 0x8000;

/// Application-level error codes carried by kErrorResponse.
enum class WireError : uint16_t {
  kBadRequest = 1,        ///< Malformed payload or argument.
  kUnknownSession = 2,    ///< No session under that user id.
  kWrongState = 3,        ///< Session state forbids the operation.
  kBudgetExceeded = 4,    ///< Per-session memory budget would overflow.
  kServerBusy = 5,        ///< Admission control rejected (sessions/queue).
  kInternalError = 6,     ///< Server-side failure; session still alive.
  kUnsupportedVersion = 7 ///< Frame version != kProtocolVersion.
};

/// Stable lowercase name of a message type ("create_session", ...);
/// "unknown" for values not in the enum.
const char* MessageTypeName(MessageType type);

/// Stable lowercase name of a wire error code; "unknown" otherwise.
const char* WireErrorName(WireError code);

/// True when `v` is a defined MessageType value.
bool IsKnownMessageType(uint16_t v);

/// One decoded frame. `trace_id`/`span_id` are nonzero only when the
/// frame arrived with kTracedFrameBit set; the 16-byte prefix has already
/// been stripped from `payload`.
struct Frame {
  MessageType type = MessageType::kPing;
  std::string payload;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// Encodes a complete frame (header + payload). payload.size() must be
/// <= kMaxPayloadBytes.
std::string EncodeFrame(MessageType type, const std::string& payload);

/// Encodes a traced frame: kTracedFrameBit is set on the type and the
/// 16-byte trace-context prefix precedes `payload`. With trace_id == 0
/// this degrades to the untraced encoding.
std::string EncodeTracedFrame(MessageType type, const std::string& payload,
                              uint64_t trace_id, uint64_t span_id);

/// Incremental frame decoder for a byte stream. Feed arbitrary chunks
/// with Append; Next yields complete frames in order. A protocol error
/// (bad magic, unsupported version, oversized or unknown-type frame)
/// poisons the reader: Next returns kError from then on and the
/// connection should be dropped.
class FrameReader {
 public:
  enum class ReadResult {
    kFrame,     ///< *frame was filled with the next complete frame.
    kNeedMore,  ///< Not enough buffered bytes yet.
    kError,     ///< Protocol violation; see error().
  };

  /// Appends raw bytes received from the peer.
  void Append(const char* data, size_t n);

  /// Extracts the next complete frame, if any.
  ReadResult Next(Frame* frame);

  /// The first protocol violation seen ("" while healthy).
  const Status& error() const { return error_; }

  /// Bytes currently buffered (tests).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
  Status error_;
};

/// Append-only payload encoder. All Put* use the wire encodings described
/// in the file comment.
class PayloadWriter {
 public:
  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutDouble(double v);
  /// u32 length + raw bytes.
  void PutString(const std::string& s);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Sequential payload decoder. Every Get* returns false (without
/// advancing) when the remaining bytes cannot satisfy the read, so
/// truncated payloads are detected, never over-read.
class PayloadReader {
 public:
  /// Reads `payload` in place: it must outlive the reader.
  explicit PayloadReader(const std::string& payload)
      : data_(payload.data()), size_(payload.size()) {}
  /// A temporary would die before the first read.
  explicit PayloadReader(std::string&&) = delete;

  bool GetU8(uint8_t* v);
  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetDouble(double* v);
  bool GetString(std::string* s);

  /// True when every byte was consumed (decoders require this so a
  /// payload with trailing garbage is rejected).
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool Take(size_t n, const char** out);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tasfar::serve

#endif  // TASFAR_SERVE_PROTOCOL_H_
