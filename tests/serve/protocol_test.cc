// Unit tier for the serving wire codec (src/serve/protocol.h): frame
// round trips, incremental decode, protocol-error poisoning, and the
// payload primitive encodings. docs/PROTOCOL.md is the normative spec.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

namespace tasfar::serve {
namespace {

std::string PayloadOf(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>('a' + i % 26);
  return s;
}

// --- frame round trips ------------------------------------------------------

TEST(FrameTest, EncodeDecodeRoundTrip) {
  const std::string payload = PayloadOf(37);
  const std::string wire = EncodeFrame(MessageType::kPredict, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());
  EXPECT_EQ(wire.compare(0, 4, kFrameMagic, 4), 0);

  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kFrame);
  EXPECT_EQ(frame.type, MessageType::kPredict);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(reader.Next(&frame), FrameReader::ReadResult::kNeedMore);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameTest, EmptyPayloadRoundTrip) {
  const std::string wire = EncodeFrame(MessageType::kPing, "");
  ASSERT_EQ(wire.size(), kFrameHeaderBytes);
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kFrame);
  EXPECT_EQ(frame.type, MessageType::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, ByteAtATimeDelivery) {
  const std::string payload = PayloadOf(11);
  const std::string wire = EncodeFrame(MessageType::kAdapt, payload);
  FrameReader reader;
  Frame frame;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    reader.Append(&wire[i], 1);
    ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kNeedMore)
        << "frame completed early at byte " << i;
  }
  reader.Append(&wire[wire.size() - 1], 1);
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kFrame);
  EXPECT_EQ(frame.type, MessageType::kAdapt);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameTest, MultipleFramesInOneAppend) {
  const std::string wire = EncodeFrame(MessageType::kPing, "") +
                           EncodeFrame(MessageType::kGetMetrics, "") +
                           EncodeFrame(MessageType::kQuerySession, "abc");
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kFrame);
  EXPECT_EQ(frame.type, MessageType::kPing);
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kFrame);
  EXPECT_EQ(frame.type, MessageType::kGetMetrics);
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kFrame);
  EXPECT_EQ(frame.type, MessageType::kQuerySession);
  EXPECT_EQ(frame.payload, "abc");
  EXPECT_EQ(reader.Next(&frame), FrameReader::ReadResult::kNeedMore);
}

// --- protocol errors --------------------------------------------------------

TEST(FrameTest, BadMagicPoisonsReader) {
  std::string wire = EncodeFrame(MessageType::kPing, "");
  wire[0] = 'X';
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kError);
  EXPECT_FALSE(reader.error().ok());

  // Poisoned: even a pristine follow-up frame is rejected.
  const std::string good = EncodeFrame(MessageType::kPing, "");
  reader.Append(good.data(), good.size());
  EXPECT_EQ(reader.Next(&frame), FrameReader::ReadResult::kError);
}

TEST(FrameTest, UnsupportedVersionIsError) {
  std::string wire = EncodeFrame(MessageType::kPing, "");
  wire[4] = 2;  // version LE low byte
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kError);
  EXPECT_NE(reader.error().message().find("version"), std::string::npos);
}

TEST(FrameTest, UnknownMessageTypeIsError) {
  std::string wire = EncodeFrame(MessageType::kPing, "");
  wire[6] = 99;  // type LE low byte: not a defined MessageType
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(reader.Next(&frame), FrameReader::ReadResult::kError);
}

TEST(FrameTest, OversizedPayloadLengthIsErrorBeforeBodyArrives) {
  std::string wire = EncodeFrame(MessageType::kPing, "");
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&wire[8], &huge, sizeof(huge));
  FrameReader reader;
  // Header alone is enough to reject — no 64 MiB allocation happens.
  reader.Append(wire.data(), kFrameHeaderBytes);
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kError);
  EXPECT_FALSE(reader.error().ok());
}

TEST(FrameTest, MaxPayloadBoundIsInclusive) {
  // A header announcing exactly kMaxPayloadBytes is legal (kNeedMore until
  // the body arrives), one byte more is not.
  std::string header = EncodeFrame(MessageType::kPing, "");
  uint32_t len = kMaxPayloadBytes;
  std::memcpy(&header[8], &len, sizeof(len));
  FrameReader ok_reader;
  ok_reader.Append(header.data(), kFrameHeaderBytes);
  Frame frame;
  EXPECT_EQ(ok_reader.Next(&frame), FrameReader::ReadResult::kNeedMore);
}

// --- enum names -------------------------------------------------------------

TEST(NamesTest, MessageTypeNames) {
  EXPECT_STREQ(MessageTypeName(MessageType::kCreateSession), "create_session");
  EXPECT_STREQ(MessageTypeName(MessageType::kPongResponse), "pong_response");
  EXPECT_STREQ(MessageTypeName(static_cast<MessageType>(999)), "unknown");
}

TEST(NamesTest, WireErrorNames) {
  EXPECT_STREQ(WireErrorName(WireError::kBudgetExceeded), "budget_exceeded");
  EXPECT_STREQ(WireErrorName(static_cast<WireError>(999)), "unknown");
}

TEST(NamesTest, KnownMessageTypes) {
  EXPECT_TRUE(IsKnownMessageType(1));
  EXPECT_TRUE(IsKnownMessageType(10));
  EXPECT_TRUE(IsKnownMessageType(11));   // kInspectSession
  EXPECT_TRUE(IsKnownMessageType(128));
  EXPECT_TRUE(IsKnownMessageType(133));
  EXPECT_TRUE(IsKnownMessageType(134));  // kSessionTelemetryResponse
  EXPECT_FALSE(IsKnownMessageType(0));
  EXPECT_FALSE(IsKnownMessageType(12));
  EXPECT_FALSE(IsKnownMessageType(127));
  EXPECT_FALSE(IsKnownMessageType(135));
}

// --- traced frames ----------------------------------------------------------

TEST(TracedFrameTest, PrefixRoundTripsAndIsStripped) {
  const std::string payload = "user";
  const std::string wire =
      EncodeTracedFrame(MessageType::kQuerySession, payload,
                        /*trace_id=*/0x1122334455667788ull,
                        /*span_id=*/0x99AABBCCDDEEFF00ull);
  // On the wire: type field carries the flag, length covers prefix+payload.
  uint16_t wire_type = 0;
  std::memcpy(&wire_type, wire.data() + 6, sizeof(wire_type));
  EXPECT_EQ(wire_type & kTracedFrameBit, kTracedFrameBit);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + 16 + payload.size());

  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kFrame);
  // The reader strips the prefix: the payload is byte-identical to an
  // untraced frame's and the context surfaces in dedicated fields.
  EXPECT_EQ(frame.type, MessageType::kQuerySession);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(frame.trace_id, 0x1122334455667788ull);
  EXPECT_EQ(frame.span_id, 0x99AABBCCDDEEFF00ull);
}

TEST(TracedFrameTest, ZeroTraceIdEncodesUntraced) {
  // Trace id 0 means "no context" — the encoder falls back to a plain
  // frame rather than shipping a meaningless prefix.
  const std::string wire =
      EncodeTracedFrame(MessageType::kPing, "", /*trace_id=*/0,
                        /*span_id=*/7);
  EXPECT_EQ(wire, EncodeFrame(MessageType::kPing, ""));
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kFrame);
  EXPECT_EQ(frame.trace_id, 0u);
  EXPECT_EQ(frame.span_id, 0u);
}

TEST(TracedFrameTest, TracedFrameShorterThanPrefixIsProtocolError) {
  std::string wire = EncodeFrame(MessageType::kPing, "tiny");
  uint16_t type = 0;
  std::memcpy(&type, wire.data() + 6, sizeof(type));
  type |= kTracedFrameBit;
  std::memcpy(&wire[6], &type, sizeof(type));
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::ReadResult::kError);
  EXPECT_FALSE(reader.error().ok());
}

TEST(TracedFrameTest, UnknownRealTypeUnderFlagIsError) {
  // The flag does not smuggle unknown message types past validation.
  const std::string wire =
      EncodeTracedFrame(MessageType::kPing, "", /*trace_id=*/5,
                        /*span_id=*/6);
  std::string bad = wire;
  bad[6] = 99;  // low byte of type: 99 | 0x8000 after the flag byte
  FrameReader reader;
  reader.Append(bad.data(), bad.size());
  Frame frame;
  EXPECT_EQ(reader.Next(&frame), FrameReader::ReadResult::kError);
}

// --- payload primitives -----------------------------------------------------

TEST(PayloadTest, AllPrimitivesRoundTrip) {
  PayloadWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutDouble(-0.1);
  w.PutDouble(std::numeric_limits<double>::infinity());
  w.PutString("hello");
  w.PutString("");

  PayloadReader r(w.bytes());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d1 = 0, d2 = 0;
  std::string s1, s2;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU16(&u16));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetDouble(&d1));
  ASSERT_TRUE(r.GetDouble(&d2));
  ASSERT_TRUE(r.GetString(&s1));
  ASSERT_TRUE(r.GetString(&s2));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(d1, -0.1);  // bit-pattern transport: exact
  EXPECT_EQ(d2, std::numeric_limits<double>::infinity());
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(PayloadTest, DoubleBitPatternSurvivesExactly) {
  // The value 0.1 has no finite binary expansion; text formatting loses
  // bits, the wire encoding must not.
  PayloadWriter w;
  const double x = 0.1;
  w.PutDouble(x);
  PayloadReader r(w.bytes());
  double y = 0;
  ASSERT_TRUE(r.GetDouble(&y));
  EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0);
}

TEST(PayloadTest, UnderrunReturnsFalseWithoutAdvancing) {
  PayloadWriter w;
  w.PutU16(7);
  PayloadReader r(w.bytes());
  uint32_t u32 = 0;
  EXPECT_FALSE(r.GetU32(&u32));  // only 2 bytes buffered
  EXPECT_EQ(r.remaining(), 2u);  // position unchanged
  uint16_t u16 = 0;
  ASSERT_TRUE(r.GetU16(&u16));
  EXPECT_EQ(u16, 7);
}

TEST(PayloadTest, TruncatedStringRestoresPosition) {
  // Length prefix says 100 bytes but only 3 follow.
  PayloadWriter w;
  w.PutU32(100);
  const std::string payload = w.bytes() + "abc";
  PayloadReader r(payload);
  std::string s;
  EXPECT_FALSE(r.GetString(&s));
  // The u32 length is restored too, so the caller can re-read it.
  EXPECT_EQ(r.remaining(), 7u);
  uint32_t len = 0;
  ASSERT_TRUE(r.GetU32(&len));
  EXPECT_EQ(len, 100u);
}

TEST(PayloadTest, AtEndDetectsTrailingGarbage) {
  PayloadWriter w;
  w.PutU8(1);
  w.PutU8(2);
  PayloadReader r(w.bytes());
  uint8_t v = 0;
  ASSERT_TRUE(r.GetU8(&v));
  EXPECT_FALSE(r.AtEnd());
  ASSERT_TRUE(r.GetU8(&v));
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace tasfar::serve
