#include "serve/protocol.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ascend::serve {

namespace {

// Little-endian field writers/readers. The wire format is explicitly LE; the
// shifts fix the byte order independently of the host's, and floats travel as
// their IEEE-754 bit pattern (memcpy to a fixed-width integer, no aliasing
// UB). Writers store through a cursor into a buffer already grown to the
// frame's wire size, so a frame costs one resize, not a push_back per byte.
template <typename T>
std::uint8_t* put(std::uint8_t* p, T v) {
  static_assert(std::is_integral_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<std::uint8_t>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF);
  return p + sizeof(T);
}

template <typename T>
T get(const std::uint8_t* p) {
  static_assert(std::is_integral_v<T>);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return static_cast<T>(v);
}

void put_f32s(std::uint8_t* p, const std::vector<float>& v) {
  for (float f : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    p = put(p, bits);
  }
}

/// Grows `out` by `n` bytes and returns the first new byte.
std::uint8_t* grow(std::vector<std::uint8_t>& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

float get_f32(const std::uint8_t* p) {
  const std::uint32_t bits = get<std::uint32_t>(p);
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kBadMagic: return "bad-magic";
    case Status::kBadVersion: return "bad-version";
    case Status::kBadFrame: return "bad-frame";
    case Status::kTruncated: return "truncated";
    case Status::kUnknownVariant: return "unknown-variant";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kRetryAfter: return "retry-after";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kWatchdogTimeout: return "watchdog-timeout";
    case Status::kInjectedFault: return "injected-fault";
    case Status::kInternal: return "internal";
  }
  return "?";
}

std::size_t request_wire_size(const RequestFrame& frame) {
  return kRequestHeaderBytes + frame.options.variant.size() +
         frame.options.retry.fallback_variant.size() + 4 * frame.payload.size();
}

std::size_t response_wire_size(const ResponseFrame& frame) {
  return kResponseHeaderBytes + 4 * frame.logits.size();
}

void append_request(std::vector<std::uint8_t>& out, const RequestFrame& frame) {
  const runtime::RequestOptions& o = frame.options;
  if (o.variant.size() > 255 || o.retry.fallback_variant.size() > 255)
    throw std::invalid_argument("append_request: variant id over 255 bytes");
  if (frame.payload.size() > kMaxPayloadFloats)
    throw std::invalid_argument("append_request: payload over kMaxPayloadFloats");
  if (o.retry.max_attempts < 0 || o.retry.max_attempts > 255)
    throw std::invalid_argument("append_request: max_attempts out of range");
  const auto deadline_us = o.deadline.count();
  if (deadline_us < 0 || deadline_us > 0xFFFFFFFFll)
    throw std::invalid_argument("append_request: deadline out of u32 microseconds");
  std::uint8_t* p = grow(out, request_wire_size(frame));
  p = put(p, kMagic);
  p = put(p, kVersion);
  p = put(p, frame.flags);
  p = put(p, frame.request_id);
  p = put(p, static_cast<std::uint8_t>(o.priority));
  p = put(p, static_cast<std::uint8_t>(o.variant.size()));
  p = put(p, static_cast<std::uint8_t>(o.retry.fallback_variant.size()));
  p = put(p, static_cast<std::uint8_t>(o.retry.max_attempts));
  p = put(p, static_cast<std::uint32_t>(deadline_us));
  p = put(p, static_cast<std::uint32_t>(frame.payload.size()));
  p = std::copy(o.variant.begin(), o.variant.end(), p);
  p = std::copy(o.retry.fallback_variant.begin(), o.retry.fallback_variant.end(), p);
  put_f32s(p, frame.payload);
}

void append_response(std::vector<std::uint8_t>& out, const ResponseFrame& frame) {
  if (frame.logits.size() > kMaxPayloadFloats)
    throw std::invalid_argument("append_response: logits over kMaxPayloadFloats");
  std::uint8_t* p = grow(out, response_wire_size(frame));
  p = put(p, kMagic);
  p = put(p, kVersion);
  p = put(p, static_cast<std::uint16_t>(frame.status));
  p = put(p, frame.request_id);
  p = put(p, static_cast<std::uint32_t>(frame.label));
  p = put(p, frame.retry_after_ms);
  p = put(p, frame.attempts);
  p = put(p, static_cast<std::uint8_t>(frame.degraded ? 1 : 0));
  p = put(p, frame.shard);
  p = put(p, static_cast<std::uint32_t>(frame.logits.size()));
  put_f32s(p, frame.logits);
}

DecodeResult decode_request(const std::uint8_t* data, std::size_t size, std::size_t& consumed,
                            RequestFrame& out, Status& error, std::uint64_t& error_request_id) {
  consumed = 0;
  error_request_id = 0;
  // Magic and version are checked as soon as their bytes are present: a
  // foreign or desynchronized peer is rejected without waiting for a "frame"
  // that will never complete.
  if (size < 4) return DecodeResult::kNeedMore;
  if (get<std::uint32_t>(data) != kMagic) {
    error = Status::kBadMagic;
    return DecodeResult::kError;
  }
  if (size < 6) return DecodeResult::kNeedMore;
  if (size >= 16) error_request_id = get<std::uint64_t>(data + 8);
  if (get<std::uint16_t>(data + 4) != kVersion) {
    error = Status::kBadVersion;
    return DecodeResult::kError;
  }
  if (size < kRequestHeaderBytes) return DecodeResult::kNeedMore;
  const std::uint16_t flags = get<std::uint16_t>(data + 6);
  const std::uint64_t request_id = get<std::uint64_t>(data + 8);
  const std::uint8_t priority = data[16];
  const std::uint8_t variant_len = data[17];
  const std::uint8_t fallback_len = data[18];
  const std::uint8_t max_attempts = data[19];
  const std::uint32_t deadline_us = get<std::uint32_t>(data + 20);
  const std::uint32_t payload_floats = get<std::uint32_t>(data + 24);
  if (payload_floats > kMaxPayloadFloats ||
      priority >= static_cast<std::uint8_t>(runtime::kNumPriorities)) {
    error = Status::kBadFrame;
    return DecodeResult::kError;
  }
  const std::size_t total = kRequestHeaderBytes + variant_len + fallback_len +
                            4 * static_cast<std::size_t>(payload_floats);
  if (size < total) return DecodeResult::kNeedMore;

  out.request_id = request_id;
  out.flags = flags;
  out.options = runtime::RequestOptions{};
  const std::uint8_t* p = data + kRequestHeaderBytes;
  out.options.variant.assign(reinterpret_cast<const char*>(p), variant_len);
  p += variant_len;
  out.options.retry.fallback_variant.assign(reinterpret_cast<const char*>(p), fallback_len);
  p += fallback_len;
  out.options.priority = static_cast<runtime::Priority>(priority);
  out.options.deadline = std::chrono::microseconds(deadline_us);
  out.options.retry.max_attempts = max_attempts == 0 ? 1 : max_attempts;
  out.payload.resize(payload_floats);
  for (std::uint32_t i = 0; i < payload_floats; ++i) out.payload[i] = get_f32(p + 4 * i);
  consumed = total;
  return DecodeResult::kFrame;
}

DecodeResult decode_response(const std::uint8_t* data, std::size_t size, std::size_t& consumed,
                             ResponseFrame& out, Status& error) {
  consumed = 0;
  if (size < 4) return DecodeResult::kNeedMore;
  if (get<std::uint32_t>(data) != kMagic) {
    error = Status::kBadMagic;
    return DecodeResult::kError;
  }
  if (size < 6) return DecodeResult::kNeedMore;
  if (get<std::uint16_t>(data + 4) != kVersion) {
    error = Status::kBadVersion;
    return DecodeResult::kError;
  }
  if (size < kResponseHeaderBytes) return DecodeResult::kNeedMore;
  const std::uint32_t logit_count = get<std::uint32_t>(data + 28);
  if (logit_count > kMaxPayloadFloats) {
    error = Status::kBadFrame;
    return DecodeResult::kError;
  }
  const std::size_t total = kResponseHeaderBytes + 4 * static_cast<std::size_t>(logit_count);
  if (size < total) return DecodeResult::kNeedMore;

  out.status = static_cast<Status>(get<std::uint16_t>(data + 6));
  out.request_id = get<std::uint64_t>(data + 8);
  out.label = static_cast<std::int32_t>(get<std::uint32_t>(data + 16));
  out.retry_after_ms = get<std::uint32_t>(data + 20);
  out.attempts = data[24];
  out.degraded = data[25] != 0;
  out.shard = get<std::uint16_t>(data + 26);
  out.logits.resize(logit_count);
  const std::uint8_t* p = data + kResponseHeaderBytes;
  for (std::uint32_t i = 0; i < logit_count; ++i) out.logits[i] = get_f32(p + 4 * i);
  consumed = total;
  return DecodeResult::kFrame;
}

}  // namespace ascend::serve
