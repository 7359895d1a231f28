#ifndef PPP_NET_WIRE_H_
#define PPP_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/row_schema.h"
#include "types/tuple.h"

namespace ppp::net {

/// The wire protocol is a length-prefixed line protocol: every frame is a
/// 4-byte big-endian payload length followed by that many payload bytes.
/// Payloads are tagged text lines — binary-safe, since ROW frames carry
/// serialized tuples after their tag.
///
/// Requests:   QUERY <sql> | PREPARE <name> AS <sql> | EXECUTE <name>(..)
///             | PING | METRICS | CLOSE | SHUTDOWN
/// Responses:  OK <k>=<v>... | ROW <tuple bytes> | ERR <message>
///             | METRICS <json>
///
/// A statement response is zero or more ROW frames terminated by exactly
/// one OK (carrying the schema and counters) or ERR frame. PING, METRICS,
/// CLOSE and SHUTDOWN answer with a single frame.

/// Hard ceiling on a declared payload length; a peer declaring more is
/// malformed (protects the server from one 4 GB allocation).
inline constexpr uint32_t kMaxFrameBytes = 4u << 20;

/// 4-byte big-endian length + payload.
std::string EncodeFrame(std::string_view payload);

/// Strict incremental frame decoder. Feed() buffers arbitrary byte chunks
/// and appends every completed payload to `out`; a declared length above
/// the limit returns InvalidArgument and poisons the parser (the stream
/// offset is lost, so the connection must be dropped — the server survives
/// by closing only that connection). All other byte sequences are merely
/// incomplete, never fatal: resynchronization is the length prefix itself.
class FrameParser {
 public:
  explicit FrameParser(size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Consumes `n` bytes, appending completed frame payloads to `out`.
  common::Status Feed(const char* data, size_t n,
                      std::vector<std::string>* out);

  /// Bytes buffered toward the next (incomplete) frame.
  size_t buffered() const { return buf_.size(); }

  bool poisoned() const { return poisoned_; }

  /// Forgets buffered bytes and clears the poison flag (a fresh stream).
  void Reset();

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  bool poisoned_ = false;
};

/// First whitespace-delimited word of `payload`, uppercased, with the
/// remainder (trimmed of leading whitespace) in `*rest`.
std::string SplitVerb(const std::string& payload, std::string* rest);

/// "t3.a:INT64,t3.b:STRING" — the schema text carried in an OK frame.
std::string EncodeSchema(const types::RowSchema& schema);

/// Parses EncodeSchema output back into a RowSchema.
common::Result<types::RowSchema> DecodeSchema(const std::string& text);

/// "ROW " + Tuple::Serialize() (binary-safe inside the frame).
std::string EncodeRowPayload(const types::Tuple& tuple);

/// Appends the bytes of EncodeFrame(EncodeRowPayload(tuple)) to `out`,
/// writing the length, the tag and the row in place (no temporaries).
void AppendRowFrame(const types::Tuple& tuple, std::string* out);

/// Parses a ROW frame payload (including the tag) back into a tuple,
/// reading the row bytes in place.
common::Result<types::Tuple> DecodeRowPayload(std::string_view payload);

/// Key=value accessor over an OK payload ("OK rows=3 cols=2 ...");
/// returns the empty string when the key is absent.
std::string OkField(const std::string& payload, const std::string& key);

}  // namespace ppp::net

#endif  // PPP_NET_WIRE_H_
