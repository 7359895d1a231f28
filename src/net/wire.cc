#include "net/wire.h"

#include <cctype>

#include "common/string_util.h"

namespace ppp::net {

namespace {

/// Writes `n` as the 4-byte big-endian length prefix at `dst`.
void PutLength(uint32_t n, char* dst) {
  dst[0] = static_cast<char>((n >> 24) & 0xff);
  dst[1] = static_cast<char>((n >> 16) & 0xff);
  dst[2] = static_cast<char>((n >> 8) & 0xff);
  dst[3] = static_cast<char>(n & 0xff);
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(4 + payload.size());
  out.append(4, '\0');
  PutLength(static_cast<uint32_t>(payload.size()), out.data());
  out.append(payload);
  return out;
}

void AppendRowFrame(const types::Tuple& tuple, std::string* out) {
  const size_t start = out->size();
  out->append(4, '\0');
  out->append("ROW ");
  tuple.AppendSerialized(out);
  PutLength(static_cast<uint32_t>(out->size() - start - 4),
            out->data() + start);
}

common::Status FrameParser::Feed(const char* data, size_t n,
                                 std::vector<std::string>* out) {
  if (poisoned_) {
    return common::Status::InvalidArgument(
        "frame parser poisoned by an earlier protocol violation");
  }
  buf_.append(data, n);
  // Frames are read at an offset and the consumed prefix is dropped once
  // per call: erasing per frame would move the rest of the buffer each
  // time, quadratic in the frames one chunk carries.
  size_t pos = 0;
  common::Status status = common::Status::OK();
  while (buf_.size() - pos >= 4) {
    const auto* b = reinterpret_cast<const unsigned char*>(buf_.data() + pos);
    const uint32_t len = (static_cast<uint32_t>(b[0]) << 24) |
                         (static_cast<uint32_t>(b[1]) << 16) |
                         (static_cast<uint32_t>(b[2]) << 8) |
                         static_cast<uint32_t>(b[3]);
    if (len > max_frame_bytes_) {
      poisoned_ = true;
      status = common::Status::InvalidArgument(common::StringPrintf(
          "declared frame length %u exceeds limit %zu",
          len, max_frame_bytes_));
      break;
    }
    if (buf_.size() - pos - 4 < static_cast<size_t>(len)) break;
    out->emplace_back(buf_, pos + 4, len);
    pos += 4 + static_cast<size_t>(len);
  }
  buf_.erase(0, pos);
  return status;
}

void FrameParser::Reset() {
  buf_.clear();
  poisoned_ = false;
}

std::string SplitVerb(const std::string& payload, std::string* rest) {
  size_t pos = 0;
  while (pos < payload.size() &&
         std::isspace(static_cast<unsigned char>(payload[pos]))) {
    ++pos;
  }
  std::string verb;
  while (pos < payload.size() &&
         !std::isspace(static_cast<unsigned char>(payload[pos]))) {
    verb.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(payload[pos]))));
    ++pos;
  }
  while (pos < payload.size() &&
         std::isspace(static_cast<unsigned char>(payload[pos]))) {
    ++pos;
  }
  if (rest != nullptr) *rest = payload.substr(pos);
  return verb;
}

std::string EncodeSchema(const types::RowSchema& schema) {
  std::string out;
  for (const types::ColumnInfo& col : schema.columns()) {
    if (!out.empty()) out.push_back(',');
    out += col.table + "." + col.name + ":" + types::TypeIdName(col.type);
  }
  return out;
}

namespace {

common::Result<types::TypeId> TypeIdFromName(const std::string& name) {
  for (const types::TypeId id :
       {types::TypeId::kNull, types::TypeId::kInt64, types::TypeId::kDouble,
        types::TypeId::kString, types::TypeId::kBool}) {
    if (name == types::TypeIdName(id)) return id;
  }
  return common::Status::InvalidArgument("unknown type name '" + name + "'");
}

}  // namespace

common::Result<types::RowSchema> DecodeSchema(const std::string& text) {
  std::vector<types::ColumnInfo> columns;
  if (text.empty()) return types::RowSchema(std::move(columns));
  for (const std::string& part : common::Split(text, ',')) {
    const size_t colon = part.rfind(':');
    const size_t dot = part.find('.');
    if (colon == std::string::npos || dot == std::string::npos ||
        dot > colon) {
      return common::Status::InvalidArgument("malformed schema column '" +
                                             part + "'");
    }
    types::ColumnInfo col;
    col.table = part.substr(0, dot);
    col.name = part.substr(dot + 1, colon - dot - 1);
    PPP_ASSIGN_OR_RETURN(col.type, TypeIdFromName(part.substr(colon + 1)));
    columns.push_back(std::move(col));
  }
  return types::RowSchema(std::move(columns));
}

std::string EncodeRowPayload(const types::Tuple& tuple) {
  return "ROW " + tuple.Serialize();
}

common::Result<types::Tuple> DecodeRowPayload(std::string_view payload) {
  if (payload.substr(0, 4) != "ROW ") {
    return common::Status::InvalidArgument("not a ROW payload");
  }
  return types::Tuple::Deserialize(payload.substr(4));
}

std::string OkField(const std::string& payload, const std::string& key) {
  // Fields are space-separated `key=value` pairs after the tag; the schema
  // field is last and contains no spaces, so this split is unambiguous.
  const std::string needle = " " + key + "=";
  const size_t at = payload.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = payload.find(' ', start);
  return payload.substr(start,
                        end == std::string::npos ? end : end - start);
}

}  // namespace ppp::net
