#include "types/tuple.h"

#include <cstring>

#include "common/string_util.h"
#include "types/key_encoder.h"

namespace ppp::types {

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> values;
  values.reserve(left.values_.size() + right.values_.size());
  values.insert(values.end(), left.values_.begin(), left.values_.end());
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

Tuple Tuple::Concat(Tuple&& left, const Tuple& right) {
  std::vector<Value> values = std::move(left.values_);
  values.reserve(values.size() + right.values_.size());
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

namespace {

template <typename T>
bool ReadPod(std::string_view bytes, size_t* pos, T* out) {
  if (*pos + sizeof(T) > bytes.size()) return false;
  std::memcpy(out, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

std::string Tuple::Serialize() const {
  std::string out;
  KeyEncoder::AppendRow(values_, &out);
  return out;
}

void Tuple::AppendSerialized(std::string* out) const {
  KeyEncoder::AppendRow(values_, out);
}

common::Result<Tuple> Tuple::Deserialize(std::string_view bytes) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadPod(bytes, &pos, &count)) {
    return common::Status::InvalidArgument("tuple header truncated");
  }
  std::vector<Value> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t tag = 0;
    if (!ReadPod(bytes, &pos, &tag)) {
      return common::Status::InvalidArgument("tuple value tag truncated");
    }
    switch (static_cast<TypeId>(tag)) {
      case TypeId::kNull:
        values.emplace_back();
        break;
      case TypeId::kInt64: {
        int64_t v = 0;
        if (!ReadPod(bytes, &pos, &v)) {
          return common::Status::InvalidArgument("tuple int64 truncated");
        }
        values.emplace_back(v);
        break;
      }
      case TypeId::kDouble: {
        double v = 0;
        if (!ReadPod(bytes, &pos, &v)) {
          return common::Status::InvalidArgument("tuple double truncated");
        }
        values.emplace_back(v);
        break;
      }
      case TypeId::kBool: {
        uint8_t v = 0;
        if (!ReadPod(bytes, &pos, &v)) {
          return common::Status::InvalidArgument("tuple bool truncated");
        }
        values.emplace_back(v != 0);
        break;
      }
      case TypeId::kString: {
        uint32_t len = 0;
        if (!ReadPod(bytes, &pos, &len)) {
          return common::Status::InvalidArgument("tuple string len truncated");
        }
        if (pos + len > bytes.size()) {
          return common::Status::InvalidArgument("tuple string truncated");
        }
        values.emplace_back(std::string(bytes.substr(pos, len)));
        pos += len;
        break;
      }
      default:
        return common::Status::InvalidArgument("unknown value tag " +
                                               std::to_string(tag));
    }
  }
  return Tuple(std::move(values));
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) parts.push_back(v.ToString());
  std::string out = "(";
  out += common::Join(parts, ", ");
  out += ')';
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != other.values_[i]) return false;
  }
  return true;
}

}  // namespace ppp::types
