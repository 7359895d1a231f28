#include "types/key_encoder.h"

#include <cstdint>
#include <string_view>

#include "types/column_batch.h"

namespace ppp::types {

namespace {

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendString(std::string* out, std::string_view s) {
  AppendPod<uint8_t>(out, static_cast<uint8_t>(TypeId::kString));
  AppendPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void AppendValue(std::string* out, const Value& value) {
  switch (value.type()) {
    case TypeId::kNull:
      AppendPod<uint8_t>(out, static_cast<uint8_t>(TypeId::kNull));
      break;
    case TypeId::kInt64:
      AppendPod<uint8_t>(out, static_cast<uint8_t>(TypeId::kInt64));
      AppendPod<int64_t>(out, value.AsInt64());
      break;
    case TypeId::kDouble:
      AppendPod<uint8_t>(out, static_cast<uint8_t>(TypeId::kDouble));
      AppendPod<double>(out, value.AsDouble());
      break;
    case TypeId::kBool:
      AppendPod<uint8_t>(out, static_cast<uint8_t>(TypeId::kBool));
      AppendPod<uint8_t>(out, value.AsBool() ? 1 : 0);
      break;
    case TypeId::kString:
      AppendString(out, value.AsString());
      break;
  }
}

}  // namespace

void KeyEncoder::Begin(size_t count, std::string_view tag) {
  bytes_.assign(tag);
  if (!tag.empty()) bytes_ += '\x1f';
  AppendPod<uint32_t>(&bytes_, static_cast<uint32_t>(count));
}

void KeyEncoder::BeginNext(size_t count) {
  AppendPod<uint32_t>(&bytes_, static_cast<uint32_t>(count));
}

void KeyEncoder::Add(const Value& value) { AppendValue(&bytes_, value); }

void KeyEncoder::AppendRow(const std::vector<Value>& values,
                           std::string* out) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(values.size()));
  for (const Value& value : values) AppendValue(out, value);
}

void KeyEncoder::AddCell(const ColumnBatch& batch, size_t col_index,
                         size_t row) {
  const ColumnBatch::Column& col = batch.column(col_index);
  if (col.boxed) {
    Add(col.values[row]);
    return;
  }
  if (col.nulls[row] != 0) {
    AppendPod<uint8_t>(&bytes_, static_cast<uint8_t>(TypeId::kNull));
    return;
  }
  switch (col.type) {
    case TypeId::kInt64:
      AppendPod<uint8_t>(&bytes_, static_cast<uint8_t>(TypeId::kInt64));
      AppendPod<int64_t>(&bytes_, col.i64[row]);
      break;
    case TypeId::kBool:
      AppendPod<uint8_t>(&bytes_, static_cast<uint8_t>(TypeId::kBool));
      AppendPod<uint8_t>(&bytes_, col.i64[row] != 0 ? 1 : 0);
      break;
    case TypeId::kDouble:
      AppendPod<uint8_t>(&bytes_, static_cast<uint8_t>(TypeId::kDouble));
      AppendPod<double>(&bytes_, col.f64[row]);
      break;
    case TypeId::kString:
      AppendString(&bytes_, col.StringAt(row));
      break;
    case TypeId::kNull:
      // Unreachable: declared-NULL columns are always boxed.
      AppendPod<uint8_t>(&bytes_, static_cast<uint8_t>(TypeId::kNull));
      break;
  }
}

}  // namespace ppp::types
