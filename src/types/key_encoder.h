#ifndef PPP_TYPES_KEY_ENCODER_H_
#define PPP_TYPES_KEY_ENCODER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "types/value.h"

namespace ppp::types {

class ColumnBatch;

/// Writes a row of values in the storage wire format (a uint32 value count,
/// then per value a type tag and its payload) into a reused buffer, one
/// value at a time. This is the only encoder of that format:
/// Tuple::Serialize and the wire's ROW frames write through it (AppendRow),
/// and both §5.1 cache kinds key on it:
/// the predicate caches from Tuple values (Filter) and straight from
/// ColumnBatch cells (nested-loop join) — so one binding encodes to the
/// same bytes whichever operator probes a shared cache — and the function
/// cache from argument values, tagged with the function name.
class KeyEncoder {
 public:
  /// Starts a new row of `count` values, keeping the buffer's capacity.
  /// A non-empty `tag` (the function cache's function name) is written
  /// ahead of the row with a 0x1f separator, so rows under different tags
  /// never share bytes.
  void Begin(size_t count, std::string_view tag = {});

  /// Starts another row of `count` values after the rows already in the
  /// buffer, so one buffer can hold a whole batch of keys back to back.
  void BeginNext(size_t count);

  /// Empties the buffer, keeping its capacity.
  void Clear() { bytes_.clear(); }

  void Add(const Value& value);

  /// Appends bytes this format produced earlier (values encoded once and
  /// repeated in many rows' keys).
  void AddEncoded(std::string_view encoded) { bytes_.append(encoded); }

  /// Adds cell (`col`, `row`) of `batch` without boxing it into a Value;
  /// the bytes equal Add(batch.GetValue(col, row)).
  void AddCell(const ColumnBatch& batch, size_t col, size_t row);

  const std::string& bytes() const { return bytes_; }

  /// Moves the encoded row out, leaving the encoder empty.
  std::string Take() { return std::move(bytes_); }

  /// Appends `values` as one untagged row to `out`, with no buffer of its
  /// own (the wire writes rows straight into a response).
  static void AppendRow(const std::vector<Value>& values, std::string* out);

 private:
  std::string bytes_;
};

}  // namespace ppp::types

#endif  // PPP_TYPES_KEY_ENCODER_H_
