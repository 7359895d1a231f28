#ifndef PERFBENCH_ANSWER_H_
#define PERFBENCH_ANSWER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/row_schema.h"
#include "types/tuple.h"

namespace perfbench {

/// One statement's response decoded off its frames: ROW* then OK or ERR.
struct DecodedResponse {
  bool ok = false;
  std::string terminal;  ///< The OK/ERR payload ("" if none arrived).
  std::vector<ppp::types::Tuple> rows;
  ppp::types::RowSchema schema;
};

/// Decodes ROW payloads and the OK frame's schema (the client half of the
/// wire codec). A malformed frame makes the response not ok.
DecodedResponse DecodeResponse(const std::vector<std::string>& frames);

/// Digest of a result set in workload::CanonicalResults form, so plans
/// that emit columns or rows in different orders compare equal.
uint64_t AnswerDigest(const std::vector<ppp::types::Tuple>& rows,
                      const ppp::types::RowSchema& schema);

/// The answer a request is checked by: ok, row count and digest.
struct Answer {
  bool ok = false;
  size_t rows = 0;
  uint64_t digest = 0;
  std::string error;

  bool operator==(const Answer& other) const {
    return ok == other.ok && rows == other.rows && digest == other.digest;
  }
};

Answer ToAnswer(const DecodedResponse& response);

}  // namespace perfbench

#endif  // PERFBENCH_ANSWER_H_
