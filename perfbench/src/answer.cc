#include "answer.h"

#include "common/string_util.h"
#include "net/wire.h"
#include "workload/measurement.h"

namespace perfbench {

DecodedResponse DecodeResponse(const std::vector<std::string>& frames) {
  DecodedResponse out;
  for (const std::string& payload : frames) {
    if (payload.rfind("ROW ", 0) == 0) {
      auto tuple = ppp::net::DecodeRowPayload(payload);
      if (!tuple.ok()) {
        out.terminal = "ERR undecodable row: " + tuple.status().ToString();
        return out;
      }
      out.rows.push_back(std::move(*tuple));
      continue;
    }
    out.terminal = payload;
    if (payload.rfind("OK", 0) != 0) return out;
    auto schema = ppp::net::DecodeSchema(ppp::net::OkField(payload, "schema"));
    if (!schema.ok()) {
      out.terminal = "ERR undecodable schema: " + schema.status().ToString();
      return out;
    }
    out.schema = std::move(*schema);
    out.ok = true;
    return out;
  }
  return out;
}

uint64_t AnswerDigest(const std::vector<ppp::types::Tuple>& rows,
                      const ppp::types::RowSchema& schema) {
  std::string joined;
  for (const std::string& row :
       ppp::workload::CanonicalResults(rows, schema)) {
    joined += row;
    joined.push_back('\n');
  }
  return ppp::common::Fnv1aHash(joined);
}

Answer ToAnswer(const DecodedResponse& response) {
  Answer out;
  out.ok = response.ok;
  if (!response.ok) {
    out.error = response.terminal.empty() ? "no terminal frame"
                                          : response.terminal;
    return out;
  }
  out.rows = response.rows.size();
  out.digest = AnswerDigest(response.rows, response.schema);
  return out;
}

}  // namespace perfbench
