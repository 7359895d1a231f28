#include "reference.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cost/cost_params.h"
#include "engine.h"
#include "exec/executor.h"
#include "net/wire.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "subquery/rewrite.h"
#include "workload/measurement.h"

namespace perfbench {

namespace {

namespace common = ppp::common;
namespace types = ppp::types;

Answer EmptyOk() {
  Answer out;
  out.ok = true;
  out.digest = AnswerDigest({}, types::RowSchema());
  return out;
}

Answer Error(const common::Status& status) {
  Answer out;
  out.error = "reference: " + status.ToString();
  return out;
}

/// Plans `sql` (with `params` bound to its $n slots, if given) with
/// kReferenceAlgorithm and executes it without any serving-layer cache.
common::Result<Answer> RunSelect(ppp::workload::Database* db,
                                 const std::string& sql,
                                 const std::vector<types::Value>* params) {
  ppp::catalog::Catalog& catalog = db->catalog();
  std::optional<ppp::plan::QuerySpec> spec;
  if (params != nullptr) {
    PPP_ASSIGN_OR_RETURN(
        spec, ppp::subquery::ParseBindRewrite(sql, *params, &catalog));
  } else {
    PPP_ASSIGN_OR_RETURN(spec, ppp::subquery::ParseBindRewrite(sql, &catalog));
  }
  ppp::cost::CostParams cost_params;
  cost_params.predicate_caching = false;
  cost_params.vectorized = false;
  ppp::optimizer::Optimizer optimizer(&catalog, cost_params);
  PPP_ASSIGN_OR_RETURN(ppp::optimizer::OptimizeResult optimized,
                       optimizer.Optimize(*spec, kReferenceAlgorithm));
  ppp::exec::ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.params = ppp::workload::ExecParamsFor(cost_params);
  for (const ppp::plan::TableRef& ref : spec->tables) {
    PPP_ASSIGN_OR_RETURN(ppp::catalog::Table * table,
                         catalog.GetTable(ref.table_name));
    ctx.binding[ref.alias] = table;
  }
  ppp::exec::ExecStats stats;
  types::RowSchema schema;
  const VerdictOnlyScope verdict_only;
  PPP_ASSIGN_OR_RETURN(
      std::vector<types::Tuple> rows,
      ppp::exec::ExecutePlan(*optimized.plan, &ctx, &stats, &schema));
  Answer out;
  out.ok = true;
  out.rows = rows.size();
  out.digest = AnswerDigest(rows, schema);
  return out;
}

}  // namespace

Answer ReferenceEngine::Compute(const std::string& payload) {
  std::string rest;
  const std::string verb = ppp::net::SplitVerb(payload, &rest);
  auto stmt = ppp::parser::ParseStatement(verb == "QUERY" ? rest : payload);
  if (!stmt.ok()) return Error(stmt.status());
  common::Result<Answer> answer = Answer();
  switch (stmt->kind) {
    case ppp::parser::StatementKind::kAnalyze:
      for (const std::string& name : stmt->analyze_tables) {
        auto table = db_->catalog().GetTable(name);
        if (!table.ok()) return Error(table.status());
      }
      return EmptyOk();
    case ppp::parser::StatementKind::kPrepare:
      prepared_[stmt->prepare_name] = stmt->prepare_body;
      return EmptyOk();
    case ppp::parser::StatementKind::kExecute: {
      const auto it = prepared_.find(stmt->execute_name);
      if (it == prepared_.end()) {
        return Error(common::Status::InvalidArgument(
            "unknown prepared statement '" + stmt->execute_name + "'"));
      }
      answer = RunSelect(db_, it->second, &stmt->execute_params);
      break;
    }
    case ppp::parser::StatementKind::kSelect:
      answer = RunSelect(db_, rest, nullptr);
      break;
    default:
      return Error(common::Status::InvalidArgument("unexpected statement"));
  }
  return answer.ok() ? *answer : Error(answer.status());
}

}  // namespace perfbench
