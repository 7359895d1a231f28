#include "optimizer/optimizer_context.h"

#include "common/string_util.h"
#include "obs/profiler.h"

namespace ppp::optimizer {

common::Result<std::unique_ptr<OptimizerContext>> OptimizerContext::Build(
    const catalog::Catalog* catalog, const plan::QuerySpec& spec,
    const cost::CostParams& params) {
  auto ctx = std::unique_ptr<OptimizerContext>(new OptimizerContext());
  ctx->catalog_ = catalog;
  ctx->spec_ = spec;

  if (spec.tables.empty()) {
    return common::Status::InvalidArgument("query has no FROM clause");
  }
  if (spec.tables.size() > 32) {
    return common::Status::InvalidArgument(
        "at most 32 tables are supported per query");
  }
  for (const plan::TableRef& ref : spec.tables) {
    if (ctx->binding_.count(ref.alias) > 0) {
      return common::Status::InvalidArgument("duplicate alias " + ref.alias);
    }
    PPP_ASSIGN_OR_RETURN(catalog::Table * table,
                         catalog->GetTable(ref.table_name));
    ctx->binding_[ref.alias] = table;
  }

  ctx->cost_ = std::make_unique<cost::CostModel>(catalog, ctx->binding_,
                                                 params);

  expr::PredicateAnalyzer analyzer(catalog, ctx->binding_);
  if (params.use_feedback) {
    analyzer.set_feedback(&obs::PredicateFeedbackStore::Global());
  }
  analyzer.set_use_stats(params.use_collected_stats);
  ctx->single_table_preds_.resize(spec.tables.size());
  for (const expr::ExprPtr& conjunct : spec.conjuncts) {
    PPP_ASSIGN_OR_RETURN(expr::PredicateInfo info,
                         analyzer.Analyze(conjunct));
    TableSet set = 0;
    for (const std::string& alias : info.tables) {
      const int bit = ctx->AliasIndex(alias);
      if (bit < 0) {
        return common::Status::NotFound("predicate " + conjunct->ToString() +
                                        " references unknown alias " + alias);
      }
      set |= TableSet{1} << bit;
    }
    const size_t index = ctx->preds_.size();
    ctx->preds_.push_back(std::move(info));
    ctx->pred_tables_.push_back(set);
    if (ctx->preds_[index].tables.size() == 1) {
      const int bit = ctx->AliasIndex(*ctx->preds_[index].tables.begin());
      ctx->single_table_preds_[static_cast<size_t>(bit)].push_back(index);
    }
  }
  return ctx;
}

int OptimizerContext::AliasIndex(const std::string& alias) const {
  for (size_t i = 0; i < spec_.tables.size(); ++i) {
    if (spec_.tables[i].alias == alias) return static_cast<int>(i);
  }
  return -1;
}

bool OptimizerContext::Connected(TableSet left, TableSet right) const {
  for (size_t p = 0; p < preds_.size(); ++p) {
    const TableSet tables = pred_tables_[p];
    if ((tables & left) != 0 && (tables & right) != 0 &&
        (tables & ~(left | right)) == 0) {
      return true;
    }
  }
  return false;
}

std::string OptimizerContext::TableSetToString(TableSet set) const {
  std::vector<std::string> names;
  for (size_t i = 0; i < spec_.tables.size(); ++i) {
    if ((set >> i) & 1) names.push_back(spec_.tables[i].alias);
  }
  std::string out = "{";
  out += common::Join(names, ",");
  out += '}';
  return out;
}

}  // namespace ppp::optimizer
