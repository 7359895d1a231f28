#include "replay.h"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "exec/executor.h"
#include "net/wire.h"
#include "obs/trace_export.h"
#include "optimizer/optimizer.h"
#include "parser/normalize.h"
#include "parser/parser.h"
#include "plan/plan_node.h"
#include "serve/session.h"
#include "stats/collector.h"
#include "stats_util.h"
#include "subquery/rewrite.h"

namespace perfbench {

namespace {

namespace common = ppp::common;
namespace exec = ppp::exec;
namespace net = ppp::net;
namespace parser = ppp::parser;
namespace plan = ppp::plan;
namespace serve = ppp::serve;
namespace types = ppp::types;

/// What a statement produced, before the response is encoded.
struct Outcome {
  std::vector<types::Tuple> rows;
  types::RowSchema schema;
  bool hit = false;
  bool generic = false;
  double optimize_s = 0.0;
  double execute_s = 0.0;
  size_t analyzed = 0;
  std::string prepared;
};

struct Family {
  std::string text;  ///< Normalized body, literals as $n slots.
  uint64_t hash = 0;
  size_t num_params = 0;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string FirstKeyword(const std::string& sql) {
  size_t pos = 0;
  while (pos < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[pos]))) {
    ++pos;
  }
  std::string word;
  while (pos < sql.size() &&
         std::isalpha(static_cast<unsigned char>(sql[pos]))) {
    word.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(sql[pos++]))));
  }
  return word;
}

/// The family text with each $n slot replaced by its bound literal: the
/// exact plan-cache identity of one EXECUTE.
std::string RenderConcrete(const std::string& family_text,
                           const std::vector<types::Value>& values) {
  std::string out;
  for (const std::string& token : common::Split(family_text, ' ')) {
    if (!out.empty()) out.push_back(' ');
    const size_t slot = token.size() >= 2 && token[0] == '$'
                            ? std::strtoull(token.c_str() + 1, nullptr, 10)
                            : 0;
    if (slot >= 1 && slot <= values.size()) {
      out.append(values[slot - 1].ToString());
    } else {
      out.append(token);
    }
  }
  return out;
}

size_t OperatorKind(const std::string& description) {
  size_t end = 0;
  while (end < description.size() &&
         std::isalpha(static_cast<unsigned char>(description[end]))) {
    ++end;
  }
  const std::string word = description.substr(0, end);
  for (size_t k = 0; k + 1 < kOperatorKinds.size(); ++k) {
    if (word == kOperatorKinds[k]) return k;
  }
  return kOperatorKinds.size() - 1;
}

/// Adds each operator's self time (inclusive minus its children's
/// inclusive time) to `out`, by kind; returns `op`'s inclusive seconds.
double AddOperatorSelf(const exec::Operator& op,
                       std::array<double, kOperatorKinds.size()>* out) {
  const exec::OperatorStats& stats = op.stats();
  const double inclusive = stats.open_seconds + stats.next_seconds;
  double children = 0.0;
  for (const exec::Operator* child : op.Children()) {
    children += AddOperatorSelf(*child, out);
  }
  (*out)[OperatorKind(op.Describe())] += (inclusive - children) * 1e6;
  return inclusive;
}

}  // namespace

const char* LayerName(Layer layer) {
  static const char* const kNames[] = {
      "request",  "normalize", "plan_cache.probe", "parse_bind_rewrite",
      "optimize", "plan_cache.insert", "execute", "analyze",
      "encode",   "decode"};
  return kNames[static_cast<size_t>(layer)];
}

bool IsScanKind(size_t kind) { return kind <= 1; }

/// One replayed connection: a persistent ExecContext and prepared-name
/// map, as serve::Session keeps per session.
class Replay::Client {
 public:
  Client(Replay* owner, uint64_t session_id, std::vector<SpanRecord>* spans,
         std::chrono::steady_clock::time_point epoch)
      : owner_(owner),
        session_id_(session_id),
        spans_(owner->traced_ ? spans : nullptr),
        epoch_(epoch) {
    ctx_.catalog = &owner_->db_->catalog();
    options_.exec_params.transfer_cross_query_kill = true;
    algorithm_ = ppp::optimizer::AlgorithmName(options_.algorithm);
    params_hash_ =
        serve::PlacementParamsHash(options_.cost_params, algorithm_);
  }

  ReplayResult Run(const std::string& payload, uint64_t request_id);

 private:
  /// Opens a span on construction and closes it on destruction; a no-op
  /// in untraced replays.
  class Scope {
   public:
    Scope(Client* client, Layer layer) : client_(client) {
      if (client_->spans_ == nullptr) return;
      SpanRecord span;
      span.layer = layer;
      span.request_id = client_->request_id_;
      span.parent = client_->open_.empty() ? -1 : client_->open_.back();
      span.start_us = client_->NowUs();
      index_ = static_cast<int>(client_->spans_->size());
      client_->spans_->push_back(span);
      client_->open_.push_back(index_);
    }
    ~Scope() {
      if (client_->spans_ == nullptr) return;
      (*client_->spans_)[static_cast<size_t>(index_)].end_us =
          client_->NowUs();
      client_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Client* client_;
    int index_ = -1;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  common::Result<Outcome> Handle(const std::string& payload,
                                 ReplayResult* result,
                                 std::unique_ptr<exec::Operator>* root);
  common::Result<Outcome> Select(const std::string& sql,
                                 ReplayResult* result,
                                 std::unique_ptr<exec::Operator>* root);
  common::Result<Outcome> Analyze(const parser::ParsedStatement& stmt);
  common::Result<Outcome> Prepare(const parser::ParsedStatement& stmt);
  common::Result<Outcome> ExecutePrepared(
      const parser::ParsedStatement& stmt, ReplayResult* result,
      std::unique_ptr<exec::Operator>* root);
  /// Miss path shared by QUERY and EXECUTE: parse/bind/rewrite, capture
  /// bindings and stats epochs, optimize.
  common::Result<std::shared_ptr<const plan::PlanNode>> Compile(
      const std::string& sql, const std::vector<types::Value>* params,
      serve::CachedPlan* entry, ReplayResult* result);
  common::Status Bind(const serve::CachedPlan& cached);
  common::Status RunPlan(const plan::PlanNode& plan, uint64_t text_hash,
                         Outcome* outcome,
                         std::unique_ptr<exec::Operator>* root);
  void Summarize(size_t first, const exec::Operator* root,
                 ReplayResult* result) const;

  Replay* owner_;
  uint64_t session_id_;
  std::vector<SpanRecord>* spans_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<int> open_;
  uint64_t request_id_ = 0;
  serve::SessionOptions options_;
  std::string algorithm_;
  uint64_t params_hash_ = 0;
  exec::ExecContext ctx_;
  std::map<std::string, Family> prepared_;
  std::chrono::steady_clock::time_point plan_start_;
};

ReplayResult Replay::Client::Run(const std::string& payload,
                                 uint64_t request_id) {
  ReplayResult result;
  request_id_ = request_id;
  const size_t first = spans_ != nullptr ? spans_->size() : 0;
  std::unique_ptr<exec::Operator> root;
  DecodedResponse decoded;
  {
    Scope request(this, Layer::kRequest);
    const common::Result<Outcome> outcome = Handle(payload, &result, &root);
    std::string response;
    {
      Scope encode(this, Layer::kEncode);
      if (!outcome.ok()) {
        response = net::EncodeFrame("ERR " + outcome.status().message());
      } else {
        const Outcome& o = *outcome;
        for (const types::Tuple& row : o.rows) {
          response += net::EncodeFrame(net::EncodeRowPayload(row));
        }
        std::string ok = common::StringPrintf(
            "OK rows=%zu cols=%zu hit=%d generic=%d optimize_us=%lld "
            "execute_us=%lld session=%llu",
            o.rows.size(), o.schema.NumColumns(), o.hit ? 1 : 0,
            o.generic ? 1 : 0, static_cast<long long>(o.optimize_s * 1e6),
            static_cast<long long>(o.execute_s * 1e6),
            static_cast<unsigned long long>(session_id_));
        if (o.analyzed > 0) {
          ok += common::StringPrintf(" analyzed=%zu", o.analyzed);
        }
        if (!o.prepared.empty()) ok += " prepared=" + o.prepared;
        ok += " schema=" + net::EncodeSchema(o.schema);
        response += net::EncodeFrame(ok);
      }
    }
    Scope decode(this, Layer::kDecode);
    net::FrameParser frame_parser;
    std::vector<std::string> frames;
    if (frame_parser.Feed(response.data(), response.size(), &frames).ok()) {
      decoded = DecodeResponse(frames);
    }
  }
  result.answer = ToAnswer(decoded);
  if (spans_ != nullptr) Summarize(first, root.get(), &result);
  return result;
}

common::Result<Outcome> Replay::Client::Handle(
    const std::string& payload, ReplayResult* result,
    std::unique_ptr<exec::Operator>* root) {
  std::string rest;
  std::optional<parser::ParsedStatement> stmt;
  {
    Scope normalize(this, Layer::kNormalize);
    const std::string verb = net::SplitVerb(payload, &rest);
    if (verb == "QUERY" && FirstKeyword(rest) != "ANALYZE") {
      // Select() normalizes inside its own span.
    } else if (verb == "QUERY" || verb == "PREPARE" || verb == "EXECUTE") {
      PPP_ASSIGN_OR_RETURN(
          stmt, parser::ParseStatement(verb == "QUERY" ? rest : payload));
    } else {
      return common::Status::InvalidArgument("unknown request verb '" + verb +
                                             "'");
    }
  }
  if (!stmt.has_value()) return Select(rest, result, root);
  switch (stmt->kind) {
    case parser::StatementKind::kAnalyze:
      return Analyze(*stmt);
    case parser::StatementKind::kPrepare:
      return Prepare(*stmt);
    case parser::StatementKind::kExecute:
      return ExecutePrepared(*stmt, result, root);
    default:
      return common::Status::InvalidArgument("unexpected statement kind");
  }
}

common::Status Replay::Client::Bind(const serve::CachedPlan& cached) {
  ctx_.binding.clear();
  for (const auto& [alias, table_name] : cached.bindings) {
    PPP_ASSIGN_OR_RETURN(ppp::catalog::Table * table,
                         owner_->db_->catalog().GetTable(table_name));
    ctx_.binding[alias] = table;
  }
  return common::Status::OK();
}

common::Result<std::shared_ptr<const plan::PlanNode>>
Replay::Client::Compile(const std::string& sql,
                        const std::vector<types::Value>* params,
                        serve::CachedPlan* entry, ReplayResult* result) {
  ppp::catalog::Catalog& catalog = owner_->db_->catalog();
  std::optional<ppp::plan::QuerySpec> spec;
  {
    Scope parse(this, Layer::kParseBindRewrite);
    if (params != nullptr) {
      PPP_ASSIGN_OR_RETURN(
          spec, ppp::subquery::ParseBindRewrite(sql, *params, &catalog));
    } else {
      PPP_ASSIGN_OR_RETURN(spec,
                           ppp::subquery::ParseBindRewrite(sql, &catalog));
    }
    // Bindings and stats epochs are captured before optimizing, as the
    // session does: a racing ANALYZE can only force a re-plan.
    ctx_.binding.clear();
    for (const ppp::plan::TableRef& ref : spec->tables) {
      PPP_ASSIGN_OR_RETURN(ppp::catalog::Table * table,
                           catalog.GetTable(ref.table_name));
      ctx_.binding[ref.alias] = table;
      entry->bindings.emplace_back(ref.alias, ref.table_name);
      entry->stats_epochs.push_back(table->stats_epoch());
    }
  }
  Scope optimize(this, Layer::kOptimize);
  ppp::optimizer::Optimizer opt(&catalog, options_.cost_params);
  PPP_ASSIGN_OR_RETURN(ppp::optimizer::OptimizeResult optimized,
                       opt.Optimize(*spec, options_.algorithm));
  result->optimized = true;
  result->dp_stats = optimized.dp_stats;
  std::shared_ptr<const plan::PlanNode> compiled(std::move(optimized.plan));
  entry->plan = compiled;
  entry->plan_fingerprint = compiled->Fingerprint();
  entry->algorithm = algorithm_;
  entry->est_cost = optimized.est_cost;
  return compiled;
}

common::Result<Outcome> Replay::Client::Select(
    const std::string& sql, ReplayResult* result,
    std::unique_ptr<exec::Operator>* root) {
  plan_start_ = std::chrono::steady_clock::now();
  std::optional<parser::NormalizedQuery> norm;
  {
    Scope normalize(this, Layer::kNormalize);
    PPP_ASSIGN_OR_RETURN(norm, parser::NormalizeSql(sql));
  }
  const serve::PlanCacheKey key{norm->text_hash, params_hash_, false};
  Outcome outcome;
  std::shared_ptr<const plan::PlanNode> plan;
  {
    Scope probe(this, Layer::kProbe);
    const std::shared_ptr<const serve::CachedPlan> cached =
        owner_->plan_cache_.Probe(key, owner_->db_->catalog());
    if (cached != nullptr) {
      PPP_RETURN_IF_ERROR(Bind(*cached));
      plan = cached->plan;
      outcome.hit = true;
    }
  }
  if (plan == nullptr) {
    serve::CachedPlan entry;
    PPP_ASSIGN_OR_RETURN(plan, Compile(sql, nullptr, &entry, result));
    Scope insert(this, Layer::kInsert);
    entry.text_hash = norm->text_hash;
    entry.family_hash = norm->family_hash;
    entry.optimize_seconds = SecondsSince(plan_start_);
    owner_->plan_cache_.Insert(key, std::move(entry));
  }
  PPP_RETURN_IF_ERROR(RunPlan(*plan, norm->text_hash, &outcome, root));
  return outcome;
}

common::Result<Outcome> Replay::Client::Analyze(
    const parser::ParsedStatement& stmt) {
  Scope analyze(this, Layer::kAnalyze);
  ppp::catalog::Catalog& catalog = owner_->db_->catalog();
  std::vector<std::string> tables = stmt.analyze_tables;
  if (tables.empty()) tables = catalog.TableNames();
  Outcome outcome;
  for (const std::string& name : tables) {
    PPP_ASSIGN_OR_RETURN(ppp::catalog::Table * table, catalog.GetTable(name));
    PPP_RETURN_IF_ERROR(ppp::stats::AnalyzeTable(
        table, ppp::stats::AnalyzeOptions::Default()));
    ++outcome.analyzed;
  }
  return outcome;
}

common::Result<Outcome> Replay::Client::Prepare(
    const parser::ParsedStatement& stmt) {
  Scope parse(this, Layer::kParseBindRewrite);
  PPP_ASSIGN_OR_RETURN(parser::NormalizedQuery norm,
                       parser::NormalizeSql(stmt.prepare_body));
  const std::vector<types::Value> stand_ins(norm.params.size());
  PPP_ASSIGN_OR_RETURN(parser::ParsedSelect parsed,
                       parser::ParseSelect(norm.family_text, stand_ins));
  (void)parsed;
  prepared_[stmt.prepare_name] =
      Family{norm.family_text, norm.family_hash, norm.params.size()};
  Outcome outcome;
  outcome.prepared = stmt.prepare_name;
  return outcome;
}

common::Result<Outcome> Replay::Client::ExecutePrepared(
    const parser::ParsedStatement& stmt, ReplayResult* result,
    std::unique_ptr<exec::Operator>* root) {
  plan_start_ = std::chrono::steady_clock::now();
  const auto it = prepared_.find(stmt.execute_name);
  if (it == prepared_.end()) {
    return common::Status::InvalidArgument("unknown prepared statement '" +
                                           stmt.execute_name + "'");
  }
  const Family& family = it->second;
  const std::vector<types::Value>& bound = stmt.execute_params;
  if (bound.size() != family.num_params) {
    return common::Status::InvalidArgument("wrong parameter count");
  }
  uint64_t text_hash = 0;
  {
    Scope normalize(this, Layer::kNormalize);
    text_hash = common::Fnv1aHash(RenderConcrete(family.text, bound));
  }
  const serve::PlanCacheKey exact_key{text_hash, params_hash_, false};
  const serve::PlanCacheKey family_key{family.hash, params_hash_, true};
  ppp::catalog::Catalog& catalog = owner_->db_->catalog();
  Outcome outcome;
  std::shared_ptr<const plan::PlanNode> plan;
  std::shared_ptr<const serve::CachedPlan> generic;
  {
    Scope probe(this, Layer::kProbe);
    const std::shared_ptr<const serve::CachedPlan> exact =
        owner_->plan_cache_.Probe(exact_key, catalog);
    if (exact != nullptr) {
      PPP_RETURN_IF_ERROR(Bind(*exact));
      plan = exact->plan;
      outcome.hit = true;
    } else {
      generic = owner_->plan_cache_.Probe(family_key, catalog);
      plan::PlanPtr substituted =
          generic != nullptr ? plan::CloneWithParams(*generic->plan, bound)
                             : nullptr;
      if (substituted != nullptr) {
        PPP_RETURN_IF_ERROR(Bind(*generic));
        plan = std::shared_ptr<const plan::PlanNode>(std::move(substituted));
        outcome.hit = true;
        outcome.generic = true;
      }
    }
  }
  if (outcome.generic) {
    // Promote into the exact level, as the session does.
    Scope insert(this, Layer::kInsert);
    serve::CachedPlan entry;
    entry.plan = plan;
    entry.bindings = generic->bindings;
    entry.stats_epochs = generic->stats_epochs;
    entry.text_hash = text_hash;
    entry.family_hash = family.hash;
    entry.plan_fingerprint = plan->Fingerprint();
    entry.algorithm = algorithm_;
    entry.est_cost = generic->est_cost;
    entry.optimize_seconds = SecondsSince(plan_start_);
    owner_->plan_cache_.Insert(exact_key, std::move(entry));
  } else if (plan == nullptr) {
    serve::CachedPlan entry;
    PPP_ASSIGN_OR_RETURN(plan, Compile(family.text, &bound, &entry, result));
    Scope insert(this, Layer::kInsert);
    entry.text_hash = text_hash;
    entry.family_hash = family.hash;
    entry.optimize_seconds = SecondsSince(plan_start_);
    if (plan::PlanIsParameterizable(*plan, family.num_params)) {
      serve::CachedPlan family_entry = entry;
      family_entry.text_hash = family.hash;
      family_entry.num_params = family.num_params;
      owner_->plan_cache_.Insert(family_key, std::move(family_entry));
    }
    owner_->plan_cache_.Insert(exact_key, std::move(entry));
  }
  PPP_RETURN_IF_ERROR(RunPlan(*plan, text_hash, &outcome, root));
  return outcome;
}

common::Status Replay::Client::RunPlan(
    const plan::PlanNode& plan, uint64_t text_hash, Outcome* outcome,
    std::unique_ptr<exec::Operator>* root) {
  outcome->optimize_s = SecondsSince(plan_start_);
  ctx_.params = options_.exec_params;
  ctx_.shared_caches = &owner_->shared_caches_;
  ctx_.log_hints.text_hash = text_hash;
  ctx_.log_hints.algorithm = algorithm_;
  ctx_.log_hints.optimize_seconds = outcome->optimize_s;
  ctx_.log_hints.session_id = session_id_;
  Scope execute(this, Layer::kExecute);
  const auto start = std::chrono::steady_clock::now();
  exec::ExecStats stats;
  PPP_ASSIGN_OR_RETURN(
      outcome->rows,
      exec::ExecutePlan(plan, &ctx_, &stats, &outcome->schema, root));
  outcome->execute_s = SecondsSince(start);
  return common::Status::OK();
}

void Replay::Client::Summarize(size_t first, const exec::Operator* root,
                               ReplayResult* result) const {
  const std::vector<SpanRecord>& spans = *spans_;
  // children[i]: intervals of span i's direct children.
  std::vector<std::vector<Interval>> children(spans.size() - first);
  for (size_t i = first + 1; i < spans.size(); ++i) {
    const size_t parent = static_cast<size_t>(spans[i].parent);
    children[parent - first].push_back({spans[i].start_us, spans[i].end_us});
  }
  for (size_t i = first; i < spans.size(); ++i) {
    const Interval self{spans[i].start_us, spans[i].end_us};
    const double self_us = SelfTime(self, children[i - first]);
    if (i == first) {
      result->wall_us = self.end - self.start;
      result->unattributed_us = self_us;
      continue;
    }
    const size_t layer = static_cast<size_t>(spans[i].layer);
    result->layer_self_us[layer] += self_us;
    result->layer_ran[layer] = true;
  }
  if (root != nullptr) AddOperatorSelf(*root, &result->operator_self_us);
}

Replay::Replay(ppp::workload::Database* db, bool traced)
    : db_(db), traced_(traced) {
  // The session manager's listener, for this replay's own plan cache:
  // ANALYZE drops every cached plan that binds the analyzed table.
  listener_id_ = db_->catalog().AddStatsListener(
      [this](const std::string& table) { plan_cache_.InvalidateTable(table); });
}

Replay::~Replay() { db_->catalog().RemoveStatsListener(listener_id_); }

double Replay::Run(const WorkloadSpec& spec,
                   std::vector<ReplayResult>* warmup,
                   std::vector<ReplayResult>* measured) {
  spans_.clear();
  Client client(this, /*session_id=*/1000, &spans_,
                std::chrono::steady_clock::now());
  warmup->clear();
  for (const std::string& payload : spec.warmup) {
    warmup->push_back(client.Run(payload, 0));
  }
  spans_.clear();
  measured->clear();
  measured->reserve(spec.measured.size());
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < spec.measured.size(); ++i) {
    measured->push_back(client.Run(spec.measured[i], i + 1));
  }
  return SecondsSince(start);
}

bool WriteTrace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::vector<ppp::obs::SpanEvent> events;
  for (const SpanRecord& s : spans) {
    ppp::obs::SpanEvent e;
    e.name = LayerName(s.layer);
    e.cat = "perfbench";
    e.ts_us = s.start_us;
    e.dur_us = s.end_us - s.start_us;
    const std::string parent =
        s.parent < 0 ? std::string() : LayerName(spans[s.parent].layer);
    e.args = {{"request_id", std::to_string(s.request_id)},
              {"parent", parent}};
    events.push_back(std::move(e));
  }
  return ppp::obs::WriteChromeTrace(path, events).ok();
}

}  // namespace perfbench
