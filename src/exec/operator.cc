#include "exec/operator.h"

#include <chrono>
#include <memory>
#include <optional>

#include "exec/shared_caches.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "types/key_encoder.h"

namespace ppp::exec {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void AccumulateDelta(storage::IoStats* io, const storage::IoStats& before,
                     const storage::IoStats& after) {
  io->sequential_reads += after.sequential_reads - before.sequential_reads;
  io->random_reads += after.random_reads - before.random_reads;
  io->writes += after.writes - before.writes;
  io->buffer_hits += after.buffer_hits - before.buffer_hits;
}

/// The evaluator's global invocation counter, sampled before/after each
/// wrapper call to attribute UDF work to the operator subtree (same
/// inclusive-delta scheme as the buffer-pool I/O above).
uint64_t UdfInvocations() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("expr.udf.invocations");
  return counter->value();
}

}  // namespace

common::Status Operator::Open() {
  ++stats_.opens;
  std::optional<obs::Span> span;
  if (obs::SpanTracer::Global().enabled()) {
    span.emplace("exec", "open:" + Describe());
  }
  const storage::IoStats before =
      pool_ != nullptr ? pool_->stats() : storage::IoStats();
  const uint64_t udf_before = UdfInvocations();
  const auto start = std::chrono::steady_clock::now();
  common::Status status = OpenImpl();
  stats_.open_seconds += SecondsSince(start);
  stats_.udf_invocations += UdfInvocations() - udf_before;
  if (pool_ != nullptr) AccumulateDelta(&stats_.io, before, pool_->stats());
  return status;
}

common::Status Operator::Next(types::Tuple* tuple, bool* eof) {
  ++stats_.next_calls;
  const storage::IoStats before =
      pool_ != nullptr ? pool_->stats() : storage::IoStats();
  const uint64_t udf_before = UdfInvocations();
  const auto start = std::chrono::steady_clock::now();
  common::Status status = NextImpl(tuple, eof);
  stats_.next_seconds += SecondsSince(start);
  stats_.udf_invocations += UdfInvocations() - udf_before;
  if (pool_ != nullptr) AccumulateDelta(&stats_.io, before, pool_->stats());
  if (status.ok() && !*eof) ++stats_.rows_out;
  return status;
}

common::Status Operator::NextBatch(size_t max_rows, TupleBatch* batch,
                                   bool* eof) {
  static obs::Counter* batch_counter =
      obs::MetricsRegistry::Global().GetCounter("exec.batches");
  static obs::Histogram* fill_histogram =
      obs::MetricsRegistry::Global().GetHistogram("exec.batch.fill");
  if (max_rows == 0) max_rows = 1;
  ++stats_.batches;
  // Per-batch (not per-tuple) drain spans keep trace volume proportional to
  // batches; the Next() shim path stays unspanned.
  std::optional<obs::Span> span;
  if (obs::SpanTracer::Global().enabled()) {
    span.emplace("exec", "batch:" + Describe());
  }
  const size_t rows_before = batch->size();
  const storage::IoStats before =
      pool_ != nullptr ? pool_->stats() : storage::IoStats();
  const uint64_t udf_before = UdfInvocations();
  const auto start = std::chrono::steady_clock::now();
  common::Status status = NextBatchImpl(max_rows, batch, eof);
  stats_.next_seconds += SecondsSince(start);
  stats_.udf_invocations += UdfInvocations() - udf_before;
  if (pool_ != nullptr) AccumulateDelta(&stats_.io, before, pool_->stats());
  if (status.ok()) {
    const size_t produced = batch->size() - rows_before;
    stats_.rows_out += produced;
    if (span.has_value()) span->AddArg("rows", std::to_string(produced));
    batch_counter->Increment();
    fill_histogram->Observe(static_cast<double>(produced) /
                            static_cast<double>(max_rows));
  }
  return status;
}

common::Status Operator::NextColumnBatch(size_t max_rows,
                                         types::ColumnBatch* batch,
                                         bool* eof) {
  static obs::Counter* vbatch_counter =
      obs::MetricsRegistry::Global().GetCounter("exec.vector.batches");
  static obs::Counter* vrows_counter =
      obs::MetricsRegistry::Global().GetCounter("exec.vector.rows");
  static obs::Histogram* density_histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "exec.vector.selection_density");
  if (max_rows == 0) max_rows = 1;
  ++stats_.batches;
  std::optional<obs::Span> span;
  if (obs::SpanTracer::Global().enabled()) {
    span.emplace("exec", "vbatch:" + Describe());
  }
  const storage::IoStats before =
      pool_ != nullptr ? pool_->stats() : storage::IoStats();
  const uint64_t udf_before = UdfInvocations();
  const auto start = std::chrono::steady_clock::now();
  common::Status status = NextColumnBatchImpl(max_rows, batch, eof);
  stats_.next_seconds += SecondsSince(start);
  stats_.udf_invocations += UdfInvocations() - udf_before;
  if (pool_ != nullptr) AccumulateDelta(&stats_.io, before, pool_->stats());
  if (status.ok()) {
    const size_t produced = batch->selected();
    stats_.rows_out += produced;
    vbatch_counter->Increment();
    vrows_counter->Increment(produced);
    if (batch->num_rows() > 0) {
      density_histogram->Observe(static_cast<double>(produced) /
                                 static_cast<double>(batch->num_rows()));
    }
    if (span.has_value()) {
      span->AddArg("rows", std::to_string(batch->num_rows()));
      span->AddArg("selected", std::to_string(produced));
    }
  }
  return status;
}

common::Status Operator::NextColumnBatchImpl(size_t max_rows,
                                             types::ColumnBatch* batch,
                                             bool* eof) {
  batch->Reset(schema_);
  TupleBatch rows;
  PPP_RETURN_IF_ERROR(NextBatchImpl(max_rows, &rows, eof));
  for (const types::Tuple& tuple : rows.tuples) batch->AppendTuple(tuple);
  return common::Status::OK();
}

common::Status Operator::NextBatchImpl(size_t max_rows, TupleBatch* batch,
                                       bool* eof) {
  *eof = false;
  types::Tuple tuple;
  while (batch->size() < max_rows) {
    bool row_eof = false;
    PPP_RETURN_IF_ERROR(NextImpl(&tuple, &row_eof));
    if (row_eof) {
      *eof = true;
      break;
    }
    batch->tuples.push_back(std::move(tuple));
  }
  return common::Status::OK();
}

const OperatorStats& Operator::stats() const {
  RefreshLocalStats();
  return stats_;
}

std::vector<const Operator*> Operator::Children() const {
  std::vector<Operator*> mutable_children =
      const_cast<Operator*>(this)->Children();
  return {mutable_children.begin(), mutable_children.end()};
}

void Operator::AttachPool(const storage::BufferPool* pool) {
  pool_ = pool;
  for (Operator* child : Children()) child->AttachPool(pool);
}

void Operator::SetBatchSize(size_t batch_size) {
  batch_size_ = batch_size == 0 ? 1 : batch_size;
  for (Operator* child : Children()) child->SetBatchSize(batch_size);
}

void Operator::CollectStats(std::vector<const OperatorStats*>* out) const {
  out->push_back(&stats());
  for (const Operator* child : Children()) child->CollectStats(out);
}

common::Result<CachedPredicate> CachedPredicate::Bind(
    const expr::PredicateInfo& pred, const types::RowSchema& schema,
    const catalog::Catalog& catalog, const ExecParams& params,
    SharedPredicateCacheRegistry* shared,
    const expr::TableBinding* binding) {
  CachedPredicate out;
  PPP_ASSIGN_OR_RETURN(
      std::unique_ptr<expr::BoundExpr> bound,
      expr::BoundExpr::Bind(pred.expr, schema, catalog.functions()));
  out.bound_ = std::move(bound);
  out.is_expensive_ = pred.is_expensive();

  // Cacheability and parallel safety are both properties of the functions
  // the predicate invokes.
  bool cacheable = true;
  std::vector<const expr::Expr*> calls;
  pred.expr->CollectFunctionCalls(&calls);
  for (const expr::Expr* call : calls) {
    auto def = catalog.functions().Lookup(call->function_name);
    if (!def.ok() || !(*def)->cacheable) cacheable = false;
    if (!def.ok() || !(*def)->parallel_safe) out.parallel_safe_ = false;
  }

  const bool try_cache = params.predicate_caching &&
                         params.cache_mode == CacheMode::kPredicate;
  ShardedPredicateCache::Options options;
  if (try_cache && pred.is_expensive() && cacheable && !calls.empty()) {
    out.cache_enabled_ = true;
    options.max_entries = params.cache_max_entries;
    options.max_bytes = params.cache_max_bytes;
    options.lru = params.cache_lru;
    options.shards =
        ShardedPredicateCache::ShardsFor(params.parallel_workers);
    options.adaptive = params.adaptive_caching;
    options.probe_window = params.adaptive_probe_window;
  }
  if (out.cache_enabled_ && shared != nullptr) {
    // Resolve every referenced alias to its table so identical text over
    // different tables never shares a memo (see BuildSharedCacheKey).
    std::string resolved;
    bool resolvable = binding != nullptr;
    if (resolvable) {
      for (const std::string& alias : pred.tables) {
        auto it = binding->find(alias);
        if (it == binding->end() || it->second == nullptr) {
          resolvable = false;
          break;
        }
        resolved += alias;
        resolved += '=';
        resolved += it->second->name();
        resolved += ';';
      }
    }
    if (resolvable) {
      out.cache_ = shared->GetOrCreate(
          BuildSharedCacheKey(pred.expr->ToString(), resolved, options),
          options);
      out.hits_baseline_ = out.cache_->hits();
      out.evictions_baseline_ = out.cache_->evictions();
      return out;
    }
  }
  out.cache_ = std::make_shared<ShardedPredicateCache>(options);
  return out;
}

namespace {

/// Per-thread key buffer: Eval runs concurrently on the parallel
/// evaluator's workers. Reusing it inside a compute callback is safe — the
/// memo stops reading the key before the callback starts.
types::KeyEncoder& KeyScratch() {
  thread_local types::KeyEncoder encoder;
  return encoder;
}

/// FilterSelection's scratch: the batch's keys written back to back, and
/// the outer tuple's encoded values. Kept apart from KeyScratch because the
/// keys must stay valid across every compute of the batch.
struct SelectionScratch {
  /// One piece of a key: encoded outer values [begin, end) of `outer`, or
  /// (when `inner`) batch column `begin`.
  struct Piece {
    bool inner;
    size_t begin;
    size_t end;
  };
  types::KeyEncoder outer;
  std::vector<Piece> pieces;
  types::KeyEncoder keys;
  std::vector<size_t> ends;
  std::vector<std::string_view> views;
};

/// Lends one FilterSelection call this thread's spare SelectionScratch,
/// and takes it back when the call ends. A compute may run a nested plan
/// on this thread (a rewritten IN-subquery does) whose own FilterSelection
/// would otherwise overwrite the keys the outer batch probe is still
/// reading; a nested call finds no spare and allocates its own.
class SelectionLease {
 public:
  SelectionLease() : scratch_(std::move(Spare())) {
    if (scratch_ == nullptr) scratch_ = std::make_unique<SelectionScratch>();
  }
  ~SelectionLease() { Spare() = std::move(scratch_); }

  SelectionLease(const SelectionLease&) = delete;
  SelectionLease& operator=(const SelectionLease&) = delete;

  SelectionScratch& operator*() { return *scratch_; }

 private:
  static std::unique_ptr<SelectionScratch>& Spare() {
    thread_local std::unique_ptr<SelectionScratch> spare;
    return spare;
  }

  std::unique_ptr<SelectionScratch> scratch_;
};

}  // namespace

// The key is the values of the predicate's input columns, in the storage
// wire format: the paper's "hash table keyed on the bindings of the input
// variables". Eval and FilterSelection encode the same binding to the same
// bytes, so Filters and joins share cache entries.

bool CachedPredicate::Eval(const types::Tuple& tuple,
                           expr::EvalContext* ctx) {
  if (!cache_enabled()) return bound_->EvalBool(tuple, ctx);
  types::KeyEncoder& key = KeyScratch();
  key.Begin(bound_->column_indexes().size());
  for (size_t index : bound_->column_indexes()) key.Add(tuple.Get(index));
  return cache_->GetOrCompute(
      key.bytes(), [&] { return bound_->EvalBool(tuple, ctx); });
}

void CachedPredicate::FilterSelection(const types::Tuple* outer,
                                      types::ColumnBatch* batch,
                                      expr::EvalContext* ctx) {
  std::vector<uint32_t>& sel = *batch->mutable_selection();
  const auto eval_row = [&](uint32_t row) {
    return bound_->EvalBool(outer != nullptr ? batch->ConcatRow(*outer, row)
                                             : batch->RowAsTuple(row),
                            ctx);
  };
  size_t out = 0;
  if (!cache_enabled()) {
    for (const uint32_t row : sel) {
      if (eval_row(row)) sel[out++] = row;
    }
    sel.resize(out);
    return;
  }

  SelectionLease lease;
  SelectionScratch& scratch = *lease;
  const std::vector<size_t>& columns = bound_->column_indexes();
  const size_t outer_width = outer != nullptr ? outer->NumValues() : 0;
  scratch.outer.Clear();
  scratch.pieces.clear();
  for (const size_t index : columns) {
    if (index >= outer_width) {
      scratch.pieces.push_back({true, index - outer_width, 0});
      continue;
    }
    const size_t begin = scratch.outer.bytes().size();
    scratch.outer.Add(outer->Get(index));
    if (!scratch.pieces.empty() && !scratch.pieces.back().inner) {
      scratch.pieces.back().end = scratch.outer.bytes().size();
    } else {
      scratch.pieces.push_back({false, begin, scratch.outer.bytes().size()});
    }
  }
  const std::string_view outer_bytes = scratch.outer.bytes();
  scratch.keys.Clear();
  scratch.ends.clear();
  for (const uint32_t row : sel) {
    scratch.keys.BeginNext(columns.size());
    for (const SelectionScratch::Piece& piece : scratch.pieces) {
      if (piece.inner) {
        scratch.keys.AddCell(*batch, piece.begin, row);
      } else {
        scratch.keys.AddEncoded(
            outer_bytes.substr(piece.begin, piece.end - piece.begin));
      }
    }
    scratch.ends.push_back(scratch.keys.bytes().size());
  }
  // Views are taken only now: the buffer may move while it grows.
  const std::string_view all_keys = scratch.keys.bytes();
  scratch.views.clear();
  size_t begin = 0;
  for (const size_t end : scratch.ends) {
    scratch.views.push_back(all_keys.substr(begin, end - begin));
    begin = end;
  }
  // Verdicts arrive in selection order, so the survivors are compacted in
  // place: position `out` never passes the position being decided.
  cache_->GetOrComputeBatch(
      scratch.views, [&](size_t i) { return eval_row(sel[i]); },
      [&](size_t i, bool pass) {
        if (pass) sel[out++] = sel[i];
      });
  sel.resize(out);
}

}  // namespace ppp::exec
