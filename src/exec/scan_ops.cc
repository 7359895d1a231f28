#include "exec/scan_ops.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"
#include "obs/span.h"

namespace ppp::exec {

void TransferProbe::FilterBatch(TupleBatch* batch) const {
  for (const Slot& slot : slots_) {
    const BloomFilter* filter = slot.transfer->ActiveFilter();
    if (filter == nullptr || batch->empty()) continue;
    std::optional<obs::Span> span;
    if (obs::SpanTracer::Global().enabled()) {
      span.emplace("exec", "bloom.probe");
      span->AddArg("site", slot.transfer->Site());
    }
    const size_t probed = batch->size();
    std::vector<uint64_t> hashes;
    hashes.reserve(probed);
    for (const types::Tuple& tuple : batch->tuples) {
      hashes.push_back(
          static_cast<uint64_t>(tuple.Get(slot.key_index).Hash()));
    }
    std::vector<char> keep;
    const size_t kept = filter->ProbeBatch(hashes.data(), probed, &keep);
    if (kept < probed) {
      size_t out = 0;
      for (size_t i = 0; i < probed; ++i) {
        if (keep[i]) batch->tuples[out++] = std::move(batch->tuples[i]);
      }
      batch->tuples.resize(out);
    }
    slot.transfer->RecordProbes(probed, kept);
    if (span.has_value()) {
      span->AddArg("probed", std::to_string(probed));
      span->AddArg("passed", std::to_string(kept));
    }
  }
}

void TransferProbe::FilterColumns(types::ColumnBatch* batch) const {
  for (const Slot& slot : slots_) {
    const BloomFilter* filter = slot.transfer->ActiveFilter();
    if (filter == nullptr || batch->selected() == 0) continue;
    std::optional<obs::Span> span;
    if (obs::SpanTracer::Global().enabled()) {
      span.emplace("exec", "bloom.probe");
      span->AddArg("site", slot.transfer->Site());
    }
    std::vector<uint32_t>& sel = *batch->mutable_selection();
    const size_t probed = sel.size();
    std::vector<uint64_t> hashes;
    hashes.reserve(probed);
    for (const uint32_t row : sel) {
      hashes.push_back(batch->HashCell(slot.key_index, row));
    }
    std::vector<char> keep;
    const size_t kept = filter->ProbeBatch(hashes.data(), probed, &keep);
    if (kept < probed) {
      size_t out = 0;
      for (size_t i = 0; i < probed; ++i) {
        if (keep[i]) sel[out++] = sel[i];
      }
      sel.resize(out);
    }
    slot.transfer->RecordProbes(probed, kept);
    if (span.has_value()) {
      span->AddArg("probed", std::to_string(probed));
      span->AddArg("passed", std::to_string(kept));
    }
  }
}

bool TransferProbe::Passes(const types::Tuple& tuple) const {
  for (const Slot& slot : slots_) {
    const BloomFilter* filter = slot.transfer->ActiveFilter();
    if (filter == nullptr) continue;
    const bool pass = filter->MightContainHash(
        static_cast<uint64_t>(tuple.Get(slot.key_index).Hash()));
    slot.transfer->RecordProbes(1, pass ? 1 : 0);
    if (!pass) return false;
  }
  return true;
}

void TransferProbe::FoldStats(OperatorStats* stats) const {
  if (slots_.empty()) return;
  stats->has_transfer = true;
  stats->transfer_probed = 0;
  stats->transfer_passed = 0;
  stats->transfer_killed = false;
  stats->transfer_fpr = -1.0;
  for (const Slot& slot : slots_) {
    stats->transfer_probed += slot.transfer->probed();
    stats->transfer_passed += slot.transfer->passed();
    stats->transfer_killed = stats->transfer_killed || slot.transfer->killed();
    const double fpr = slot.transfer->MeasuredFpr();
    if (fpr >= 0.0) {
      stats->transfer_fpr = std::max(stats->transfer_fpr, fpr);
    }
  }
}

SeqScanOp::SeqScanOp(const catalog::Table* table, const std::string& alias)
    : table_(table), alias_(alias), it_(table->heap().Scan()) {
  schema_ = table->RowSchemaForAlias(alias);
}

common::Status SeqScanOp::OpenImpl() {
  it_ = table_->heap().Scan();
  return common::Status::OK();
}

common::Status SeqScanOp::NextImpl(types::Tuple* tuple, bool* eof) {
  storage::RecordId rid;
  std::string bytes;
  while (true) {
    if (!it_.Next(&rid, &bytes)) {
      *eof = true;
      return common::Status::OK();
    }
    PPP_ASSIGN_OR_RETURN(*tuple, types::Tuple::Deserialize(bytes));
    if (transfers_.empty() || transfers_.Passes(*tuple)) break;
  }
  *eof = false;
  return common::Status::OK();
}

common::Status SeqScanOp::NextBatchImpl(size_t max_rows, TupleBatch* batch,
                                        bool* eof) {
  *eof = false;
  storage::RecordId rid;
  std::string bytes;
  while (batch->size() < max_rows) {
    if (!it_.Next(&rid, &bytes)) {
      *eof = true;
      break;
    }
    PPP_ASSIGN_OR_RETURN(types::Tuple tuple,
                         types::Tuple::Deserialize(bytes));
    batch->tuples.push_back(std::move(tuple));
  }
  if (!transfers_.empty()) transfers_.FilterBatch(batch);
  return common::Status::OK();
}

common::Status SeqScanOp::NextColumnBatchImpl(size_t max_rows,
                                              types::ColumnBatch* batch,
                                              bool* eof) {
  batch->Reset(schema_);
  *eof = false;
  storage::RecordId rid;
  std::string_view bytes;
  while (batch->num_rows() < max_rows) {
    if (!it_.NextView(&rid, &bytes)) {
      *eof = true;
      break;
    }
    PPP_RETURN_IF_ERROR(batch->AppendSerialized(bytes));
  }
  if (!transfers_.empty()) transfers_.FilterColumns(batch);
  return common::Status::OK();
}

std::string SeqScanOp::Describe() const {
  std::string out = "SeqScan(" + table_->name();
  if (alias_ != table_->name()) out += " AS " + alias_;
  return out + ")";
}

IndexScanOp::IndexScanOp(const catalog::Table* table,
                         const std::string& alias, std::string column,
                         int64_t key)
    : IndexScanOp(table, alias, std::move(column), key, key) {}

IndexScanOp::IndexScanOp(const catalog::Table* table,
                         const std::string& alias, std::string column,
                         int64_t lo, int64_t hi)
    : table_(table), alias_(alias), column_(std::move(column)), lo_(lo),
      hi_(hi) {
  schema_ = table->RowSchemaForAlias(alias);
}

common::Status IndexScanOp::OpenImpl() {
  const storage::BTree* index = table_->GetIndex(column_);
  if (index == nullptr) {
    return common::Status::NotFound("no index on " + table_->name() + "." +
                                    column_);
  }
  rids_ = index->LookupRange(lo_, hi_);
  pos_ = 0;
  return common::Status::OK();
}

common::Status IndexScanOp::NextImpl(types::Tuple* tuple, bool* eof) {
  while (true) {
    if (pos_ >= rids_.size()) {
      *eof = true;
      return common::Status::OK();
    }
    PPP_ASSIGN_OR_RETURN(*tuple, table_->Read(rids_[pos_]));
    ++pos_;
    if (transfers_.empty() || transfers_.Passes(*tuple)) break;
  }
  *eof = false;
  return common::Status::OK();
}

common::Status IndexScanOp::NextBatchImpl(size_t max_rows,
                                          TupleBatch* batch, bool* eof) {
  *eof = false;
  while (batch->size() < max_rows) {
    if (pos_ >= rids_.size()) {
      *eof = true;
      break;
    }
    PPP_ASSIGN_OR_RETURN(types::Tuple tuple, table_->Read(rids_[pos_]));
    ++pos_;
    batch->tuples.push_back(std::move(tuple));
  }
  if (!transfers_.empty()) transfers_.FilterBatch(batch);
  return common::Status::OK();
}

common::Status IndexScanOp::NextColumnBatchImpl(size_t max_rows,
                                                types::ColumnBatch* batch,
                                                bool* eof) {
  batch->Reset(schema_);
  *eof = false;
  while (batch->num_rows() < max_rows) {
    if (pos_ >= rids_.size()) {
      *eof = true;
      break;
    }
    PPP_ASSIGN_OR_RETURN(const types::Tuple tuple, table_->Read(rids_[pos_]));
    ++pos_;
    batch->AppendTuple(tuple);
  }
  if (!transfers_.empty()) transfers_.FilterColumns(batch);
  return common::Status::OK();
}

std::string IndexScanOp::Describe() const {
  if (lo_ == hi_) {
    return common::StringPrintf("IndexScan(%s.%s = %lld)",
                                table_->name().c_str(), column_.c_str(),
                                static_cast<long long>(lo_));
  }
  return common::StringPrintf("IndexScan(%lld <= %s.%s <= %lld)",
                              static_cast<long long>(lo_),
                              table_->name().c_str(), column_.c_str(),
                              static_cast<long long>(hi_));
}

}  // namespace ppp::exec
