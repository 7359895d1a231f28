#include "exec/join_ops.h"

#include <algorithm>
#include <optional>

#include "obs/span.h"

namespace ppp::exec {

// ---- NestedLoopJoinOp ------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(std::unique_ptr<Operator> outer,
                                   std::unique_ptr<Operator> inner,
                                   std::optional<CachedPredicate> primary,
                                   ExecContext* ctx)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      primary_(std::move(primary)),
      ctx_(ctx) {
  schema_ = types::RowSchema::Concat(outer_->schema(), inner_->schema());
}

common::Status NestedLoopJoinOp::OpenImpl() {
  have_outer_ = false;
  return outer_->Open();
}

common::Status NestedLoopJoinOp::NextImpl(types::Tuple* tuple, bool* eof) {
  while (true) {
    if (!have_outer_) {
      bool outer_eof = false;
      PPP_RETURN_IF_ERROR(outer_->Next(&outer_tuple_, &outer_eof));
      if (outer_eof) {
        *eof = true;
        return common::Status::OK();
      }
      // Rescan: the inner pipeline restarts and re-reads its pages.
      PPP_RETURN_IF_ERROR(inner_->Open());
      have_outer_ = true;
      inner_batch_.Clear();
      inner_pos_ = 0;
      inner_eof_ = false;
    }
    // The selection holds only pairs that passed the primary predicate.
    const std::vector<uint32_t>& selection = inner_batch_.selection();
    if (inner_pos_ < selection.size()) {
      *tuple = inner_batch_.ConcatRow(outer_tuple_, selection[inner_pos_++]);
      *eof = false;
      return common::Status::OK();
    }
    if (inner_eof_) {
      have_outer_ = false;
      continue;
    }
    PPP_RETURN_IF_ERROR(
        inner_->NextColumnBatch(batch_size_, &inner_batch_, &inner_eof_));
    inner_pos_ = 0;
    if (primary_.has_value() && inner_batch_.selected() > 0) {
      primary_->FilterSelection(&outer_tuple_, &inner_batch_, &ctx_->eval);
    }
  }
}

std::string NestedLoopJoinOp::Describe() const {
  return primary_.has_value() ? "NestedLoopJoin" : "NestedLoopJoin(cross)";
}

void NestedLoopJoinOp::RefreshLocalStats() const {
  if (!primary_.has_value()) return;
  stats_.has_cache = true;
  stats_.cache_enabled = primary_->cache_enabled();
  stats_.cache_hits = primary_->cache_hits();
  stats_.cache_entries = primary_->cache_entries();
  stats_.cache_evictions = primary_->cache_evictions();
}

// ---- IndexNestedLoopJoinOp -------------------------------------------------

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(
    std::unique_ptr<Operator> outer, const catalog::Table* inner_table,
    const std::string& inner_alias, std::string inner_column,
    size_t outer_key_index)
    : outer_(std::move(outer)),
      inner_table_(inner_table),
      inner_column_(std::move(inner_column)),
      outer_key_index_(outer_key_index) {
  schema_ = types::RowSchema::Concat(
      outer_->schema(), inner_table->RowSchemaForAlias(inner_alias));
}

common::Status IndexNestedLoopJoinOp::OpenImpl() {
  have_outer_ = false;
  matches_.clear();
  match_pos_ = 0;
  return outer_->Open();
}

common::Status IndexNestedLoopJoinOp::NextImpl(types::Tuple* tuple, bool* eof) {
  const storage::BTree* index = inner_table_->GetIndex(inner_column_);
  if (index == nullptr) {
    return common::Status::NotFound("no index on " + inner_table_->name() +
                                    "." + inner_column_);
  }
  while (true) {
    if (have_outer_ && match_pos_ < matches_.size()) {
      PPP_ASSIGN_OR_RETURN(types::Tuple inner_tuple,
                           inner_table_->Read(matches_[match_pos_]));
      ++match_pos_;
      *tuple = types::Tuple::Concat(outer_tuple_, inner_tuple);
      *eof = false;
      return common::Status::OK();
    }
    bool outer_eof = false;
    PPP_RETURN_IF_ERROR(outer_->Next(&outer_tuple_, &outer_eof));
    if (outer_eof) {
      *eof = true;
      return common::Status::OK();
    }
    const types::Value& key = outer_tuple_.Get(outer_key_index_);
    matches_.clear();
    match_pos_ = 0;
    have_outer_ = true;
    if (!key.is_null() && key.type() == types::TypeId::kInt64) {
      matches_ = index->Lookup(key.AsInt64());
    }
  }
}

std::string IndexNestedLoopJoinOp::Describe() const {
  return "IndexNestedLoopJoin(" + inner_table_->name() + "." +
         inner_column_ + ")";
}

// ---- MergeJoinOp -----------------------------------------------------------

MergeJoinOp::MergeJoinOp(std::unique_ptr<Operator> outer,
                         std::unique_ptr<Operator> inner,
                         size_t outer_key_index, size_t inner_key_index)
    : outer_(std::move(outer)), inner_(std::move(inner)) {
  schema_ = types::RowSchema::Concat(outer_->schema(), inner_->schema());
  outer_side_.key_index = outer_key_index;
  inner_side_.key_index = inner_key_index;
}

int MergeJoinOp::CompareKeys(const Side& a, const RowRef& x, const Side& b,
                             const RowRef& y) {
  if (a.int_keys && b.int_keys) {
    return x.key < y.key ? -1 : (x.key > y.key ? 1 : 0);
  }
  return a.batches[x.batch].CompareCells(a.key_index, x.row,
                                         b.batches[y.batch], b.key_index,
                                         y.row);
}

common::Status MergeJoinOp::Load(Operator* child, Side* side) {
  PPP_RETURN_IF_ERROR(child->Open());
  side->rows.clear();
  side->int_keys = true;
  uint32_t used = 0;
  bool eof = false;
  while (!eof) {
    if (used == side->batches.size()) side->batches.emplace_back();
    types::ColumnBatch& batch = side->batches[used];
    PPP_RETURN_IF_ERROR(child->NextColumnBatch(batch_size_, &batch, &eof));
    if (batch.selected() == 0) continue;
    const types::ColumnBatch::Column& key = batch.column(side->key_index);
    const bool int_keys = !key.boxed && key.type == types::TypeId::kInt64;
    side->int_keys = side->int_keys && int_keys;
    for (const uint32_t row : batch.selection()) {
      // NULL keys never join.
      if (key.nulls[row] != 0) continue;
      side->rows.push_back({int_keys ? key.i64[row] : 0, used, row});
    }
    ++used;
  }
  std::stable_sort(side->rows.begin(), side->rows.end(),
                   [side](const RowRef& x, const RowRef& y) {
                     return CompareKeys(*side, x, *side, y) < 0;
                   });
  return common::Status::OK();
}

common::Status MergeJoinOp::OpenImpl() {
  PPP_RETURN_IF_ERROR(Load(outer_.get(), &outer_side_));
  PPP_RETURN_IF_ERROR(Load(inner_.get(), &inner_side_));
  oi_ = 0;
  inner_base_ = 0;
  inner_end_ = 0;
  group_pos_ = 0;
  group_active_ = false;
  return common::Status::OK();
}

common::Status MergeJoinOp::NextImpl(types::Tuple* tuple, bool* eof) {
  const std::vector<RowRef>& outer_rows = outer_side_.rows;
  const std::vector<RowRef>& inner_rows = inner_side_.rows;
  while (true) {
    if (group_active_) {
      if (group_pos_ < inner_end_) {
        const RowRef& outer = outer_rows[oi_];
        const RowRef& inner = inner_rows[group_pos_];
        *tuple = inner_side_.batches[inner.batch].ConcatRow(
            outer_side_.batches[outer.batch], outer.row, inner.row);
        ++group_pos_;
        *eof = false;
        return common::Status::OK();
      }
      // Outer row exhausted its group; the next outer row may share the
      // key and reuse the same group.
      ++oi_;
      group_active_ = false;
      if (oi_ < outer_rows.size() &&
          CompareKeys(outer_side_, outer_rows[oi_], outer_side_,
                      outer_rows[oi_ - 1]) == 0) {
        group_pos_ = inner_base_;
        group_active_ = true;
        continue;
      }
      inner_base_ = inner_end_;
      continue;
    }
    if (oi_ >= outer_rows.size() || inner_base_ >= inner_rows.size()) {
      *eof = true;
      return common::Status::OK();
    }
    const int cmp = CompareKeys(outer_side_, outer_rows[oi_], inner_side_,
                                inner_rows[inner_base_]);
    if (cmp < 0) {
      ++oi_;
    } else if (cmp > 0) {
      ++inner_base_;
    } else {
      // Delimit the inner group of this key.
      inner_end_ = inner_base_ + 1;
      while (inner_end_ < inner_rows.size() &&
             CompareKeys(inner_side_, inner_rows[inner_end_], inner_side_,
                         inner_rows[inner_base_]) == 0) {
        ++inner_end_;
      }
      group_pos_ = inner_base_;
      group_active_ = true;
    }
  }
}

std::string MergeJoinOp::Describe() const { return "MergeJoin"; }

// ---- HashJoinOp ------------------------------------------------------------

HashJoinOp::HashJoinOp(std::unique_ptr<Operator> outer,
                       std::unique_ptr<Operator> inner,
                       size_t outer_key_index, size_t inner_key_index,
                       std::shared_ptr<BloomTransfer> transfer)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_key_(outer_key_index),
      inner_key_(inner_key_index),
      transfer_(std::move(transfer)) {
  schema_ = types::RowSchema::Concat(outer_->schema(), inner_->schema());
}

template <typename SameKey>
uint32_t HashJoinOp::FindGroup(uint64_t hash, const SameKey& same_key,
                               size_t* slot) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (slots_[i] != 0) {
    const uint32_t group = slots_[i] - 1;
    if (groups_[group].hash == hash && same_key(rows_[groups_[group].head])) {
      *slot = i;
      return group;
    }
    i = (i + 1) & mask;
  }
  *slot = i;
  return kNone;
}

void HashJoinOp::GrowSlots() {
  slots_.assign(slots_.size() * 2, 0);
  const size_t mask = slots_.size() - 1;
  for (size_t group = 0; group < groups_.size(); ++group) {
    size_t i = static_cast<size_t>(groups_[group].hash) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(group + 1);
  }
}

common::Status HashJoinOp::OpenImpl() {
  rows_.clear();
  groups_.clear();
  slots_.assign(16, 0);
  // Per-batch build loop: each key is hashed exactly once; the hash lands
  // in its group and (below) in the transferred Bloom filter.
  PPP_RETURN_IF_ERROR(inner_->Open());
  uint32_t used = 0;
  bool eof = false;
  while (!eof) {
    if (used == batches_.size()) batches_.emplace_back();
    types::ColumnBatch& batch = batches_[used];
    PPP_RETURN_IF_ERROR(inner_->NextColumnBatch(batch_size_, &batch, &eof));
    if (batch.selected() == 0) continue;
    const uint32_t batch_index = used++;
    for (const uint32_t row : batch.selection()) {
      if (batch.IsNull(inner_key_, row)) continue;
      const uint64_t hash = batch.HashCell(inner_key_, row);
      size_t slot = 0;
      const uint32_t group = FindGroup(
          hash,
          [&](const BuildRow& head) {
            return batches_[head.batch].CompareCells(
                       inner_key_, head.row, batch, inner_key_, row) == 0;
          },
          &slot);
      const auto id = static_cast<uint32_t>(rows_.size());
      rows_.push_back({batch_index, row, kNone});
      if (group != kNone) {
        rows_[groups_[group].tail].next = id;
        groups_[group].tail = id;
        continue;
      }
      slots_[slot] = static_cast<uint32_t>(groups_.size() + 1);
      groups_.push_back({hash, id, id});
      if (groups_.size() * 2 > slots_.size()) GrowSlots();
    }
  }
  if (transfer_ != nullptr && !transfer_->published()) {
    // Build the sideways filter over the distinct build keys (their hashes
    // were computed above) and publish it before the probe side opens, so
    // the consuming scan prunes from its very first batch.
    std::optional<obs::Span> span;
    if (obs::SpanTracer::Global().enabled()) {
      span.emplace("exec", "bloom.build");
      span->AddArg("site", transfer_->Site());
    }
    auto filter = std::make_unique<BloomFilter>(groups_.size());
    for (const KeyGroup& group : groups_) filter->InsertHash(group.hash);
    if (span.has_value()) {
      span->AddArg("keys", std::to_string(groups_.size()));
      span->AddArg("bits_set", std::to_string(filter->BitsSet()));
    }
    transfer_->Publish(std::move(filter));
  }
  match_ = kNone;
  return outer_->Open();
}

common::Status HashJoinOp::NextImpl(types::Tuple* tuple, bool* eof) {
  while (true) {
    if (match_ != kNone) {
      const BuildRow& build = rows_[match_];
      match_ = build.next;
      const types::ColumnBatch& batch = batches_[build.batch];
      if (match_ == kNone) {
        // Last (typically only) match for this outer row: steal the outer
        // tuple instead of copying every value. The next iteration
        // overwrites outer_tuple_ before reading it.
        *tuple = batch.ConcatRow(std::move(outer_tuple_), build.row);
      } else {
        *tuple = batch.ConcatRow(outer_tuple_, build.row);
      }
      *eof = false;
      return common::Status::OK();
    }
    bool outer_eof = false;
    PPP_RETURN_IF_ERROR(outer_->Next(&outer_tuple_, &outer_eof));
    if (outer_eof) {
      *eof = true;
      return common::Status::OK();
    }
    const types::Value& key = outer_tuple_.Get(outer_key_);
    if (key.is_null()) continue;
    size_t slot = 0;
    const uint32_t group = FindGroup(
        static_cast<uint64_t>(key.Hash()),
        [&](const BuildRow& head) {
          return batches_[head.batch].CompareCell(inner_key_, head.row,
                                                  key) == 0;
        },
        &slot);
    if (group != kNone) {
      match_ = groups_[group].head;
    } else if (transfer_ != nullptr && transfer_->ActiveFilter() != nullptr) {
      // This row survived the transferred filter but has no join partner:
      // a measured false positive.
      transfer_->RecordJoinMiss();
    }
  }
}

std::string HashJoinOp::Describe() const {
  return transfer_ != nullptr ? "HashJoin(bloom)" : "HashJoin";
}

}  // namespace ppp::exec
