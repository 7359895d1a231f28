#ifndef PPP_EXEC_JOIN_OPS_H_
#define PPP_EXEC_JOIN_OPS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/table.h"
#include "exec/operator.h"
#include "storage/record_id.h"

namespace ppp::exec {

/// Pipelined nested-loop join: the inner subtree is re-Open()ed for every
/// outer tuple, re-reading its pages through the buffer pool — the
/// behaviour the paper's `j{R}|S|` cost term describes. Each rescan is
/// pulled as ColumnBatches (scans decode a page per pool fetch; row-only
/// inners go through the default adapter) and walked along the selection
/// vector. The primary predicate (possibly expensive, possibly absent for a
/// cross product) narrows each inner batch's selection in one
/// CachedPredicate::FilterSelection call against the current outer tuple:
/// one batch probe of the §5.1 cache, keyed from the outer values encoded
/// once and the inner cells, whose verdicts, invocations and hits equal
/// probing pair by pair. A joined tuple is built only for pairs that pass
/// (and inside a cache miss's compute).
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(std::unique_ptr<Operator> outer,
                   std::unique_ptr<Operator> inner,
                   std::optional<CachedPredicate> primary, ExecContext* ctx);

  std::string Describe() const override;
  std::vector<Operator*> Children() override {
    return {outer_.get(), inner_.get()};
  }

 protected:
  common::Status OpenImpl() override;
  common::Status NextImpl(types::Tuple* tuple, bool* eof) override;
  void RefreshLocalStats() const override;

 private:
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  std::optional<CachedPredicate> primary_;
  ExecContext* ctx_;
  types::Tuple outer_tuple_;
  bool have_outer_ = false;
  /// The current rescan's inner batch, the next position in its selection,
  /// and whether the rescan has delivered its last batch.
  types::ColumnBatch inner_batch_;
  size_t inner_pos_ = 0;
  bool inner_eof_ = false;
};

/// Index nested-loop join: for each outer tuple, probes the inner table's
/// B-tree on the join column and fetches the matching tuples.
class IndexNestedLoopJoinOp : public Operator {
 public:
  IndexNestedLoopJoinOp(std::unique_ptr<Operator> outer,
                        const catalog::Table* inner_table,
                        const std::string& inner_alias,
                        std::string inner_column, size_t outer_key_index);

  std::string Describe() const override;
  /// The probed inner table is not an operator, so the outer input is the
  /// only child.
  std::vector<Operator*> Children() override { return {outer_.get()}; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextImpl(types::Tuple* tuple, bool* eof) override;

 private:
  std::unique_ptr<Operator> outer_;
  const catalog::Table* inner_table_;
  std::string inner_column_;
  size_t outer_key_index_;
  types::Tuple outer_tuple_;
  std::vector<storage::RecordId> matches_;
  size_t match_pos_ = 0;
  bool have_outer_ = false;
};

/// Sort-merge join on a simple equi-join key. On Open both inputs are
/// drained as ColumnBatches, which the operator keeps; each side's rows
/// with a non-NULL key (NULL keys never join) become (batch, row)
/// references, stable-sorted by key, so equal keys keep their input order
/// (the sort's I/O is modeled, not simulated — see DESIGN.md). The merge
/// walks the references and builds a joined tuple only for an emitted
/// match, in one allocation straight from the two batches' cells. Keys
/// compare with Value::Compare semantics (ColumnBatch::CompareCells); when
/// every batch of both sides stores its key as native int64, the same sort
/// and merge compare the int64 copied into each reference instead.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(std::unique_ptr<Operator> outer,
              std::unique_ptr<Operator> inner, size_t outer_key_index,
              size_t inner_key_index);

  std::string Describe() const override;
  std::vector<Operator*> Children() override {
    return {outer_.get(), inner_.get()};
  }

 protected:
  common::Status OpenImpl() override;
  common::Status NextImpl(types::Tuple* tuple, bool* eof) override;

 private:
  /// A row of one of a side's batches; `key` is the row's key when the
  /// batch stores it as native int64.
  struct RowRef {
    int64_t key;
    uint32_t batch;
    uint32_t row;
  };
  /// One input, drained: its batches (kept across Opens so a rescan
  /// reuses their capacity) and its key-sorted row references.
  struct Side {
    size_t key_index = 0;
    std::vector<types::ColumnBatch> batches;
    std::vector<RowRef> rows;
    /// True when every drained batch stores the key as native int64.
    bool int_keys = true;
  };

  /// Opens and drains `child` into `side`, then sorts its references.
  common::Status Load(Operator* child, Side* side);
  /// Three-way key comparison of `x` (a row of `a`) with `y` (of `b`).
  static int CompareKeys(const Side& a, const RowRef& x, const Side& b,
                         const RowRef& y);

  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  Side outer_side_;
  Side inner_side_;
  size_t oi_ = 0;
  size_t inner_base_ = 0;   // First inner row of the current key group.
  size_t inner_end_ = 0;    // One past the group.
  size_t group_pos_ = 0;    // Cursor within the group.
  bool group_active_ = false;
};

/// In-memory hash join: builds on the inner input, streams the outer.
///
/// The build drains the inner as ColumnBatches, which the operator keeps;
/// the table holds (batch, row) references grouped by key, each group's
/// rows in build order. Each build key is hashed exactly once, from its
/// cell (ColumnBatch::HashCell, equal to Value::Hash): the hash lands in
/// the key's group and, when a BloomTransfer is attached, feeds the
/// transferred Bloom filter over the distinct keys — never a second hash.
/// The probe side pulls outer tuples one at a time, hashes each key once,
/// and feeds join misses back to the transfer as measured false positives;
/// a joined tuple is built only per match, by ColumnBatch::ConcatRow.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(std::unique_ptr<Operator> outer,
             std::unique_ptr<Operator> inner, size_t outer_key_index,
             size_t inner_key_index,
             std::shared_ptr<BloomTransfer> transfer = nullptr);

  std::string Describe() const override;
  std::vector<Operator*> Children() override {
    return {outer_.get(), inner_.get()};
  }

 protected:
  common::Status OpenImpl() override;
  common::Status NextImpl(types::Tuple* tuple, bool* eof) override;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  /// One build row; `next` links to the next row with the same key.
  struct BuildRow {
    uint32_t batch;
    uint32_t row;
    uint32_t next;
  };
  /// One distinct build key: its hash and its first and last build rows.
  struct KeyGroup {
    uint64_t hash;
    uint32_t head;
    uint32_t tail;
  };

  /// The group whose key hashes to `hash` and satisfies `same_key` (called
  /// with the group's first build row), or kNone; `*slot` is left at the
  /// group's slot, or at the empty slot where it would go.
  template <typename SameKey>
  uint32_t FindGroup(uint64_t hash, const SameKey& same_key,
                     size_t* slot) const;
  /// Doubles the slot array and re-places every group.
  void GrowSlots();

  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  size_t outer_key_;
  size_t inner_key_;
  std::shared_ptr<BloomTransfer> transfer_;
  /// The drained build side (kept across Opens so a rescan reuses their
  /// capacity).
  std::vector<types::ColumnBatch> batches_;
  std::vector<BuildRow> rows_;
  std::vector<KeyGroup> groups_;
  /// Open-addressed index over groups_ (group index + 1; 0 = empty),
  /// power-of-two sized, at most half full, linear probing.
  std::vector<uint32_t> slots_;
  types::Tuple outer_tuple_;
  /// Next build row to join with outer_tuple_, or kNone.
  uint32_t match_ = kNone;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_JOIN_OPS_H_
