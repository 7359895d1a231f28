#ifndef PPP_COMMON_SHARDED_MEMO_H_
#define PPP_COMMON_SHARDED_MEMO_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ppp::common {

/// Thread-safe memo table for the §5.1 predicate/function caches: a
/// hash table keyed on serialized input bindings, split into shards with
/// one mutex each so concurrent probes from the parallel predicate
/// evaluator don't serialize on a single lock.
///
/// Exactness is the design constraint — invocation counts are the paper's
/// measurement currency, so a memoized computation must run **at most once
/// per distinct key** no matter how many workers probe concurrently. A
/// miss registers the key in its shard's *pending* list before computing;
/// concurrent probes for the same key find it there, count a hit (the
/// serial execution would have hit the completed entry), and wait on the
/// shard's condition variable instead of recomputing. The computing thread
/// publishes the value into the shard's table, so a pending key is never
/// evicted. With one worker this degrades to exactly the serial
/// probe/compute/insert sequence.
///
/// Each shard's table is flat: a dense entry array (hash, key bytes inline
/// up to kInlineKey, value, eviction-order links) indexed by an
/// open-addressed array of 8-byte slots. A probe hashes the key once and,
/// on a hit, reads one index slot and one entry.
///
/// GetOrComputeBatch probes a whole column batch's keys in order: it
/// hashes them all first, holds a shard's lock across each run of
/// consecutive keys in that shard, and bumps the probe/hit counters and
/// the hit listener once per run. A miss flushes the run's counts,
/// then takes exactly the single-key miss path (adaptive check, pending
/// registration, compute without the lock, publish with eviction), and the
/// run continues with the next key. Each key therefore sees the table,
/// the counters and the probe number it would see under one GetOrCompute
/// call per key: duplicates inside a batch hit the entry their first
/// occurrence published, eviction order and bounds are unchanged, and the
/// adaptive disable fires at the same probe. GetOrCompute is the same loop
/// over a one-key batch.
///
/// Replacement is FIFO per shard by default (the paper: "function or
/// predicate caches can be limited in size, using any of a variety of
/// replacement schemes"); `lru` recency-orders entries instead, so hot
/// bindings survive a bound. Bounds come in two flavours that compose:
/// `max_entries` (count) and `max_bytes` (approximate memory — key bytes
/// plus a fixed per-entry charge). The adaptive self-disable ("planned
/// for Montage but not implemented", §5.1) is detected online: zero hits
/// in the first `probe_window` probes disables the memo and frees its
/// entries. All follow the serial semantics exactly when single-threaded.
/// Under concurrency, invocation counts stay exact (at most one compute
/// per distinct key, and hits + computes = probes), but bounded caches may
/// evict in a run-dependent order, and a batch's run adds its probes and
/// hits only when it flushes, so a concurrent miss's adaptive check may
/// not see them yet.
template <typename V>
class ShardedMemo {
 public:
  struct Options {
    /// Total entry bound across all shards; 0 = unbounded.
    size_t max_entries = 0;
    /// Total (approximate) byte bound across all shards; 0 = unbounded.
    /// Each entry is charged its key size plus kEntryOverhead.
    size_t max_bytes = 0;
    /// Replacement order for bounded memos: FIFO by default, LRU when set
    /// (hits move the entry to the back of the eviction queue).
    bool lru = false;
    size_t shards = 1;
    /// Online self-disable when the first `probe_window` probes all miss.
    bool adaptive = false;
    uint64_t probe_window = 512;
  };

  /// Fixed per-entry charge against max_bytes. An accounting constant, kept
  /// so byte bounds evict at the same points they always have; it is not
  /// the real footprint of an entry in the flat table.
  static constexpr size_t kEntryOverhead = 64;

  /// Event callbacks, fired outside any per-key wait but possibly under a
  /// shard lock; must be cheap and non-blocking (atomic metric bumps).
  struct Listener {
    /// `count` hits: 1 per GetOrCompute hit, one call per run of hits in
    /// GetOrComputeBatch.
    std::function<void(uint64_t count)> on_hit;
    std::function<void()> on_miss;
    std::function<void()> on_eviction;
    std::function<void()> on_disable;
    /// A shard lock acquisition found the mutex already held by another
    /// worker: one acquisition per GetOrCompute, one per run of same-shard
    /// keys in GetOrComputeBatch.
    std::function<void()> on_contention;
  };

  explicit ShardedMemo(const Options& options = {}) { Reset(options); }

  ShardedMemo(const ShardedMemo&) = delete;
  ShardedMemo& operator=(const ShardedMemo&) = delete;

  /// Drops all entries and counters and applies new options.
  void Reset(const Options& options) {
    options_ = options;
    if (options_.shards == 0) options_.shards = 1;
    shards_ = std::vector<Shard>(options_.shards);
    shard_max_ =
        options_.max_entries == 0
            ? 0
            : (options_.max_entries + options_.shards - 1) / options_.shards;
    shard_max_bytes_ =
        options_.max_bytes == 0
            ? 0
            : (options_.max_bytes + options_.shards - 1) / options_.shards;
    probes_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    contended_probes_.store(0, std::memory_order_relaxed);
    disabled_.store(false, std::memory_order_relaxed);
  }

  void set_listener(Listener listener) { listener_ = std::move(listener); }

  const Options& options() const { return options_; }

  /// True once the adaptive policy gave up on this memo. The caller is
  /// expected to stop probing and compute directly (the serial code did
  /// exactly that), so `probes()` freezes at the disabling probe.
  bool disabled() const { return disabled_.load(std::memory_order_acquire); }

  /// Returns the memoized value for `key`, running `compute` at most once
  /// per distinct key. `compute` executes without any shard lock held, and
  /// `key` is not read once it starts (callers may reuse its buffer there).
  /// Callers stop probing once disabled(); a call after the disable
  /// computes without probing.
  template <typename Compute>
  V GetOrCompute(std::string_view key, const Compute& compute) {
    const uint64_t hash = std::hash<std::string_view>{}(key);
    V result{};
    Probe(std::span<const std::string_view>(&key, 1), &hash,
          [&](size_t) { return compute(); },
          [&](size_t, const V& value) { result = value; });
    return result;
  }

  /// Probes `keys` in order with exactly the effect of one GetOrCompute per
  /// key (see the class comment), calling `compute(i)` for key i's misses
  /// and `emit(i, value)` once per key, in key order. `emit` runs under a
  /// shard lock (dropping it per key is the cost this call exists to
  /// avoid), so it must be cheap and must not probe this memo; `compute`
  /// runs without any lock. The keys must stay readable until the call
  /// returns, also while a compute runs.
  /// Once the memo is disabled, the remaining keys are computed without
  /// probing, as a serial caller checking disabled() per key would.
  template <typename Compute, typename Emit>
  void GetOrComputeBatch(std::span<const std::string_view> keys,
                         const Compute& compute, const Emit& emit) {
    std::vector<uint64_t> hashes(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      hashes[i] = std::hash<std::string_view>{}(keys[i]);
    }
    Probe(keys, hashes.data(), compute, emit);
  }

  /// Drops every published entry. Computations in flight are unaffected:
  /// their waiters hold the pending record, and the computing worker still
  /// hands them the value.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.table.Clear();
    }
  }

  size_t entries() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.table.size();
    }
    return total;
  }

  /// Approximate bytes currently charged against max_bytes.
  size_t approx_bytes() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.table.charged_bytes();
    }
    return total;
  }

  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Shard lock acquisitions that found the mutex already held (see
  /// Listener::on_contention) — the contention signal the sharding exists
  /// to keep near zero.
  uint64_t contended_probes() const {
    return contended_probes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  /// Keys up to this many bytes are stored inside the entry; longer keys
  /// get a heap block of their own.
  static constexpr size_t kInlineKey = 24;

  /// One shard's published entries: a dense entry array threaded by the
  /// eviction order (head = next victim), with removed entries on a free
  /// list, plus an open-addressed index over it. Index slots hold the low
  /// 32 hash bits (which also give the home slot, so the index grows and
  /// deletes without touching entries) and entry id + 1; 0 is empty.
  /// Linear probing, load factor at most 1/2, backward-shift deletion.
  class Table {
   public:
    size_t size() const { return size_; }
    /// Bytes charged against max_bytes: key bytes plus kEntryOverhead each.
    size_t charged_bytes() const {
      return key_bytes_ + size_ * kEntryOverhead;
    }
    const V& value(uint32_t id) const { return entries_[id].value; }

    uint32_t Find(uint64_t hash, std::string_view key) const {
      if (slots_.empty()) return kNone;
      const uint64_t tag = hash & 0xffffffffu;
      for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
        const uint64_t slot = slots_[i];
        if (slot == 0) return kNone;
        if ((slot >> 32) != tag) continue;
        const uint32_t id = static_cast<uint32_t>(slot) - 1;
        const Entry& entry = entries_[id];
        if (entry.hash == hash && entry.key() == key) return id;
      }
    }

    /// Appends a new entry at the back of the eviction order. `key` must
    /// not be present.
    void PushBack(uint64_t hash, std::string_view key, const V& value) {
      if ((size_ + 1) * 2 > slots_.size()) Grow();
      uint32_t id = free_;
      if (id != kNone) {
        free_ = entries_[id].next;
      } else {
        id = static_cast<uint32_t>(entries_.size());
        entries_.emplace_back();
      }
      Entry& entry = entries_[id];
      entry.hash = hash;
      entry.SetKey(key);
      entry.value = value;
      LinkBack(id);
      Place(((hash & 0xffffffffu) << 32) | (uint64_t{id} + 1));
      ++size_;
      key_bytes_ += key.size();
    }

    /// Removes the entry at the front of the eviction order; the table
    /// must be non-empty.
    void PopFront() {
      const uint32_t id = head_;
      Entry& entry = entries_[id];
      EraseSlot(entry.hash, id);
      Unlink(id);
      --size_;
      key_bytes_ -= entry.key_size;
      entry.heap_key.reset();
      entry.value = V{};
      entry.next = free_;
      free_ = id;
    }

    void MoveToBack(uint32_t id) {
      if (id == tail_) return;
      Unlink(id);
      LinkBack(id);
    }

    /// Drops every entry and releases the memory.
    void Clear() { *this = Table(); }

   private:
    // An entry of a small value type fills exactly one cache line.
    struct alignas(V) alignas(sizeof(V) <= 8 ? 64 : 8) Entry {
      uint64_t hash = 0;
      uint32_t prev = kNone;
      uint32_t next = kNone;  // Also the free-list link.
      uint32_t key_size = 0;
      char inline_key[kInlineKey] = {};
      std::unique_ptr<char[]> heap_key;  // Keys longer than kInlineKey.
      V value{};

      std::string_view key() const {
        return {key_size <= kInlineKey ? inline_key : heap_key.get(),
                key_size};
      }

      void SetKey(std::string_view key) {
        key_size = static_cast<uint32_t>(key.size());
        char* dest = inline_key;
        if (key.size() > kInlineKey) {
          heap_key.reset(new char[key.size()]);
          dest = heap_key.get();
        }
        std::memcpy(dest, key.data(), key.size());
      }
    };

    void Grow() {
      std::vector<uint64_t> old = std::move(slots_);
      slots_.assign(old.empty() ? 16 : old.size() * 2, 0);
      mask_ = slots_.size() - 1;
      for (const uint64_t slot : old) {
        if (slot != 0) Place(slot);
      }
    }

    /// Stores `slot` in the first empty index position from its home.
    void Place(uint64_t slot) {
      size_t i = (slot >> 32) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }

    /// Removes entry `id`'s index slot and shifts later slots of its probe
    /// run back, so lookups never need tombstones.
    void EraseSlot(uint64_t hash, uint32_t id) {
      const uint64_t target = uint64_t{id} + 1;
      size_t hole = hash & mask_;
      while (static_cast<uint32_t>(slots_[hole]) != target) {
        hole = (hole + 1) & mask_;
      }
      for (size_t i = (hole + 1) & mask_;; i = (i + 1) & mask_) {
        const uint64_t slot = slots_[i];
        if (slot == 0) break;
        // The slot may move into the hole when the hole lies on its probe
        // path, i.e. between its home and its current position.
        const size_t home = (slot >> 32) & mask_;
        if (((i - home) & mask_) >= ((i - hole) & mask_)) {
          slots_[hole] = slot;
          hole = i;
        }
      }
      slots_[hole] = 0;
    }

    void LinkBack(uint32_t id) {
      Entry& entry = entries_[id];
      entry.prev = tail_;
      entry.next = kNone;
      if (tail_ != kNone) {
        entries_[tail_].next = id;
      } else {
        head_ = id;
      }
      tail_ = id;
    }

    void Unlink(uint32_t id) {
      Entry& entry = entries_[id];
      if (entry.prev != kNone) {
        entries_[entry.prev].next = entry.next;
      } else {
        head_ = entry.next;
      }
      if (entry.next != kNone) {
        entries_[entry.next].prev = entry.prev;
      } else {
        tail_ = entry.prev;
      }
    }

    std::vector<Entry> entries_;
    std::vector<uint64_t> slots_;
    size_t mask_ = 0;
    uint32_t head_ = kNone;
    uint32_t tail_ = kNone;
    uint32_t free_ = kNone;
    size_t size_ = 0;
    size_t key_bytes_ = 0;
  };

  /// A computation in flight. Waiters hold it by shared_ptr, so it outlives
  /// its removal from the shard's pending list.
  struct Pending {
    uint64_t hash = 0;
    std::string key;
    V value{};
    bool ready = false;  // Guarded by the owning shard's mutex.
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    Table table;
    /// Keys being computed, at most one per thread computing in this
    /// shard, so a linear scan beats hashing them.
    std::vector<std::shared_ptr<Pending>> pending;

    std::shared_ptr<Pending> FindPending(uint64_t hash,
                                         std::string_view key) const {
      for (const std::shared_ptr<Pending>& p : pending) {
        if (p->hash == hash && p->key == key) return p;
      }
      return nullptr;
    }

    void ErasePending(const Pending* done) {
      for (std::shared_ptr<Pending>& p : pending) {
        if (p.get() == done) {
          p = std::move(pending.back());
          pending.pop_back();
          return;
        }
      }
    }
  };

  /// The shard comes from the high hash bits; the index slot uses the low
  /// ones, so keys of one shard still spread over its whole index.
  size_t ShardOf(uint64_t hash) const {
    return static_cast<size_t>(((hash >> 32) * shards_.size()) >> 32);
  }

  /// The probe loop of GetOrCompute and GetOrComputeBatch; `hashes[i]` is
  /// the hash of `keys[i]`.
  template <typename Compute, typename Emit>
  void Probe(std::span<const std::string_view> keys, const uint64_t* hashes,
             const Compute& compute, const Emit& emit) {
    const size_t n = keys.size();
    size_t i = 0;
    while (i < n) {
      if (disabled()) {
        for (; i < n; ++i) emit(i, compute(i));
        return;
      }
      const size_t shard_index = ShardOf(hashes[i]);
      Shard& shard = shards_[shard_index];
      std::unique_lock<std::mutex> lock = LockShard(&shard);
      // Counts of the current run not yet added to probes_/hits_.
      uint64_t run_probes = 0;
      uint64_t run_hits = 0;
      for (; i < n && ShardOf(hashes[i]) == shard_index; ++i) {
        const uint64_t hash = hashes[i];
        const uint32_t id = shard.table.Find(hash, keys[i]);
        if (id != kNone) {
          ++run_probes;
          ++run_hits;
          if (options_.lru) shard.table.MoveToBack(id);
          emit(i, shard.table.value(id));
          continue;
        }
        if (std::shared_ptr<Pending> pending =
                shard.FindPending(hash, keys[i])) {
          // Another worker is computing this key right now. Waiting
          // (instead of recomputing) is what keeps invocation counts exact
          // under parallelism.
          ++run_probes;
          ++run_hits;
          FlushRun(&run_probes, &run_hits);
          shard.cv.wait(lock, [&] { return pending->ready; });
          emit(i, pending->value);
          continue;
        }
        // The miss takes its probe number as a lone probe would, after the
        // run's earlier probes and hits are counted. (Folding it into the
        // flush as fetch_add(n) + n is what this would naturally be, but
        // GCC 12 at -O2 miscompiles that here: it adds the old value to
        // itself.)
        FlushRun(&run_probes, &run_hits);
        const uint64_t probe =
            probes_.fetch_add(1, std::memory_order_relaxed) + 1;
        const V value = Miss(&shard, &lock, probe, hash, keys[i],
                             [&] { return compute(i); });
        if (!lock.owns_lock()) {
          // This miss disabled the memo; the rest is computed directly.
          emit(i++, value);
          break;
        }
        emit(i, value);
        if (disabled()) {
          ++i;
          break;
        }
      }
      FlushRun(&run_probes, &run_hits);
    }
  }

  void CountHits(uint64_t count) {
    hits_.fetch_add(count, std::memory_order_relaxed);
    if (listener_.on_hit) listener_.on_hit(count);
  }

  /// Adds a batch run's pending probe and hit counts to the totals and
  /// zeroes them.
  void FlushRun(uint64_t* probes, uint64_t* hits) {
    if (*probes > 0) {
      probes_.fetch_add(*probes, std::memory_order_relaxed);
      *probes = 0;
    }
    if (*hits > 0) {
      CountHits(*hits);
      *hits = 0;
    }
  }

  /// The miss path of probe number `probe` for `key`, entered with the
  /// shard locked: the adaptive decision, then pending registration,
  /// `compute` without the lock, and publication. Returns with the lock
  /// held, unless this miss disabled the memo.
  template <typename Compute>
  V Miss(Shard* shard, std::unique_lock<std::mutex>* lock, uint64_t probe,
         uint64_t hash, std::string_view key, const Compute& compute) {
    if (listener_.on_miss) listener_.on_miss();
    if (options_.adaptive && probe >= options_.probe_window &&
        hits_.load(std::memory_order_relaxed) == 0) {
      // Every binding so far was distinct: memoization cannot pay here.
      // Free the memory (the footnote-4 swap problem) and stop keying.
      // The disable condition depends only on probe/hit counts, so
      // checking before the compute reproduces the serial decision.
      disabled_.store(true, std::memory_order_release);
      if (listener_.on_disable) listener_.on_disable();
      lock->unlock();
      Clear();
      return compute();
    }

    auto pending = std::make_shared<Pending>();
    pending->hash = hash;
    pending->key.assign(key);
    shard->pending.push_back(pending);
    lock->unlock();

    V value = compute();

    lock->lock();
    shard->ErasePending(pending.get());
    // A memo disabled meanwhile has freed its table; keep it empty.
    if (!disabled()) Publish(shard, hash, pending->key, value);
    pending->value = value;
    pending->ready = true;
    shard->cv.notify_all();
    return value;
  }

  /// Evicts from the front (FIFO order, or least-recent under lru) until
  /// both bounds admit the new entry, then appends it.
  void Publish(Shard* shard, uint64_t hash, std::string_view key,
               const V& value) {
    Table& table = shard->table;
    const size_t charge = key.size() + kEntryOverhead;
    while (table.size() > 0 &&
           ((shard_max_ > 0 && table.size() >= shard_max_) ||
            (shard_max_bytes_ > 0 &&
             table.charged_bytes() + charge > shard_max_bytes_))) {
      table.PopFront();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (listener_.on_eviction) listener_.on_eviction();
    }
    table.PushBack(hash, key, value);
  }

  std::unique_lock<std::mutex> LockShard(Shard* shard) {
    std::unique_lock<std::mutex> lock(shard->mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      contended_probes_.fetch_add(1, std::memory_order_relaxed);
      if (listener_.on_contention) listener_.on_contention();
      lock.lock();
    }
    return lock;
  }

  Options options_;
  size_t shard_max_ = 0;
  size_t shard_max_bytes_ = 0;
  std::vector<Shard> shards_;
  Listener listener_;
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> contended_probes_{0};
  std::atomic<bool> disabled_{false};
};

}  // namespace ppp::common

#endif  // PPP_COMMON_SHARDED_MEMO_H_
