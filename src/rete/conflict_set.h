#ifndef SOREL_RETE_CONFLICT_SET_H_
#define SOREL_RETE_CONFLICT_SET_H_

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "rete/instantiation.h"

namespace sorel {

/// Conflict-resolution strategies (OPS5).
enum class Strategy { kLex, kMea };

/// The conflict set: all instantiations currently eligible to fire plus
/// fired-but-unchanged SOIs awaiting a change (§6: "if any part of the
/// instantiation changes, the instantiation is again eligible to fire").
///
/// Regular instantiations are removed when they fire (classic refraction —
/// a time-tag-identical instantiation can never re-arise). SOIs stay with a
/// `fired` flag that any subsequent γ-memory change clears via Add/Touch.
///
/// Selection is served from two ordered indexes (one per strategy) over the
/// eligible entries, so `Select` is O(log n) instead of a full scan. Sort
/// keys (recency tags, first-CE tag, specificity) are *cached* in the entry
/// at Add/Touch time; this is sound because every γ-memory content change
/// reaches the conflict set as an Add/Touch/Remove call, and it means index
/// erasure always uses the keys the entry was filed under even if the live
/// instantiation has since changed. Pass `use_index = false` to fall back
/// to the linear scan (the ablation baseline for benchmarks).
class ConflictSet {
 public:
  /// Counters for the selection hot path. With the index on, `comparisons`
  /// counts comparator calls paid at insert/erase time; with it off, the
  /// per-Select scan comparisons. Either way it is the total ordering work.
  struct Stats {
    uint64_t selects = 0;
    uint64_t comparisons = 0;
  };

  /// `metrics` (borrowed, may be null) registers the select.* counters as
  /// registry views.
  explicit ConflictSet(bool use_index = true,
                       obs::MetricRegistry* metrics = nullptr);
  ~ConflictSet();

  // The ordered indexes hold pointers into entry storage and the
  // comparators point back at stats_; copying would alias both.
  ConflictSet(const ConflictSet&) = delete;
  ConflictSet& operator=(const ConflictSet&) = delete;

  // --- deferred operation support (parallel match propagation) ---
  //
  // Worker threads replaying per-rule match state must not mutate the
  // shared conflict set. Instead each worker routes its Add/Touch/Remove
  // calls into a private Delta (SetThreadDelta), and the coordinating
  // thread applies all deltas afterwards in one deterministic merge — the
  // exact op order the sequential propagation would have produced, so the
  // `seq` tie-break counter advances identically.

  /// Sort keys of an instantiation captured at buffering time. A deferred
  /// op must not re-read the live instantiation at apply time: by then a
  /// later op of the same rule may have changed or destroyed it. Snapshots
  /// are taken at the op's logical position in the rule's own program
  /// order, which is exactly what the sequential interleaving would have
  /// read (instantiations are private to one rule, so no other rule's ops
  /// can touch them in between).
  struct KeySnapshot {
    std::vector<TimeTag> rec;  // recency tags, descending
    TimeTag first_ce = 0;
    int specificity = 0;
  };

  /// Position of a deferred op in the sequential op order: which batch
  /// change produced it, then the within-change step. Ties across deltas
  /// break by delta position (= rule-registration order), then by
  /// buffering order within one delta.
  struct OpStamp {
    uint32_t change = 0;  // batch change index; changes.size() for batch-end
    uint32_t phase = 0;   // 0 = activation cascade, 1 = token-tree deletion
    uint32_t amem = 0;    // alpha-memory ordinal within the change
    uint32_t succ = 0;    // successor ordinal within the alpha memory

    friend bool operator<(const OpStamp& a, const OpStamp& b) {
      if (a.change != b.change) return a.change < b.change;
      if (a.phase != b.phase) return a.phase < b.phase;
      if (a.amem != b.amem) return a.amem < b.amem;
      return a.succ < b.succ;
    }
  };

  /// One worker's buffered op stream, plus a graveyard keeping erased
  /// instantiations alive until the delta is applied (a same-batch
  /// allocation reusing a dead instantiation's address would alias it in
  /// the entries map).
  class Delta {
   public:
    /// Sets the stamp attached to subsequently buffered ops.
    void SetStamp(const OpStamp& stamp) { stamp_ = stamp; }
    bool empty() const { return ops_.empty() && graveyard_.empty(); }
    size_t num_ops() const { return ops_.size(); }

   private:
    friend class ConflictSet;

    struct Op {
      OpStamp stamp;
      bool add;  // true: Add/Touch; false: Remove
      InstantiationRef* inst;
      KeySnapshot keys;  // adds only
    };

    OpStamp stamp_;
    std::vector<Op> ops_;
    std::vector<std::unique_ptr<InstantiationRef>> graveyard_;
  };

  /// Redirects this thread's Add/Touch/Remove/Release calls on `cs` into
  /// `delta` (nullptr restores direct mutation). Thread-local: other
  /// threads and other conflict sets are unaffected.
  static void SetThreadDelta(const ConflictSet* cs, Delta* delta);

  /// RAII redirection that restores the previous redirection — possibly
  /// another conflict set's — on destruction. Replay tasks use this instead
  /// of a bare set/null pair: with nested fork/join, a thread waiting on a
  /// slice sub-batch help-drains the pool queue and can execute another
  /// replay task mid-frame, and a plain null-on-exit there would destroy
  /// the outer frame's buffering.
  class ScopedThreadDelta {
   public:
    ScopedThreadDelta(const ConflictSet* cs, Delta* delta);
    ~ScopedThreadDelta();

    ScopedThreadDelta(const ScopedThreadDelta&) = delete;
    ScopedThreadDelta& operator=(const ScopedThreadDelta&) = delete;

   private:
    const ConflictSet* prev_owner_;
    Delta* prev_delta_;
  };

  /// Applies every buffered op across `deltas` in the merged deterministic
  /// order — (stamp, delta position, buffering order) — then destroys the
  /// graveyards. Delta position must be rule-registration order for the
  /// merge to reproduce the sequential op stream.
  void ApplyDeltas(std::span<Delta> deltas);

  /// Destroys a dead instantiation — immediately, or (when this thread is
  /// currently buffering into a delta) after that delta is applied.
  void Release(std::unique_ptr<InstantiationRef> dead);

  /// Inserts `inst`, or reinstates it if present: the fired flag clears,
  /// cached sort keys refresh, and — when the entry had fired — it gets a
  /// fresh `seq`, so a re-activated SOI tie-breaks as the recent arrival it
  /// is rather than keeping the rank of its first insertion.
  void Add(InstantiationRef* inst);

  /// Removes `inst` if present.
  void Remove(InstantiationRef* inst);

  /// Signals that `inst` changed (content or recency): clears fired.
  /// Equivalent to Add; spelled separately for S-node `time` tokens.
  void Touch(InstantiationRef* inst) { Add(inst); }

  /// Marks `inst` fired. With `remove_entry` the entry is dropped entirely
  /// (regular instantiations); otherwise it stays, ineligible until the next
  /// Add/Touch (SOIs).
  void MarkFired(InstantiationRef* inst, bool remove_entry);

  /// Returns the best eligible instantiation under `strategy`, or nullptr.
  InstantiationRef* Select(Strategy strategy) const;

  /// All eligible instantiations, best first — the candidate batch for
  /// parallel firing (§8.1: DIPS "attempts to execute all satisfied
  /// instantiations concurrently").
  std::vector<InstantiationRef*> SortedEligible(Strategy strategy) const;

  /// Total entries (including fired-but-retained SOIs).
  size_t size() const { return entries_.size(); }

  /// Entries that could fire now.
  size_t EligibleCount() const;

  /// All entries in insertion order (stable; for tests and tracing).
  std::vector<InstantiationRef*> Entries() const;

  /// An entry plus its refraction state, for snapshot/restore (src/server):
  /// a fired-but-retained SOI must come back ineligible, and a regular
  /// entry that refraction removed must not resurface after a rebuild.
  struct EntryState {
    InstantiationRef* inst;
    bool fired;
  };

  /// All entries with their fired flags, in insertion order.
  std::vector<EntryState> EntriesWithState() const;

  void Clear();

  bool use_index() const { return use_index_; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  struct Entry {
    bool fired = false;
    uint64_t seq = 0;
    // Sort keys cached at (re-)insertion; the indexes are keyed on these,
    // never on the live instantiation.
    std::vector<TimeTag> rec;   // recency tags, descending
    TimeTag first_ce = 0;       // MEA primary key
    int specificity = 0;
  };

  /// What the ordered indexes store: the instantiation plus its cached
  /// keys. Entry pointers are stable (unordered_map nodes don't move).
  struct Ref {
    InstantiationRef* inst;
    const Entry* entry;
  };

  /// Best-first ordering over cached keys; `seq` (unique per entry) makes
  /// it a strict total order, so std::set holds one element per entry.
  struct Cmp {
    bool mea;
    uint64_t* comparisons;
    bool operator()(const Ref& a, const Ref& b) const;
  };

  using Index = std::set<Ref, Cmp>;

  // Returns true if `a` should fire before `b`.
  static bool Precedes(Strategy strategy, const Entry& a, const Entry& b);

  static KeySnapshot SnapshotKeys(const InstantiationRef& inst);
  /// Add with pre-computed sort keys (the deferred-apply path never reads
  /// the live instantiation).
  void AddWithKeys(InstantiationRef* inst, KeySnapshot keys);
  /// The non-deferring body of Remove.
  void RemoveNow(InstantiationRef* inst);
  /// This thread's delta for `this`, or nullptr.
  Delta* ThreadDelta() const;
  /// Files / unfiles an eligible entry in both ordered indexes. Unindex
  /// must run *before* any cached-key mutation — erasure locates the
  /// element by the keys it was inserted under.
  void IndexEntry(InstantiationRef* inst, const Entry& e);
  void UnindexEntry(InstantiationRef* inst, const Entry& e);

  const Index& IndexFor(Strategy strategy) const {
    return strategy == Strategy::kMea ? mea_ : lex_;
  }

  bool use_index_;
  obs::MetricRegistry* metrics_ = nullptr;  // borrowed; may be null
  std::unordered_map<InstantiationRef*, Entry> entries_;
  uint64_t next_seq_ = 0;
  mutable Stats stats_;
  Index lex_;
  Index mea_;
  /// ApplyDeltas' flattened merge order (a member so that per-batch merges
  /// reuse its capacity).
  struct MergeOp {
    Delta::Op* op;
    uint32_t delta_pos;
    uint32_t seq;
  };
  std::vector<MergeOp> merge_scratch_;
};

}  // namespace sorel

#endif  // SOREL_RETE_CONFLICT_SET_H_
