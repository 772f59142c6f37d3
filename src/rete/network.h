#ifndef SOREL_RETE_NETWORK_H_
#define SOREL_RETE_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/status.h"
#include "lang/compiled_rule.h"
#include "lang/rule_base.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rete/columnar.h"
#include "rete/conflict_set.h"
#include "rete/matcher.h"
#include "rete/token.h"
#include "wm/working_memory.h"

namespace sorel {

class ReteMatcher;
class ThreadPool;

/// Construction-time options for the Rete matcher.
struct ReteOptions {
  /// Hash-index alpha memories and beta output memories on their equality
  /// join tests (Doorenbos-style), so joins probe one bucket instead of
  /// scanning the whole memory. Off restores the seed's linear scans —
  /// kept as the ablation baseline for bench_fig3_snode and
  /// bench_workload_seating.
  bool use_indexed_joins = true;
  /// Worker pool for parallel ChangeBatch propagation (borrowed, may be
  /// null). With a pool, OnBatch fans the per-rule beta replays out as pool
  /// tasks instead of running them one after another on the calling
  /// thread; conflict-set sends are buffered per rule and merged
  /// deterministically either way, so the observable behavior is the same
  /// with and without a pool.
  ThreadPool* pool = nullptr;
  /// Intra-rule parallelism threshold (0 disables). When a single join
  /// scan — a right-activation probing one node's candidate tokens, a
  /// left-activation probing an alpha memory, or a negative node's blocker
  /// count — faces at least this many candidates, the pure join-test
  /// evaluations fork into parallel slices on `pool`, and the matching
  /// candidates are then applied (token creation, propagation, sink and
  /// conflict-set sends) on the forking thread in exact scan order. Only
  /// side-effect-free predicate evaluation leaves the owning thread, so
  /// traces, conflict sets, and counters other than the split/slice stats
  /// stay bit-identical to the unsplit path. Requires `pool`.
  int intra_split_min = 0;
  /// Observability hooks (borrowed, may be null): the registry gets the
  /// rete.* counters as views (plus the matcher's reset hook); the tracer
  /// receives rule_replay events on the parallel batch path.
  obs::MetricRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Tear down removal batches with bulk tree deletion: tokens are sink-
  /// detached and dead-marked during the tree walk, then every touched
  /// memory, sibling list, and anchor vector is compacted in one stable
  /// pass per flush (see docs/INTERNALS.md, "Removal path & memory
  /// layout"). Off restores the per-token erase(remove(...)) cascades —
  /// the ablation baseline the removal property test cross-checks.
  bool bulk_removal = true;
  /// Tokens per slab in the per-shard token arenas; 0 allocates tokens
  /// individually on the heap (ablation baseline) while keeping the
  /// per-shard free lists.
  int token_slab = static_cast<int>(TokenArena::kDefaultSlabSize);
  /// Columnar (struct-of-arrays) alpha memories: items live in parallel
  /// tag/WME/liveness columns (AlphaColumns) with hash indexes mapping join
  /// keys to row-id lists, so join probes scan contiguous arrays and
  /// removal tombstones compact in one stable pass. Off restores the
  /// array-of-WmePtr layout — the ablation baseline; both layouts produce
  /// bit-identical traces, conflict sets, and counters (pinned by
  /// removal_property_test and the differential fuzzer).
  bool soa_memories = true;
  /// Shared compiled topology (borrowed, may be null). When set — an Engine
  /// bound to a CompiledRuleBase — AddRule resolves each CE's alpha pattern
  /// by pointer out of the topology instead of copying tests into the
  /// memory, so N sessions share one immutable pattern set and each
  /// AlphaMemory holds only its private item storage. Null keeps the
  /// self-contained path: the matcher derives (and owns) patterns from the
  /// conditions it sees. Both paths dedup structurally in first-use order,
  /// so network shape and traces are bit-identical.
  const NetworkTopology* topology = nullptr;
};

/// Hot-path counters for the match network (see docs/INTERNALS.md,
/// "Indexed memories & match statistics").
struct ReteStats {
  /// Candidate (token, WME) pairs whose join tests were evaluated.
  uint64_t join_attempts = 0;
  /// Hash-bucket lookups on the indexed paths.
  uint64_t index_probes = 0;
  uint64_t tokens_created = 0;
  uint64_t tokens_deleted = 0;
  /// Right-activation calls into beta nodes (one per alpha successor per
  /// propagated change — the per-change propagation cost).
  uint64_t right_activations = 0;
  /// ChangeBatch deliveries.
  uint64_t batches = 0;
  /// NewToken requests served from the token free list instead of the heap.
  uint64_t token_pool_hits = 0;
  /// Batches propagated with a worker pool configured.
  uint64_t parallel_batches = 0;
  /// Per-rule replays run across all batches (one per touched rule).
  uint64_t replay_tasks = 0;
  /// Join scans whose candidate set met ReteOptions::intra_split_min and
  /// were evaluated as parallel slices (intra-rule parallelism).
  uint64_t intra_splits = 0;
  /// Slice tasks dispatched across those splits.
  uint64_t intra_slice_tasks = 0;
  /// Deferred-compaction flushes on the bulk removal path (one per
  /// shard-replay flush point; 0 with ReteOptions::bulk_removal off).
  uint64_t bulk_deletes = 0;
  /// Fresh token slabs allocated across the per-shard arenas.
  uint64_t arena_slabs = 0;
};

/// Terminal consumer of a rule's tokens: a P-node for regular rules or an
/// S-node (src/core) for set-oriented rules.
class ReteSink {
 public:
  virtual ~ReteSink() = default;
  /// `added` follows the sign of the token (+/- in the paper's Figure 3).
  virtual void OnToken(Token* token, bool added) = 0;
  /// Bracket every token delivery: a rule's tokens arrive only between
  /// OnBatchBegin and OnBatchEnd (per ChangeBatch that touches the rule,
  /// and around AddRule's population and RemoveRule's teardown). The
  /// S-node keeps only its γ-memory current per token and makes its
  /// conflict-set decisions in End — one `:test` evaluation per touched
  /// SOI. Defaults are no-ops (P-nodes stay eager).
  virtual void OnBatchBegin() {}
  virtual void OnBatchEnd() {}
};

class AlphaMemory;
class BetaNode;

/// One rule's private slice of the match state: its beta chain, sink, and
/// token anchoring. Everything a shard owns is touched by exactly one
/// replay task during parallel propagation, so workers need no locks.
struct RuleShard {
  const CompiledRule* rule = nullptr;
  std::vector<BetaNode*> chain;
  ReteSink* sink = nullptr;
  /// Position in rule-registration order (index into ReteMatcher::shards_);
  /// the deterministic-merge tie-break across rules.
  size_t ordinal = 0;
  /// One tokens_by_wme entry: the tokens anchored on a WME plus the bulk-
  /// removal dirty flag (dead entries pending compaction). An entry exists
  /// iff it holds tokens — eager erasure, checked by
  /// ReteMatcher::CheckAnchorInvariants in debug builds.
  struct AnchorList {
    std::vector<TokenId> tokens;  // ids into this shard's arena
    bool dirty = false;
  };
  /// Tokens whose own WME is the keyed one, this rule's chain only — the
  /// per-rule half of tree-based removal.
  std::unordered_map<TimeTag, AnchorList> tokens_by_wme;
  /// Slab storage and free list for every token of this rule's chain.
  /// Shard-owned so replay tasks recycle without locks and in the same
  /// order with or without a worker pool.
  TokenArena arena;
  /// Whether the chain contains a negative node (set by AddRule); removal
  /// replays must flush deletions per removal in that case, so unblocking
  /// cascades never scan dead tokens.
  bool has_negative = false;
  /// The last batch (ReteMatcher::batch_seq_) that scheduled this shard
  /// for a replay — de-duplicates phase A's target list without a
  /// per-batch rule-sized scratch array.
  uint64_t replay_batch = 0;
  /// This rule's beta nodes grouped by alpha memory, each group in
  /// successor (newest-first) order — the replay's right-activation
  /// schedule. Relative order within one rule never changes (other rules
  /// only prepend to the shared successor lists), so this is computed once
  /// at AddRule.
  std::vector<std::pair<AlphaMemory*, std::vector<BetaNode*>>> amem_nodes;
  /// Dummy parent of this rule's level-1 tokens. Per-shard (not per
  /// matcher) so concurrent replays never push into a shared `children`
  /// vector.
  Token root;

  const std::vector<BetaNode*>* SuccessorsOf(const AlphaMemory* am) const {
    for (const auto& [mem, nodes] : amem_nodes) {
      if (mem == am) return &nodes;
    }
    return nullptr;
  }
};

/// An alpha memory: the WMEs of one class passing one set of intra-WME
/// tests (constants, disjunctions, and same-WME variable consistency).
/// Shared across rules/CEs with identical tests (the Rete "shared tests"
/// property the paper preserves, §5). The tests themselves live in an
/// immutable `AlphaPattern` (borrowed — owned by the bound
/// CompiledRuleBase's topology, or by the matcher when self-contained);
/// the memory owns only the mutable per-session item storage.
///
/// Two storage layouts (ReteOptions::soa_memories):
///  - AoS (off): `items_`, a vector<WmePtr> erased in place on removal;
///    index buckets own vector<WmePtr> copies.
///  - SoA (on): `cols_`, parallel tag/WME/liveness columns with tombstoned
///    removal and threshold-triggered stable compaction; index buckets map
///    join keys to row-id lists over those columns, and each index keeps
///    the join-key values it extracted per row as contiguous `Value`
///    columns so compaction rebuilds buckets without dereferencing WMEs.
/// Scans go through `Items()`/`Probe()`, which return layout-neutral
/// AlphaSpans; live rows keep insertion order in both layouts, so every
/// observable (traces, conflict sets, counters) is bit-identical.
class AlphaMemory {
 public:
  /// Hash index over the memory's items keyed by a field-value tuple;
  /// shared by every successor whose equality join tests name the same
  /// WME-side fields. Buckets preserve item insertion order, matching a
  /// linear scan of the memory.
  class Index {
   public:
    Index(std::vector<int> fields, bool soa)
        : fields_(std::move(fields)), soa_(soa) {
      if (soa_) key_cols_.resize(fields_.size());
    }

    JoinKey KeyOf(const Wme& wme) const;
    const std::vector<int>& fields() const { return fields_; }

   private:
    friend class AlphaMemory;

    // --- AoS mode ---
    /// The bucket for `key`, or nullptr if empty.
    const std::vector<WmePtr>* Find(const JoinKey& key) const;
    void Insert(const WmePtr& wme);
    void Remove(const WmePtr& wme);
    /// Removes every WME in `wmes` (also given as a pointer set in
    /// `victims`), compacting each touched bucket once.
    void RemoveBatch(const std::vector<WmePtr>& wmes,
                     const std::unordered_set<const Wme*>& victims);

    // --- SoA mode ---
    /// The row-id bucket for `key`, or nullptr; may contain dead rows
    /// (callers filter with AlphaColumns::IsLive).
    const std::vector<uint32_t>* FindRows(const JoinKey& key) const;
    /// Registers row `row` (just appended to the columns): extracts the
    /// key fields into the per-field value columns and buckets the row id.
    /// `live` is false only when seeding a late-created index over a
    /// tombstoned row — the key columns get nil padding and no bucket
    /// entry.
    void InsertRow(const Wme* wme, uint32_t row, bool live);
    /// Follows an AlphaColumns::Compact: compacts the key-value columns by
    /// `remap` (a contiguous scan — no WME derefs) and rebuilds the row
    /// buckets, preserving ascending-row (= insertion) order per bucket.
    void Rekey(const std::vector<uint32_t>& remap, size_t new_rows);

    std::vector<int> fields_;
    bool soa_ = false;
    std::unordered_map<JoinKey, std::vector<WmePtr>, JoinKeyHash> buckets_;
    std::unordered_map<JoinKey, std::vector<uint32_t>, JoinKeyHash>
        row_buckets_;
    /// One pre-extracted `Value` column per indexed field, row-aligned
    /// with the owning memory's columns (nil for dead rows).
    std::vector<std::vector<Value>> key_cols_;
  };

  AlphaMemory(const AlphaPattern* pattern, bool soa);

  /// True if `wme` (already of the right class) passes all tests.
  bool Accepts(const Wme& wme) const { return pattern_->Accepts(wme); }

  /// True if this memory can be shared with `cond`'s alpha tests.
  bool SameTests(const CompiledCondition& cond) const {
    return pattern_->Matches(cond);
  }

  /// The immutable test signature this memory instantiates.
  const AlphaPattern* pattern() const { return pattern_; }

  /// The index keyed on `fields`, creating (and seeding from the current
  /// items) if absent.
  Index* GetOrCreateIndex(const std::vector<int>& fields);

  /// Layout-neutral view of every item (SoA spans include tombstoned rows;
  /// scan loops filter with AlphaSpan::Live).
  AlphaSpan Items() const {
    return soa_ ? AlphaSpan(&cols_, nullptr) : AlphaSpan(&items_);
  }
  /// Layout-neutral view of `index`'s bucket for `key` (empty span if the
  /// bucket does not exist).
  AlphaSpan Probe(const Index* index, const JoinKey& key) const;
  /// Live item count (identical across layouts).
  size_t num_items() const { return soa_ ? cols_.live() : items_.size(); }
  /// Copies the live items, in insertion order, into `out`.
  void SnapshotItems(std::vector<WmePtr>* out) const;

  SymbolId cls() const { return pattern_->cls; }
  size_t num_indexes() const { return indexes_.size(); }
  bool columnar() const { return soa_; }
  /// Bytes held by the item storage and indexes (the `rete.alpha_bytes`
  /// gauge; AoS counts items_ + bucket copies, SoA the columns + row
  /// buckets + key columns).
  size_t MemoryBytes() const;

 private:
  friend class ReteMatcher;

  /// Appends an item, keeping every index in sync.
  void AddItem(const WmePtr& wme);
  /// Removes an item (stable order in AoS, tombstone in SoA), returning
  /// whether it was present — callers assert presence, the
  /// exactly-once-per-batch discipline.
  bool RemoveItem(const WmePtr& wme);
  /// Removes every WME in `wmes` in one pass (AoS: one stable compaction
  /// of the items and each touched bucket; SoA: tombstones), returning how
  /// many were found.
  size_t RemoveItems(const std::vector<WmePtr>& wmes);
  /// SoA: runs a compaction pass (columns + every index) once enough
  /// tombstones accumulate. Callers must not hold row ids across it.
  void MaybeCompact();

  /// Borrowed immutable test signature; outlives the memory (owned by the
  /// shared rule base's topology or by the matcher's owned_patterns_).
  const AlphaPattern* pattern_;
  bool soa_ = false;
  std::vector<WmePtr> items_;  // AoS layout
  AlphaColumns cols_;          // SoA layout
  std::vector<uint32_t> remap_scratch_;
  /// WMEs removed by the in-flight batch, awaiting their grouped exit at
  /// the batch's end (ReteMatcher::AlphaExitBatch); empty outside a batch
  /// and in memories the batch removes nothing from.
  std::vector<WmePtr> exiting_;
  std::vector<std::unique_ptr<Index>> indexes_;
  /// Right-activation targets, newest-first (Doorenbos's ordering, which
  /// avoids duplicate tokens when one WME feeds several CEs of a rule).
  std::vector<class BetaNode*> successors_;
};

/// A node of the beta network: a join node or a negative node. Each rule
/// compiles to a linear chain of beta nodes ending in a sink.
class BetaNode {
 public:
  BetaNode(ReteMatcher* net, AlphaMemory* amem, BetaNode* parent,
           const CompiledCondition* cond);
  virtual ~BetaNode() = default;

  /// A new token arrived from the upstream node.
  virtual void OnParentToken(Token* t) = 0;
  /// `wme` was added to / removed from this node's alpha memory.
  virtual void RightActivate(const WmePtr& wme, bool added) = 0;
  /// Called by per-token deletion; detaches `t` and compacts it out of the
  /// output memory immediately.
  void OnOwnedTokenDeleted(Token* t);
  /// The detach half of token deletion: unindexes `t`, updates node-local
  /// state, and notifies the sink if `t` had reached it — without touching
  /// `outputs_`, whose compaction the bulk removal path defers to one
  /// stable pass per flush (ReteMatcher::FlushDeletions).
  virtual void DetachToken(Token* t) = 0;
  /// Called by the matcher right after `t` entered this node's output
  /// memory; maintains the node-specific token indexes.
  virtual void OnTokenRegistered(Token* t);
  /// Whether `t` (one of this node's outputs) is visible downstream. Left
  /// indexes hold *all* of a parent's outputs in creation order — the same
  /// relative order a linear scan of the parent's memory sees — and filter
  /// with this at probe time, so indexed and linear joins produce tokens
  /// in the same sequence.
  virtual bool IsOutputActive(const Token* t) const;

  void set_child(BetaNode* child) { child_ = child; }
  void set_sink(ReteSink* sink) { sink_ = sink; }
  AlphaMemory* amem() const { return amem_; }
  const CompiledCondition& cond() const { return *cond_; }
  /// True when this node joins through hash indexes (equality tests exist
  /// and the matcher runs with ReteOptions::use_indexed_joins).
  bool indexed() const { return indexed_; }

 protected:
  friend class ReteMatcher;  // token registration touches outputs_

  /// Evaluates this node's join tests for `wme` against the token chain.
  bool Matches(const Token* t, const Wme& wme) const;
  /// Evaluates only the non-equality join tests (the equality ones are
  /// guaranteed by the index bucket).
  bool MatchesResidual(const Token* t, const Wme& wme) const;
  /// The WME-side key of this node's equality join tests.
  JoinKey WmeKey(const Wme& wme) const;
  /// The token-side key; false if a referenced WME is missing from the
  /// chain (such a token can never satisfy the equality tests).
  bool TokenKey(const Token* t, JoinKey* out) const;
  /// Adds/removes an upstream token to this node's left index (called by
  /// the parent when its active output set changes). No-ops when the node
  /// is not indexed.
  void IndexLeftToken(Token* t);
  void UnindexLeftToken(Token* t);
  /// Drops `t` from the child's left index; DetachToken overrides call
  /// this (they cannot touch the child's protected members directly) while
  /// the token chain is still intact.
  void UnindexFromChild(Token* t);
  /// Hands a token to the downstream node / sink.
  void PropagateDown(Token* t);

  /// The parent's output memory — the candidate list of an unindexed
  /// left-side scan. Defined here (not in the derived nodes) so it is the
  /// base class accessing its own protected member on another instance,
  /// which C++ permits where `parent_->outputs_` from a derived class
  /// would not be.
  const std::vector<TokenId>& ParentOutputs() const {
    return parent_->outputs_;
  }

  /// Resolves an output/child/anchor id against this node's shard arena.
  Token* TokenAt(TokenId id) const { return shard_->arena.At(id); }

  ReteMatcher* net_;
  AlphaMemory* amem_;
  BetaNode* parent_;  // null for the first node (root token upstream)
  const CompiledCondition* cond_;
  BetaNode* child_ = nullptr;
  ReteSink* sink_ = nullptr;
  /// This node's token memory as 32-bit ids into the shard arena (half the
  /// entry size of Token*; FlushDeletions compacts a vector of ints).
  std::vector<TokenId> outputs_;
  /// The rule shard this node belongs to (set by AddRule).
  RuleShard* shard_ = nullptr;
  /// Current position in amem_->successors_ (maintained by the matcher on
  /// rule add/remove); the within-alpha-memory merge tie-break.
  int succ_ordinal_ = 0;
  /// Bulk removal: `outputs_` holds dead tokens pending compaction (the
  /// node is already queued in the current DeletionScratch).
  bool compact_pending_ = false;

  // --- indexed-join state (unused when !indexed_) ---
  bool indexed_ = false;
  /// This node's amem items bucketed by the equality WME-side fields.
  AlphaMemory::Index* aindex_ = nullptr;
  /// The parent's active outputs bucketed by this node's token-side
  /// equality values (empty for the first node — the root token is the
  /// only upstream).
  TokenIndex left_index_;
};

/// Positive CE: joins upstream tokens with alpha memory WMEs.
class JoinNode : public BetaNode {
 public:
  using BetaNode::BetaNode;
  void OnParentToken(Token* t) override;
  void RightActivate(const WmePtr& wme, bool added) override;
  void DetachToken(Token* t) override;
};

/// Negated CE: propagates upstream tokens that have *no* match in the alpha
/// memory; maintains a blocker count per token.
class NegativeNode : public BetaNode {
 public:
  using BetaNode::BetaNode;
  void OnParentToken(Token* t) override;
  void RightActivate(const WmePtr& wme, bool added) override;
  void DetachToken(Token* t) override;
  void OnTokenRegistered(Token* t) override;
  bool IsOutputActive(const Token* t) const override {
    return t->propagated;
  }

 private:
  int CountBlockers(const Token* t) const;
  void Propagate(Token* t);
  void Retract(Token* t);

  /// All of this node's own output tokens (propagated or not) bucketed by
  /// the token-side equality values, so RightActivate touches only the
  /// tokens whose blocker count the WME can change.
  TokenIndex own_index_;
};

/// P-node: terminal for regular (non-set-oriented) rules; owns one
/// conflict-set instantiation per complete token.
class PNode : public ReteSink {
 public:
  PNode(const CompiledRule* rule, ConflictSet* cs) : rule_(rule), cs_(cs) {}
  ~PNode() override;

  void OnToken(Token* token, bool added) override;

  size_t size() const { return insts_.size(); }

 private:
  class RegularInst;
  const CompiledRule* rule_;
  ConflictSet* cs_;
  std::unordered_map<Token*, std::unique_ptr<InstantiationRef>> insts_;
};

/// Builds the terminal node for a rule. The engine supplies a factory that
/// creates a PNode for regular rules and an S-node for set-oriented ones
/// (keeping this library independent of src/core).
using SinkFactory =
    std::function<std::unique_ptr<ReteSink>(const CompiledRule&)>;

/// The extended Rete network of §5: shared alpha memories, per-rule join
/// chains, negative nodes, and pluggable terminals.
///
/// Propagation (the one path every WM change takes — OnBatch): phase A
/// walks the batch once, inserting every add into its alpha memories and
/// recording a per-change replay plan; removed WMEs stay physically present
/// but are marked in `replay_removed_`. Phase B replays the change sequence
/// once per touched rule shard against that shard's beta chain (rule-major
/// order), with all alpha reads filtered through `ReplayVisibleTag` so every
/// scan sees exactly the memory contents a change-by-change walk would have
/// seen at that change. With more than one touched shard, conflict-set
/// sends are buffered per shard with deterministic stamps. Phase C merges
/// stats, applies the conflict-set deltas in change-major order, performs
/// the physical alpha exits, and runs the touched sinks' batch-end
/// flushes. The replays run inline without a pool and as pool tasks with
/// one (ReteOptions::pool) — the same algorithm, so traces, conflict sets
/// and counters other than the pool's agree across thread counts.
class ReteMatcher : public Matcher {
 public:
  /// `sink_factory` may be null, in which case every rule gets a plain
  /// PNode (set-oriented rules are then rejected by AddRule).
  ReteMatcher(WorkingMemory* wm, ConflictSet* cs, SinkFactory sink_factory,
              ReteOptions options = {});
  ~ReteMatcher() override;

  ReteMatcher(const ReteMatcher&) = delete;
  ReteMatcher& operator=(const ReteMatcher&) = delete;

  Status AddRule(const CompiledRule* rule) override;
  Status RemoveRule(const CompiledRule* rule) override;
  ConflictSet& conflict_set() override { return *cs_; }

  /// Propagates a batch in three phases (see the class comment), bracketing
  /// each touched rule's sink with OnBatchBegin/OnBatchEnd.
  void OnBatch(const ChangeBatch& batch) override;

  // --- token management (used by beta nodes) ---
  Token* NewToken(BetaNode* owner, Token* parent, WmePtr wme);
  void DeleteTokenTree(Token* t);

  // --- introspection for tests and benches ---
  /// Prints the network topology: alpha memories (class, tests, items,
  /// successors) and each rule's beta chain with memory sizes.
  void DumpNetwork(std::ostream& out, const SymbolTable& symbols) const;
  size_t num_alpha_memories() const;
  size_t live_tokens() const { return live_tokens_; }
  size_t num_beta_nodes() const { return nodes_.size(); }
  /// Recyclable tokens currently parked across the per-shard arenas.
  size_t free_tokens() const;

  const ReteOptions& options() const { return options_; }
  const ReteStats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  friend class BetaNode;  // nodes bump stats through net_
  friend class JoinNode;
  friend class NegativeNode;

  /// One in-progress bulk deletion (ReteOptions::bulk_removal): the dead
  /// tokens awaiting recycle plus every container that needs exactly one
  /// stable compaction pass. Each replay keeps its own in its ReplayCtx
  /// (it only ever names per-shard state, so no synchronization).
  struct DeletionScratch {
    std::vector<Token*> dead;
    /// Nodes whose outputs_ hold dead entries (compact_pending_ set).
    std::vector<BetaNode*> dirty_nodes;
    /// Live parents whose children vector holds dead entries, paired with
    /// the arena those child ids resolve against (the dead children's
    /// shard; the parent itself may be the arena-less shard root).
    std::vector<std::pair<TokenArena*, Token*>> dirty_parents;
    /// tokens_by_wme entries holding dead entries (AnchorList::dirty set).
    std::vector<std::pair<RuleShard*, TimeTag>> dirty_anchors;
    bool empty() const { return dead.empty(); }
  };

  /// Per-task replay state, installed in `tls_replay_` while a shard task
  /// runs. Everything a worker would otherwise write to shared matcher
  /// state (counters, live-token accounting) accumulates here and is
  /// merged by the coordinator after the join; token recycling goes
  /// straight to the shard's own arena, which no other task touches.
  struct ReplayCtx {
    ReteMatcher* net = nullptr;
    RuleShard* shard = nullptr;
    ReteStats stats;
    int64_t live_token_delta = 0;
    // Visibility state for the change currently being replayed.
    size_t epoch = 0;
    TimeTag prev_ceiling = 0;
    TimeTag add_ceiling = 0;
    const std::vector<AlphaMemory*>* cur_amems = nullptr;
    size_t cur_amem_ord = 0;
    /// Time tag of the removal change being replayed (0 for adds), stamped
    /// onto tokens its unblock cascade creates (Token::born_of_removal).
    TimeTag removing_tag = 0;
    /// Bulk-deletion scratch (kept across batches for its capacity).
    DeletionScratch scratch;
  };

  /// One batch change's replay plan (phase A output).
  struct ChangeRec {
    /// Alpha memories the change's WME entered (adds, in activation order)
    /// or occupied (removals, in the order its add filed them).
    std::vector<AlphaMemory*> amems;
    /// Highest time tag visible before / after this change's add (adds are
    /// tag-monotone within a batch, so a ceiling encodes add visibility).
    TimeTag prev_ceiling = 0;
    TimeTag ceiling = 0;
  };

  /// One batch's grouped alpha exits: victims collected per memory (in
  /// AlphaMemory::exiting_), then each memory compacted once by Commit().
  /// Commit asserts every victim was present: a WME leaves each alpha
  /// memory exactly once per batch.
  class AlphaExitBatch {
   public:
    void Add(AlphaMemory* am, const WmePtr& wme);
    void Commit();

   private:
    std::vector<AlphaMemory*> order_;  // first-touch order, deterministic
  };

  /// The stats sink for the current thread: the replay accumulator during
  /// phase B, the matcher's own counters otherwise (AddRule/RemoveRule).
  ReteStats& stats_sink() {
    ReplayCtx* ctx = tls_replay_;
    return (ctx != nullptr && ctx->net == this) ? ctx->stats : stats_;
  }

  /// The replay context installed on this thread for *this* matcher, or
  /// nullptr (AddRule/RemoveRule, which see the whole memory). Slice-scan
  /// forks capture it explicitly: a pool worker executing a slice task has
  /// its own thread-locals, not the forking replay's.
  ReplayCtx* CurrentReplayCtx() const {
    ReplayCtx* ctx = tls_replay_;
    return (ctx != nullptr && ctx->net == this) ? ctx : nullptr;
  }

  /// Whether the item with time tag `tag` — found in `amem`'s physical
  /// storage — is visible to the replay `ctx` at its current change.
  /// Callers outside a replay (ctx == nullptr) skip the call entirely:
  /// everything physically live is visible. Pure: reads only the context,
  /// `replay_removed_` and the memories' exit queues, all frozen during
  /// phase B — safe from concurrent slice tasks. Keyed by tag (unique per WME) so columnar
  /// scans check visibility from the contiguous tag column without
  /// touching the WME.
  bool ReplayVisibleTag(TimeTag tag, const AlphaMemory* amem,
                        const ReplayCtx* ctx) const {
    if (tag > ctx->add_ceiling) return false;  // added later in the batch
    if (tag > ctx->prev_ceiling) {
      // The tag belongs to the WME of the change being replayed. A
      // change-by-change walk inserts it into one alpha memory at a time,
      // activating that memory's successors before inserting into the
      // next — so mid-change it is visible only in the memories already
      // entered.
      const std::vector<AlphaMemory*>& amems = *ctx->cur_amems;
      for (size_t i = 0; i <= ctx->cur_amem_ord && i < amems.size(); ++i) {
        if (amems[i] == amem) return true;
      }
      return false;
    }
    if (!amem->exiting_.empty()) {  // the memory holds a removed WME
      auto it = replay_removed_.find(tag);
      if (it != replay_removed_.end() && it->second <= ctx->epoch) {
        return false;  // removed at or before the current change
      }
    }
    return true;
  }

  /// True when a join scan over `candidates` qualifies for slice-parallel
  /// evaluation (ReteOptions::intra_split_min reached and a pool exists).
  bool ShouldSplit(size_t candidates) const {
    return options_.intra_split_min > 0 && options_.pool != nullptr &&
           candidates >= static_cast<size_t>(options_.intra_split_min);
  }

  /// Intra-rule slice fork/join: evaluates `eval(i, slice_stats)` for every
  /// i in [0, n) across parallel slice tasks and records each outcome in
  /// `(*hits)[i]`. `eval` must be pure with respect to matcher state — join
  /// tests and visibility checks only; the caller then applies the hits
  /// (token creation, propagation, conflict-set sends) serially in scan
  /// order, which keeps observable behavior bit-identical to the unsplit
  /// scan. Per-slice stats merge into the calling thread's stats sink.
  void ParallelEval(size_t n,
                    const std::function<bool(size_t, ReteStats*)>& eval,
                    std::vector<char>* hits);

  /// The alpha memory for `cond`, creating it if absent. `pattern` is the
  /// shared topology's assignment for this CE (pointer-identity lookup) or
  /// null for self-contained matchers, which dedup structurally and own the
  /// pattern they derive.
  AlphaMemory* GetOrCreateAlpha(const CompiledCondition& cond,
                                const AlphaPattern* pattern);

  // --- bulk tree deletion (ReteOptions::bulk_removal) ---
  /// Recursively detaches `t`'s subtree: sinks are notified in the exact
  /// per-token deletion order, tokens are dead-marked, and every touched
  /// container is queued in `s` for one deferred compaction pass.
  void BulkDeleteTree(Token* t, DeletionScratch* s);
  /// BulkDeleteTree over every tree anchored on `tag` in `shard`, erasing
  /// the anchor entry.
  void BulkDeleteAnchored(RuleShard* shard, TimeTag tag, DeletionScratch* s);
  /// Compacts every queued container (stable order) and recycles the dead
  /// tokens into their shards' arenas. Scans must never observe a dead
  /// token: callers flush before any join scan can reach a queued
  /// container (per WME when the shard has a negative node, before the
  /// next add and at the end of the replay otherwise).
  void FlushDeletions(DeletionScratch* s);
  /// Debug invariant sweep: no anchor entry is empty, dirty, or holding a
  /// dead token once a batch completes. No-op in release builds.
  void CheckAnchorInvariants() const;

  /// Phase B task: replays the whole change sequence against one shard
  /// along `plan_`. Conflict-set sends buffer into `delta`, or apply
  /// directly when it is null (a lone touched shard: its sends already
  /// come in merge order).
  void ReplayShard(RuleShard* shard, const std::vector<WmChange>& changes,
                   ConflictSet::Delta* delta, ReplayCtx* ctx);
  /// Folds a finished task's accumulators into the matcher state.
  void MergeCtx(ReplayCtx* ctx);

  /// Reassigns succ_ordinal_ for every successor of `am` (after an insert
  /// or erase shifted positions).
  static void RenumberSuccessors(AlphaMemory* am);

  WorkingMemory* wm_;
  ConflictSet* cs_;
  SinkFactory sink_factory_;
  std::unordered_map<SymbolId, std::vector<std::unique_ptr<AlphaMemory>>>
      alphas_by_class_;
  /// Patterns this matcher derived itself (options_.topology unset); a
  /// bound matcher borrows the shared topology's patterns instead and
  /// leaves this empty.
  std::vector<std::unique_ptr<AlphaPattern>> owned_patterns_;
  std::vector<std::unique_ptr<BetaNode>> nodes_;
  std::vector<std::unique_ptr<ReteSink>> sinks_;
  /// Per-rule shards, by rule and in registration order.
  std::unordered_map<const CompiledRule*, std::unique_ptr<RuleShard>>
      rule_shards_;
  std::vector<RuleShard*> shards_;
  /// Alpha memories each live WME passed (the shared half of removal).
  std::unordered_map<TimeTag, std::vector<AlphaMemory*>> wme_amems_;
  /// WMEs removed by the in-flight batch: time tag -> index of its removal
  /// change. Physically still in the alpha memories until phase C;
  /// ReplayVisibleTag hides them from later epochs.
  std::unordered_map<TimeTag, size_t> replay_removed_;
  size_t live_tokens_ = 0;
  // Per-batch working storage, members so that steady-state batches reuse
  // its capacity: the replay plan (first batch.size() entries are live),
  // the touched shards in registration order, and one context + delta per
  // touched shard.
  std::vector<ChangeRec> plan_;
  std::vector<RuleShard*> targets_;
  std::vector<ReplayCtx> ctxs_;
  std::vector<ConflictSet::Delta> deltas_;
  AlphaExitBatch exits_;
  /// Batch counter behind RuleShard::replay_batch.
  uint64_t batch_seq_ = 0;
  ReteOptions options_;
  ReteStats stats_;
  /// "phase.match" scope timer, non-null only when the registry has timing
  /// enabled (EngineOptions::enable_timers).
  obs::Timer* match_timer_ = nullptr;
  /// The replay context of the task running on this thread, if any.
  static thread_local ReplayCtx* tls_replay_;
};

}  // namespace sorel

#endif  // SOREL_RETE_NETWORK_H_
