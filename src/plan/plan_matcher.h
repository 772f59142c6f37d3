#ifndef SOREL_PLAN_PLAN_MATCHER_H_
#define SOREL_PLAN_PLAN_MATCHER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "lang/compiled_rule.h"
#include "lang/join_order.h"
#include "lang/rule_base.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rete/conflict_set.h"
#include "rete/matcher.h"
#include "wm/working_memory.h"

namespace sorel {

class ThreadPool;

/// The plan/iterator matcher (CORGI-style, see PAPERS.md): no beta
/// memories — per-change match work is a pipeline of select/hash-join
/// iterators (src/rdb/wme_ops.h) over columnar alpha scan views, executed
/// in a cost-chosen join order. Worst-case space is linear in the alpha
/// memories (ephemeral hash tables die with each search) and per-batch
/// match work is bounded by (changes x alpha sizes + output), where Rete's
/// beta memories can go combinatorial on pathological CE orders.
///
/// Observable behavior is bit-identical to the sequential Rete path: a
/// shared alpha-group registry reproduces Rete's activation-event order
/// (per-class memory creation order x newest-first successors), and each
/// event's result set — which is order-independent — is emitted sorted by
/// the rows' chain-order time-tag vectors, which matches Rete's emission
/// order on every pair of instantiations that could tie in the conflict
/// set (see docs/INTERNALS.md, "Join ordering & the plan matcher").
///
/// Set-oriented rules are rejected (like TREAT, the other alpha-only
/// matcher): incremental SOI maintenance needs the S-node's token stream.
class PlanMatcher : public Matcher {
 public:
  struct Stats {
    /// Candidate (row, WME) pairs whose join tests were evaluated — the
    /// plan analog of rete.join_attempts.
    uint64_t join_attempts = 0;
    /// Plan recomputations (cardinality drift at a batch boundary) that
    /// produced a different execution order.
    uint64_t reorders = 0;
    /// Accumulated |estimated - actual| intermediate rows across executed
    /// full-search plan steps (optimized order only) — how wrong the cost
    /// model was.
    uint64_t est_cardinality_error = 0;
    /// Ephemeral hash-join build passes over alpha spans.
    uint64_t index_builds = 0;
    uint64_t seeded_searches = 0;
    /// Unconstrained searches: rule-add seeding and negated-CE unblock
    /// re-searches.
    uint64_t full_searches = 0;
    /// ChangeBatch deliveries handled natively.
    uint64_t batches = 0;
  };

  /// `join_order` picks the execution order (textual = chain order, the
  /// TREAT/OPS5 baseline; optimized = greedy smallest-intermediate-first).
  /// Either way traces stay bit-identical — the order only moves work.
  /// `pool` (borrowed, may be null) enables parallel batch propagation:
  /// rule states are disjoint, so each rule replays the batch as one task
  /// with conflict-set sends buffered under Rete-shaped OpStamps and
  /// merged into the exact sequential order. `metrics`/`tracer` hook into
  /// the observability layer (plan.* counters, rule_replay events).
  /// `topology` (borrowed, may be null): the shared compiled topology of a
  /// bound rule base — alpha groups then reference its immutable patterns
  /// by pointer instead of the matcher deriving private copies.
  PlanMatcher(WorkingMemory* wm, ConflictSet* cs,
              JoinOrder join_order = JoinOrder::kOptimized,
              ThreadPool* pool = nullptr,
              obs::MetricRegistry* metrics = nullptr,
              obs::Tracer* tracer = nullptr,
              const NetworkTopology* topology = nullptr);
  ~PlanMatcher() override;

  PlanMatcher(const PlanMatcher&) = delete;
  PlanMatcher& operator=(const PlanMatcher&) = delete;

  Status AddRule(const CompiledRule* rule) override;
  Status RemoveRule(const CompiledRule* rule) override;
  ConflictSet& conflict_set() override { return *cs_; }

  void OnBatch(const ChangeBatch& batch) override;

  size_t num_instantiations() const;
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  class PlanInst;
  struct AlphaGroup;
  struct CeState;
  struct RuleState;
  struct Step;
  struct ExecPlan;
  struct SearchCtx;

  /// The alpha group for `cond`, creating it if absent. `pattern` is the
  /// bound topology's assignment (pointer-identity lookup) or null for
  /// self-contained matchers (structural dedup, matcher-owned pattern).
  AlphaGroup* GetOrCreateGroup(const CompiledCondition& cond,
                               const AlphaPattern* pattern);
  /// The accepting alpha groups for `wme`, in creation order — one
  /// change's activation-event schedule (shared across rules).
  void ScheduleFor(const Wme& wme, std::vector<AlphaGroup*>* out) const;

  /// Builds `rs`'s execution plans (canonical + per-seed) from current
  /// alpha cardinalities. `count_reorder` bumps plan.reorders if the
  /// canonical order changed.
  void BuildPlans(RuleState* rs, bool count_reorder, Stats* stats);
  /// Recomputes plans for rules whose cardinalities drifted (>= 2x and
  /// past a floor) since the last build. Coordinator-only, so the check is
  /// deterministic across thread counts.
  void MaybeReoptimize();
  /// Compacts tombstoned alpha columns once enough dead rows accumulate.
  void MaybeCompact();

  /// Runs `plan` and appends complete rows to `out`. Counters accumulate
  /// into `stats` (per-task private on the parallel path).
  void RunPlan(RuleState* rs, const ExecPlan& plan, const SearchCtx& ctx,
               std::vector<Row>* out, Stats* stats) const;
  /// Sorts `rows` into canonical (chain-order tag-lex) order and emits
  /// each through the conflict set, deduping against live instantiations.
  void EmitRows(RuleState* rs, std::vector<Row>* rows);

  /// Activation of one (rule, ce) successor for an added WME: negated CEs
  /// drop the instantiations the WME now blocks, positive CEs run a
  /// seeded search. `group_ord` is the event's position in the change's
  /// schedule (the same-group visibility exclusion).
  void ActivateAdd(RuleState* rs, int ce, const WmePtr& wme,
                   size_t group_ord, Stats* stats);
  /// Unblocking re-search after `wme` left a negated CE's alpha memory:
  /// emits rows that `wme` blocked and nothing still blocks.
  void UnblockSearch(RuleState* rs, int ce, const WmePtr& wme, Stats* stats);
  void DropInstsContaining(RuleState* rs, TimeTag tag);

  /// Per-change bodies. The sequential path interleaves rules in schedule
  /// order; the parallel path replays per rule with OpStamps reproducing
  /// that interleaving.
  void ApplyAdd(const WmePtr& wme, const std::vector<AlphaGroup*>& schedule);
  void ApplyRemove(const WmePtr& wme,
                   const std::vector<AlphaGroup*>& schedule);
  /// One parallel-batch task: replays every change against one rule,
  /// stamping conflict-set ops with {change, phase, group ordinal,
  /// successor ordinal} — the sequential event order.
  void ReplayRule(RuleState* rs, const ChangeBatch& batch,
                  const std::vector<std::vector<AlphaGroup*>>& schedules,
                  ConflictSet::Delta* delta, Stats* stats);

  size_t AlphaMemoryBytes() const;

  WorkingMemory* wm_;
  ConflictSet* cs_;
  JoinOrder join_order_;
  ThreadPool* pool_;
  obs::MetricRegistry* metrics_ = nullptr;  // borrowed; may be null
  obs::Tracer* tracer_ = nullptr;           // borrowed; may be null
  obs::Timer* match_timer_ = nullptr;       // non-null when timing enabled
  /// Shared alpha groups per class, in creation order — the Rete
  /// alpha-memory sharing structure, kept for activation-event ordering
  /// and so per-CE storage registration mirrors Rete's network exactly.
  std::unordered_map<SymbolId, std::vector<std::unique_ptr<AlphaGroup>>>
      groups_by_class_;
  /// Shared topology of the bound rule base (borrowed, may be null).
  const NetworkTopology* topology_ = nullptr;
  /// Patterns derived by this matcher itself (self-contained mode only).
  std::vector<std::unique_ptr<AlphaPattern>> owned_patterns_;
  std::vector<std::unique_ptr<RuleState>> rules_;  // registration order
  Stats stats_;
};

}  // namespace sorel

#endif  // SOREL_PLAN_PLAN_MATCHER_H_
