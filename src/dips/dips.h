#ifndef SOREL_DIPS_DIPS_H_
#define SOREL_DIPS_DIPS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "core/soi_key.h"
#include "dips/cond_table.h"
#include "lang/compiled_rule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdb/ops.h"
#include "rete/conflict_set.h"
#include "rete/matcher.h"
#include "wm/working_memory.h"

namespace sorel {

class ThreadPool;

namespace dips {

/// The DIPS matcher (§8): OPS5 matching implemented on the relational
/// substrate. Each CE's matches live in a COND table; instantiations are
/// computed by a relational query (equi-joins on shared pattern-variable
/// columns, anti-joins for negated CEs) and set-oriented instantiations are
/// the groups of that query's result under the partition key — exactly the
/// `group-by` retrieval of §8.2 / Figure 6.
///
/// After every WM change the affected rules' match relations are
/// re-evaluated and diffed against the current conflict set (DIPS is a
/// query-per-cycle system; the per-change cost is measured in
/// bench_fig6_dips). Unlike TREAT, set-oriented rules are fully supported:
/// this is the paper's §8.2 contribution.
class DipsMatcher : public Matcher {
 public:
  struct Stats {
    /// Match-relation recomputations (the dominant per-change cost).
    uint64_t refreshes = 0;
    /// ChangeBatch deliveries handled natively (one Refresh per touched
    /// rule per batch, however many changes the batch carried).
    uint64_t batches = 0;
  };

  /// `pool` (borrowed, may be null) enables parallel batch propagation:
  /// DIPS is already rule-major (per-rule COND tables and one Refresh per
  /// touched rule), so each rule's table updates + refresh run as one
  /// worker task with conflict-set sends buffered and merged in rule order.
  /// `metrics` / `tracer` (borrowed, may be null) hook the matcher into the
  /// observability layer: dips.* counters register as registry views and
  /// batch replays emit per-rule rule_replay events.
  DipsMatcher(WorkingMemory* wm, ConflictSet* cs, ThreadPool* pool = nullptr,
              obs::MetricRegistry* metrics = nullptr,
              obs::Tracer* tracer = nullptr);
  ~DipsMatcher() override;

  DipsMatcher(const DipsMatcher&) = delete;
  DipsMatcher& operator=(const DipsMatcher&) = delete;

  Status AddRule(const CompiledRule* rule) override;
  Status RemoveRule(const CompiledRule* rule) override;
  ConflictSet& conflict_set() override { return *cs_; }

  /// Applies every change to the COND tables first, then recomputes each
  /// touched rule's match relation once — DIPS's query-per-change becomes
  /// query-per-transaction (§8.1). Note the coalescing is observable in one
  /// corner: an SOI whose membership changes and reverts within the same
  /// transaction diffs as unchanged and is not re-marked eligible.
  void OnBatch(const ChangeBatch& batch) override;

  /// The rule's full match relation: tag columns `t<pos>` per positive CE
  /// plus one column per pattern variable.
  Result<rdb::Relation> MatchRelation(const CompiledRule* rule) const;

  /// Figure 6's "Query to retrieve SOIs": the match relation projected to
  /// the tag columns and sorted (grouped) by the SOI partition-key columns.
  Result<rdb::Relation> RetrieveSois(const CompiledRule* rule) const;

  /// One row per SOI group: partition key columns plus a `rows` count.
  Result<rdb::Relation> SoiSummary(const CompiledRule* rule) const;

  /// COND table of `rule`'s `ce_index`-th CE (for tests/inspection).
  const CondTable* cond_table(const CompiledRule* rule, int ce_index) const;

  /// First internal error hit inside a WM-change callback, if any.
  const Status& last_error() const { return last_error_; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  class DipsInst;
  class DipsSoi;

  struct TagVecHash {
    size_t operator()(const std::vector<TimeTag>& tags) const;
  };

  struct RuleState {
    const CompiledRule* rule = nullptr;
    std::vector<CondTable> tables;  // one per CE, in CE order
    // Regular instantiations keyed by row signature.
    std::unordered_map<std::vector<TimeTag>, std::unique_ptr<DipsInst>,
                       TagVecHash>
        insts;
    // Set-oriented instantiations keyed by partition key.
    std::unordered_map<SoiKey, std::unique_ptr<DipsSoi>, SoiKeyHash> sois;
  };

  /// Column names of the SOI partition key in the match relation.
  static std::vector<std::string> KeyColumns(const CompiledRule& rule);

  /// Bytes held by every rule's COND-table relations — the session-private
  /// match state (the `dips.table_bytes` gauge).
  size_t TableMemoryBytes() const;

  Result<rdb::Relation> ComputeMatch(const RuleState& rs) const;
  /// Recomputes the match and diffs it into the conflict set. Counters go
  /// through `stats` so concurrent per-rule refreshes accumulate privately.
  Status Refresh(RuleState* rs, Stats* stats);
  Status RefreshRegular(RuleState* rs, const rdb::Relation& match);
  Status RefreshSet(RuleState* rs, const rdb::Relation& match);
  /// One task of the parallel batch path: applies every change to one
  /// rule's COND tables and refreshes it, buffering conflict-set ops into
  /// `delta`.
  Status ReplayRule(RuleState* rs, const ChangeBatch& batch,
                    ConflictSet::Delta* delta, Stats* stats);
  /// Materializes one match tuple into an instantiation row.
  Result<Row> RowFromTuple(const RuleState& rs, const rdb::Relation& match,
                           const rdb::Tuple& tuple) const;

  WorkingMemory* wm_;
  ConflictSet* cs_;
  ThreadPool* pool_;
  obs::MetricRegistry* metrics_ = nullptr;  // borrowed; may be null
  obs::Tracer* tracer_ = nullptr;           // borrowed; may be null
  obs::Timer* match_timer_ = nullptr;       // non-null when timing enabled
  std::vector<std::unique_ptr<RuleState>> rules_;
  Status last_error_;
  Stats stats_;
};

}  // namespace dips
}  // namespace sorel

#endif  // SOREL_DIPS_DIPS_H_
