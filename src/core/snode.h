#ifndef SOREL_CORE_SNODE_H_
#define SOREL_CORE_SNODE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/aggregate.h"
#include "core/soi_key.h"
#include "lang/compiled_rule.h"
#include "rete/conflict_set.h"
#include "rete/network.h"
#include "rete/token.h"

namespace sorel {

/// Tuning/ablation switches for the S-node (benchmarked in bench_fig3).
struct SNodeOptions {
  /// Ablation: rebuild every aggregate from all member rows after each
  /// token instead of updating incrementally.
  bool recompute_aggregates = false;
  /// Ablation: locate the candidate SOI with the literal `for i in
  /// candidate SOIs` scan of Figure 3 instead of a hash lookup.
  bool linear_scan_gamma = false;
};

/// A set-oriented instantiation: an aggregation of regular instantiations
/// that agree on all non-set-oriented CEs and all `:scalar` PVs (§4.1, §5).
/// Lives in the γ-memory of its S-node; the conflict set holds a pointer,
/// so γ-memory updates are transparently visible (§5).
class Soi : public InstantiationRef {
 public:
  /// One member (a regular instantiation), with its recency key.
  struct Member {
    Token* token;
    Row row;
    std::vector<TimeTag> rec;  // tags sorted descending
  };

  explicit Soi(const CompiledRule* rule) : rule_(rule) {}

  const CompiledRule& rule() const override { return *rule_; }
  void CollectRows(std::vector<Row>* out) const override;
  std::vector<TimeTag> RecencyTags() const override;
  TimeTag FirstCeTag() const override;

  /// Members ordered like the conflict set (most recent first).
  const std::vector<Member>& members() const { return members_; }
  size_t size() const { return members_.size(); }
  /// True when the SOI currently satisfies the `:test` expression and is
  /// flowed to the conflict set (the paper's Status field).
  bool active() const { return active_; }
  /// Bumped on every γ-memory change; powers §6 re-eligibility.
  uint64_t mutation() const { return mutation_; }
  /// Current value of test aggregate `index` (see
  /// CompiledRule::test_aggregates).
  Result<Value> AggregateValue(int index) const;

 private:
  friend class SNode;

  const CompiledRule* rule_;
  /// The γ-memory key this SOI is filed under (kept so deletion — possibly
  /// at batch end, long after the last member row is gone — needs no
  /// re-derivation).
  SoiKey key_;
  std::vector<Member> members_;
  std::vector<AggState> aggs_;
  bool active_ = false;
  uint64_t mutation_ = 0;
  // --- batch bookkeeping (meaningful only between OnBatchBegin/End) ---
  bool batch_touched_ = false;
  bool batch_head_changed_ = false;
};

/// The paper's S-node (Figure 3): placed after the last test node of a
/// set-oriented rule; aggregates candidate instantiations into SOIs in its
/// γ-memory, incrementally maintains aggregate values, evaluates the test
/// expression, and decides the flow of each SOI into the conflict set with
/// +, -, and `time` marks.
class SNode : public ReteSink {
 public:
  struct Stats {
    uint64_t tokens = 0;
    uint64_t sends_plus = 0;
    uint64_t sends_minus = 0;
    uint64_t sends_time = 0;
    uint64_t sois_created = 0;
    uint64_t sois_deleted = 0;
    /// `:test` expression evaluations: one per *touched SOI* per batch,
    /// however many member tokens the batch carried.
    uint64_t test_evals = 0;
    /// OnBatchEnd flushes performed (batches that reached this rule).
    uint64_t batch_flushes = 0;
  };

  /// `metrics` (borrowed, may be null) registers this S-node's snode.*
  /// counters as registry views; every S-node registers under the same
  /// names and the registry sums them, which is exactly the aggregation
  /// Engine::match_stats() reports.
  SNode(const CompiledRule* rule, ConflictSet* cs, SNodeOptions options = {},
        obs::MetricRegistry* metrics = nullptr);
  ~SNode() override;

  SNode(const SNode&) = delete;
  SNode& operator=(const SNode&) = delete;

  /// Maintains γ-memory membership and (incremental) aggregates only; every
  /// token arrives between OnBatchBegin and OnBatchEnd, and End makes the
  /// `:test` evaluation and the flow decision — one evaluation and at most
  /// one conflict-set send per touched SOI, however many member tokens the
  /// batch carried.
  void OnToken(Token* token, bool added) override;
  void OnBatchBegin() override;
  void OnBatchEnd() override;

  /// Candidate SOIs currently in the γ-memory (active and inactive).
  size_t num_sois() const { return gamma_.size(); }
  std::vector<const Soi*> sois() const;

  /// First `:test` evaluation error, if any (treated as test failure).
  const Status& last_error() const { return last_error_; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  Soi* FindOrNull(const SoiKey& key);
  /// Evaluates the rule's test expression for `soi` (true if no test).
  bool EvalTest(const Soi& soi);
  void RebuildAggregates(Soi* soi);

  const CompiledRule* rule_;
  ConflictSet* cs_;
  SNodeOptions options_;
  obs::MetricRegistry* metrics_ = nullptr;  // borrowed; may be null
  std::unordered_map<SoiKey, std::unique_ptr<Soi>, SoiKeyHash> gamma_;
  Status last_error_;
  Stats stats_;
  /// Between OnBatchBegin and OnBatchEnd (checked by OnToken in debug
  /// builds).
  bool in_batch_ = false;
  /// SOIs touched this batch, first-touch order (flush order).
  std::vector<Soi*> touched_;
};

}  // namespace sorel

#endif  // SOREL_CORE_SNODE_H_
