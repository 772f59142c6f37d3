#include "dips/dips.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "base/thread_pool.h"
#include "core/test_eval.h"

namespace sorel {
namespace dips {

namespace {

std::vector<TimeTag> RowRecency(const Row& row) {
  std::vector<TimeTag> tags;
  tags.reserve(row.size());
  for (const WmePtr& w : row) tags.push_back(w->time_tag());
  std::sort(tags.rbegin(), tags.rend());
  return tags;
}

std::vector<TimeTag> RowSignature(const Row& row) {
  std::vector<TimeTag> sig;
  sig.reserve(row.size());
  for (const WmePtr& w : row) sig.push_back(w->time_tag());
  return sig;
}

}  // namespace

size_t DipsMatcher::TagVecHash::operator()(
    const std::vector<TimeTag>& tags) const {
  size_t h = 0x9e3779b97f4a7c15ull;
  for (TimeTag t : tags) {
    h ^= std::hash<TimeTag>()(t) + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

/// A regular instantiation materialized from the match relation.
class DipsMatcher::DipsInst : public InstantiationRef {
 public:
  DipsInst(const CompiledRule* rule, Row row)
      : rule_(rule), row_(std::move(row)) {}

  const CompiledRule& rule() const override { return *rule_; }
  void CollectRows(std::vector<Row>* out) const override {
    out->push_back(row_);
  }
  std::vector<TimeTag> RecencyTags() const override {
    return RowRecency(row_);
  }
  TimeTag FirstCeTag() const override {
    return row_.empty() ? 0 : row_.front()->time_tag();
  }

 private:
  const CompiledRule* rule_;
  Row row_;
};

/// A set-oriented instantiation: one group of the match relation (§8.2).
class DipsMatcher::DipsSoi : public InstantiationRef {
 public:
  explicit DipsSoi(const CompiledRule* rule) : rule_(rule) {}

  const CompiledRule& rule() const override { return *rule_; }
  void CollectRows(std::vector<Row>* out) const override {
    out->reserve(out->size() + rows_.size());
    for (const Row& row : rows_) out->push_back(row);
  }
  std::vector<TimeTag> RecencyTags() const override {
    return rows_.empty() ? std::vector<TimeTag>{} : RowRecency(rows_.front());
  }
  TimeTag FirstCeTag() const override {
    return rows_.empty() || rows_.front().empty()
               ? 0
               : rows_.front().front()->time_tag();
  }

  const std::vector<Row>& rows() const { return rows_; }
  bool active() const { return active_; }

 private:
  friend class DipsMatcher;

  const CompiledRule* rule_;
  std::vector<Row> rows_;  // descending recency, like the conflict set
  std::vector<std::vector<TimeTag>> sig_;  // per-row signatures, for diffing
  bool active_ = false;
};

DipsMatcher::DipsMatcher(WorkingMemory* wm, ConflictSet* cs, ThreadPool* pool,
                         obs::MetricRegistry* metrics, obs::Tracer* tracer)
    : wm_(wm), cs_(cs), pool_(pool), metrics_(metrics), tracer_(tracer) {
  wm_->AddListener(this);
  if (metrics_ != nullptr) {
    metrics_->RegisterCounter(this, "dips.refreshes",
                              [this] { return stats_.refreshes; });
    metrics_->RegisterCounter(this, "dips.batches",
                              [this] { return stats_.batches; });
    // Per-session COND-table storage (the rule programs themselves are
    // shared when the engine is bound to a CompiledRuleBase; these
    // relations are what each session pays privately).
    metrics_->RegisterGauge(this, "dips.table_bytes", [this] {
      return static_cast<double>(TableMemoryBytes());
    });
    metrics_->RegisterReset(this, [this] { ResetStats(); });
    if (metrics_->timing_enabled()) {
      match_timer_ = metrics_->GetOrCreateTimer("phase.match");
    }
  }
}

DipsMatcher::~DipsMatcher() {
  if (metrics_ != nullptr) metrics_->Unregister(this);
  wm_->RemoveListener(this);
  for (const auto& rs : rules_) {
    for (const auto& [sig, inst] : rs->insts) cs_->Remove(inst.get());
    for (const auto& [key, soi] : rs->sois) {
      if (soi->active()) cs_->Remove(soi.get());
    }
  }
}

Status DipsMatcher::AddRule(const CompiledRule* rule) {
  auto rs = std::make_unique<RuleState>();
  rs->rule = rule;
  for (int ce = 0; ce < static_cast<int>(rule->conditions.size()); ++ce) {
    SOREL_ASSIGN_OR_RETURN(CondTable table, CondTable::Create(rule, ce));
    rs->tables.push_back(std::move(table));
  }
  for (const WmePtr& w : wm_->Snapshot()) {
    for (CondTable& table : rs->tables) {
      if (table.Accepts(*w)) SOREL_RETURN_IF_ERROR(table.Insert(*w));
    }
  }
  SOREL_RETURN_IF_ERROR(Refresh(rs.get(), &stats_));
  rules_.push_back(std::move(rs));
  return Status::Ok();
}

Status DipsMatcher::RemoveRule(const CompiledRule* rule) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if ((*it)->rule != rule) continue;
    for (const auto& [sig, inst] : (*it)->insts) cs_->Remove(inst.get());
    for (const auto& [key, soi] : (*it)->sois) {
      if (soi->active()) cs_->Remove(soi.get());
    }
    rules_.erase(it);
    return Status::Ok();
  }
  return Status::NotFound("rule not loaded: " + rule->name);
}

Status DipsMatcher::ReplayRule(RuleState* rs, const ChangeBatch& batch,
                               ConflictSet::Delta* delta, Stats* stats) {
  // Scoped: pool help-drain can nest another replay task inside this frame;
  // its exit must restore this frame's redirection, not clear it.
  ConflictSet::ScopedThreadDelta scoped_delta(cs_, delta);
  bool changed = false;
  Status result = Status::Ok();
  for (const WmChange& c : batch.changes) {
    for (CondTable& table : rs->tables) {
      if (!table.Accepts(*c.wme)) continue;
      if (c.added) {
        Status s = table.Insert(*c.wme);
        if (!s.ok() && result.ok()) result = s;
      } else {
        table.RemoveTag(c.wme->time_tag());
      }
      changed = true;
    }
  }
  if (changed && result.ok()) result = Refresh(rs, stats);
  return result;
}

void DipsMatcher::OnBatch(const ChangeBatch& batch) {
  obs::ScopedTimer timer(match_timer_);
  ++stats_.batches;
  if (tracer_ != nullptr && tracer_->enabled()) {
    for (const auto& rs : rules_) {
      tracer_->Emit(obs::TraceEvent("rule_replay")
                        .Str("rule", rs->rule->name)
                        .Num("changes", batch.changes.size()));
    }
  }
  if (pool_ != nullptr && rules_.size() > 1) {
    // Rule states are disjoint and the sequential path refreshes touched
    // rules in registration order, so one task per rule plus a rule-order
    // delta merge reproduces the sequential conflict-set op stream.
    std::vector<ConflictSet::Delta> deltas(rules_.size());
    std::vector<Stats> stats(rules_.size());
    std::vector<Status> errors(rules_.size(), Status::Ok());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(rules_.size());
    for (size_t i = 0; i < rules_.size(); ++i) {
      tasks.push_back([this, &batch, &deltas, &stats, &errors, i] {
        errors[i] = ReplayRule(rules_[i].get(), batch, &deltas[i], &stats[i]);
      });
    }
    pool_->RunAll(std::move(tasks));
    for (size_t i = 0; i < rules_.size(); ++i) {
      stats_.refreshes += stats[i].refreshes;
      if (!errors[i].ok() && last_error_.ok()) last_error_ = errors[i];
    }
    cs_->ApplyDeltas(deltas);
    return;
  }
  std::vector<RuleState*> touched;
  for (const auto& rs : rules_) {
    bool changed = false;
    for (const WmChange& c : batch.changes) {
      for (CondTable& table : rs->tables) {
        if (!table.Accepts(*c.wme)) continue;
        if (c.added) {
          Status s = table.Insert(*c.wme);
          if (!s.ok() && last_error_.ok()) last_error_ = s;
        } else {
          table.RemoveTag(c.wme->time_tag());
        }
        changed = true;
      }
    }
    if (changed) touched.push_back(rs.get());
  }
  for (RuleState* rs : touched) {
    Status s = Refresh(rs, &stats_);
    if (!s.ok() && last_error_.ok()) last_error_ = s;
  }
}

Result<rdb::Relation> DipsMatcher::ComputeMatch(const RuleState& rs) const {
  const CompiledRule& rule = *rs.rule;
  rdb::Relation acc = rs.tables[0].relation();
  for (size_t i = 1; i < rule.conditions.size(); ++i) {
    const CondTable& table = rs.tables[i];
    // Residual (non-equality) join predicates.
    struct ResidualPred {
      int left_col;
      int right_col;
      TestPred pred;
    };
    std::vector<ResidualPred> preds;
    for (const CondTable::PredColumn& pc : table.pred_columns()) {
      if (pc.is_eq) continue;
      int left_col = acc.schema().IndexOf(pc.ref_var);
      int right_col = table.relation().schema().IndexOf(pc.column);
      if (left_col < 0 || right_col < 0) {
        return Status::RuntimeError("DIPS: dangling join reference in '" +
                                    rule.name + "'");
      }
      preds.push_back({left_col, right_col, pc.pred});
    }
    rdb::PairPred residual = nullptr;
    if (!preds.empty()) {
      residual = [preds](const rdb::Tuple& l, const rdb::Tuple& r) {
        for (const ResidualPred& p : preds) {
          if (!EvalTestPred(p.pred, r[static_cast<size_t>(p.right_col)],
                            l[static_cast<size_t>(p.left_col)])) {
            return false;
          }
        }
        return true;
      };
    }
    if (table.cond().negated) {
      std::vector<std::pair<std::string, std::string>> keys;
      for (const CondTable::PredColumn& pc : table.pred_columns()) {
        if (pc.is_eq) keys.emplace_back(pc.ref_var, pc.column);
      }
      SOREL_ASSIGN_OR_RETURN(
          acc, rdb::AntiJoin(acc, table.relation(), keys, residual));
    } else {
      std::vector<std::pair<std::string, std::string>> keys;
      for (const auto& [var, field] : table.var_columns()) {
        if (acc.schema().IndexOf(var) >= 0) keys.emplace_back(var, var);
      }
      SOREL_ASSIGN_OR_RETURN(
          acc, rdb::HashJoin(acc, table.relation(), keys, residual));
    }
  }
  return acc;
}

Result<rdb::Relation> DipsMatcher::MatchRelation(
    const CompiledRule* rule) const {
  for (const auto& rs : rules_) {
    if (rs->rule == rule) return ComputeMatch(*rs);
  }
  return Status::NotFound("rule not loaded in DIPS matcher: " + rule->name);
}

size_t DipsMatcher::TableMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& rs : rules_) {
    for (const CondTable& table : rs->tables) {
      const std::vector<rdb::Tuple>& rows = table.relation().rows();
      bytes += rows.capacity() * sizeof(rdb::Tuple);
      for (const rdb::Tuple& row : rows) {
        bytes += row.capacity() * sizeof(Value);
      }
    }
  }
  return bytes;
}

std::vector<std::string> DipsMatcher::KeyColumns(const CompiledRule& rule) {
  std::vector<std::string> keys;
  for (int pos : rule.key_token_positions) {
    keys.push_back("t" + std::to_string(pos));
  }
  for (const std::string& var : rule.ast.scalar_vars) keys.push_back(var);
  return keys;
}

Result<rdb::Relation> DipsMatcher::RetrieveSois(
    const CompiledRule* rule) const {
  SOREL_ASSIGN_OR_RETURN(rdb::Relation match, MatchRelation(rule));
  std::vector<std::string> keys = KeyColumns(*rule);
  rdb::Relation sorted = match;
  if (!keys.empty()) {
    SOREL_ASSIGN_OR_RETURN(sorted, rdb::Sort(match, keys));
  }
  std::vector<std::string> tag_cols;
  for (int pos = 0; pos < rule->num_positive; ++pos) {
    tag_cols.push_back("t" + std::to_string(pos));
  }
  return rdb::Project(sorted, tag_cols);
}

Result<rdb::Relation> DipsMatcher::SoiSummary(const CompiledRule* rule) const {
  SOREL_ASSIGN_OR_RETURN(rdb::Relation match, MatchRelation(rule));
  std::vector<rdb::AggColumn> aggs;
  aggs.push_back({AggOp::kCount, "", "rows", /*count_star=*/true});
  return rdb::GroupBy(match, KeyColumns(*rule), aggs);
}

const CondTable* DipsMatcher::cond_table(const CompiledRule* rule,
                                         int ce_index) const {
  for (const auto& rs : rules_) {
    if (rs->rule == rule) {
      return &rs->tables[static_cast<size_t>(ce_index)];
    }
  }
  return nullptr;
}

Result<Row> DipsMatcher::RowFromTuple(const RuleState& rs,
                                      const rdb::Relation& match,
                                      const rdb::Tuple& tuple) const {
  Row row(static_cast<size_t>(rs.rule->num_positive));
  for (int pos = 0; pos < rs.rule->num_positive; ++pos) {
    int col = match.schema().IndexOf("t" + std::to_string(pos));
    if (col < 0) return Status::RuntimeError("DIPS: missing tag column");
    WmePtr wme = wm_->Find(tuple[static_cast<size_t>(col)].as_int());
    if (wme == nullptr) {
      return Status::RuntimeError("DIPS: match references a dead WME");
    }
    row[static_cast<size_t>(pos)] = std::move(wme);
  }
  return row;
}

Status DipsMatcher::Refresh(RuleState* rs, Stats* stats) {
  ++stats->refreshes;
  SOREL_ASSIGN_OR_RETURN(rdb::Relation match, ComputeMatch(*rs));
  if (rs->rule->has_set) return RefreshSet(rs, match);
  return RefreshRegular(rs, match);
}

Status DipsMatcher::RefreshRegular(RuleState* rs,
                                   const rdb::Relation& match) {
  std::unordered_map<std::vector<TimeTag>, Row, TagVecHash> current;
  for (const rdb::Tuple& tuple : match.rows()) {
    SOREL_ASSIGN_OR_RETURN(Row row, RowFromTuple(*rs, match, tuple));
    current.emplace(RowSignature(row), std::move(row));
  }
  // Drop vanished instantiations. Release keeps each alive until any
  // buffered conflict-set ops have been applied (a reused address would
  // alias in the entry map).
  for (auto it = rs->insts.begin(); it != rs->insts.end();) {
    if (current.count(it->first) == 0) {
      cs_->Remove(it->second.get());
      cs_->Release(std::move(it->second));
      it = rs->insts.erase(it);
    } else {
      ++it;
    }
  }
  // Add new ones.
  for (auto& [sig, row] : current) {
    if (rs->insts.count(sig) != 0) continue;
    auto inst = std::make_unique<DipsInst>(rs->rule, std::move(row));
    cs_->Add(inst.get());
    rs->insts.emplace(sig, std::move(inst));
  }
  return Status::Ok();
}

Status DipsMatcher::RefreshSet(RuleState* rs, const rdb::Relation& match) {
  // Group the match relation by the partition key.
  std::unordered_map<SoiKey, std::vector<Row>, SoiKeyHash> groups;
  for (const rdb::Tuple& tuple : match.rows()) {
    SOREL_ASSIGN_OR_RETURN(Row row, RowFromTuple(*rs, match, tuple));
    SoiKey key = MakeSoiKey(*rs->rule, row);
    groups[key].push_back(std::move(row));
  }
  // Sort each group's rows by descending recency (conflict-set order).
  for (auto& [key, rows] : groups) {
    std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return CompareRecencyTags(RowRecency(a), RowRecency(b)) > 0;
    });
  }
  // Drop vanished SOIs (Release: see RefreshRegular).
  for (auto it = rs->sois.begin(); it != rs->sois.end();) {
    if (groups.count(it->first) == 0) {
      if (it->second->active_) cs_->Remove(it->second.get());
      cs_->Release(std::move(it->second));
      it = rs->sois.erase(it);
    } else {
      ++it;
    }
  }
  // Create or update the rest.
  for (auto& [key, rows] : groups) {
    std::vector<std::vector<TimeTag>> sig;
    sig.reserve(rows.size());
    for (const Row& row : rows) sig.push_back(RowSignature(row));
    auto it = rs->sois.find(key);
    if (it != rs->sois.end() && it->second->sig_ == sig) continue;  // no change
    if (it == rs->sois.end()) {
      it = rs->sois.emplace(key, std::make_unique<DipsSoi>(rs->rule)).first;
    }
    DipsSoi* soi = it->second.get();
    soi->rows_ = std::move(rows);
    soi->sig_ = std::move(sig);
    SOREL_ASSIGN_OR_RETURN(bool pass, EvalTestOverRows(*rs->rule, soi->rows_));
    if (pass) {
      soi->active_ = true;
      cs_->Add(soi);  // insert or reinstate eligibility (§6)
    } else if (soi->active_) {
      soi->active_ = false;
      cs_->Remove(soi);
    }
  }
  return Status::Ok();
}

}  // namespace dips
}  // namespace sorel
