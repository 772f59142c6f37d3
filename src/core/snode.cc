#include "core/snode.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "lang/eval.h"

namespace sorel {

namespace {

/// The aggregated value one row contributes to `spec`: the PV's value at
/// its binding site, or the WME's time tag for CE element aggregates.
Value AggInputValue(const AggregateSpec& spec, const Row& row) {
  const WmePtr& wme = row[static_cast<size_t>(spec.token_pos)];
  if (spec.over_element) return Value::Int(wme->time_tag());
  return wme->field(spec.field);
}

std::vector<TimeTag> RowRecency(const Row& row) {
  std::vector<TimeTag> tags;
  tags.reserve(row.size());
  for (const WmePtr& w : row) tags.push_back(w->time_tag());
  std::sort(tags.rbegin(), tags.rend());
  return tags;
}

/// Resolves scalar variables of the rule against an SOI's head row for
/// `:test` evaluation; aggregates come from the γ-memory state.
class SoiTestContext : public EvalContext {
 public:
  explicit SoiTestContext(const Soi& soi) : soi_(soi) {}

  Result<Value> ResolveVar(const std::string& name) const override {
    const VarInfo* info = soi_.rule().FindVar(name);
    if (info == nullptr || info->kind != VarInfo::Kind::kValue ||
        info->set_oriented || info->occurrences.empty() ||
        soi_.members().empty()) {
      return Status::RuntimeError("variable <" + name +
                                  "> is not scalar in :test");
    }
    const auto& [pos, field] = info->occurrences.front();
    const Row& row = soi_.members().front().row;
    return row[static_cast<size_t>(pos)]->field(field);
  }

  Result<Value> EvalAggregate(const Expr& agg) const override {
    if (agg.agg_index < 0) {
      return Status::RuntimeError("aggregate not compiled for :test");
    }
    return soi_.AggregateValue(agg.agg_index);
  }

 private:
  const Soi& soi_;
};

}  // namespace

// ------------------------------------------------------------------ Soi ---

void Soi::CollectRows(std::vector<Row>* out) const {
  out->reserve(out->size() + members_.size());
  for (const Member& m : members_) out->push_back(m.row);
}

std::vector<TimeTag> Soi::RecencyTags() const {
  if (members_.empty()) return {};
  return members_.front().rec;
}

TimeTag Soi::FirstCeTag() const {
  if (members_.empty() || members_.front().row.empty()) return 0;
  return members_.front().row.front()->time_tag();
}

Result<Value> Soi::AggregateValue(int index) const {
  if (index < 0 || index >= static_cast<int>(aggs_.size())) {
    return Status::InvalidArgument("aggregate index out of range");
  }
  return aggs_[static_cast<size_t>(index)].Current();
}

// ---------------------------------------------------------------- SNode ---

SNode::SNode(const CompiledRule* rule, ConflictSet* cs, SNodeOptions options,
             obs::MetricRegistry* metrics)
    : rule_(rule), cs_(cs), options_(options), metrics_(metrics) {
  if (metrics_ == nullptr) return;
  metrics_->RegisterCounter(this, "snode.tokens",
                            [this] { return stats_.tokens; });
  metrics_->RegisterCounter(this, "snode.sends_plus",
                            [this] { return stats_.sends_plus; });
  metrics_->RegisterCounter(this, "snode.sends_minus",
                            [this] { return stats_.sends_minus; });
  metrics_->RegisterCounter(this, "snode.sends_time",
                            [this] { return stats_.sends_time; });
  metrics_->RegisterCounter(this, "snode.sois_created",
                            [this] { return stats_.sois_created; });
  metrics_->RegisterCounter(this, "snode.sois_deleted",
                            [this] { return stats_.sois_deleted; });
  metrics_->RegisterCounter(this, "snode.test_evals",
                            [this] { return stats_.test_evals; });
  metrics_->RegisterCounter(this, "snode.batch_flushes",
                            [this] { return stats_.batch_flushes; });
  metrics_->RegisterReset(this, [this] { ResetStats(); });
}

SNode::~SNode() {
  if (metrics_ != nullptr) metrics_->Unregister(this);
  for (auto& [key, soi] : gamma_) {
    if (soi->active_) cs_->Remove(soi.get());
  }
}

Soi* SNode::FindOrNull(const SoiKey& key) {
  if (options_.linear_scan_gamma) {
    // Figure 3 verbatim: "for i in candidate SOIs ... if ∀x∈C i[x] =
    // token[x] and ∀x∈P i[x] = token[x]".
    for (auto& [k, soi] : gamma_) {
      if (k == key) return soi.get();
    }
    return nullptr;
  }
  auto it = gamma_.find(key);
  return it == gamma_.end() ? nullptr : it->second.get();
}

bool SNode::EvalTest(const Soi& soi) {
  ++stats_.test_evals;
  if (rule_->ast.test == nullptr) return true;
  SoiTestContext ctx(soi);
  Result<Value> result = EvalExpr(*rule_->ast.test, ctx);
  if (!result.ok()) {
    if (last_error_.ok()) last_error_ = result.status();
    return false;
  }
  return result->IsTruthy();
}

void SNode::RebuildAggregates(Soi* soi) {
  for (size_t i = 0; i < soi->aggs_.size(); ++i) {
    AggState& agg = soi->aggs_[i];
    agg.Clear();
    for (const Soi::Member& m : soi->members_) {
      agg.Insert(AggInputValue(rule_->test_aggregates[i], m.row));
    }
  }
}

void SNode::OnToken(Token* token, bool added) {
  assert(in_batch_ && "S-node tokens arrive only inside a batch");
  ++stats_.tokens;
  Row row;
  TokenRow(token, &row);
  SoiKey key = MakeSoiKey(*rule_, row);
  Soi* soi = FindOrNull(key);

  // --- Stage 1 (Figure 3): find the SOI and the place within it. ---
  // Stages 2 and 3 — the `:test` and the flow decision — run once per
  // touched SOI in OnBatchEnd.
  bool head_changed;
  if (added) {
    Soi::Member member{token, row, RowRecency(row)};
    if (soi == nullptr) {
      auto fresh = std::make_unique<Soi>(rule_);
      fresh->key_ = key;
      for (const AggregateSpec& spec : rule_->test_aggregates) {
        fresh->aggs_.emplace_back(spec.op);
      }
      soi = fresh.get();
      gamma_.emplace(std::move(key), std::move(fresh));
      ++stats_.sois_created;
      head_changed = true;
      soi->members_.push_back(std::move(member));
    } else {
      // Insert ordered like the conflict set: descending recency.
      size_t i = 0;
      while (i < soi->members_.size() &&
             CompareRecencyTags(member.rec, soi->members_[i].rec) <= 0) {
        ++i;
      }
      head_changed = (i == 0);
      soi->members_.insert(
          soi->members_.begin() + static_cast<ptrdiff_t>(i),
          std::move(member));
    }
  } else {
    if (soi == nullptr) return;  // defensive: unknown token
    size_t i = 0;
    while (i < soi->members_.size() && soi->members_[i].token != token) ++i;
    if (i == soi->members_.size()) return;  // defensive
    head_changed = (i == 0);
    soi->members_.erase(soi->members_.begin() + static_cast<ptrdiff_t>(i));
  }
  ++soi->mutation_;

  // The aggregate update is unconditional (even when the SOI just emptied):
  // the SOI object survives until the flush and may be refilled by a later
  // change in the same batch, so its AV entries must stay in sync.
  if (!options_.recompute_aggregates) {
    for (size_t i = 0; i < soi->aggs_.size(); ++i) {
      Value v = AggInputValue(rule_->test_aggregates[i], row);
      if (added) {
        soi->aggs_[i].Insert(v);
      } else {
        soi->aggs_[i].Remove(v);
      }
    }
  }
  if (!soi->batch_touched_) {
    soi->batch_touched_ = true;
    touched_.push_back(soi);
  }
  if (head_changed) soi->batch_head_changed_ = true;
}

void SNode::OnBatchBegin() { in_batch_ = true; }

void SNode::OnBatchEnd() {
  in_batch_ = false;
  ++stats_.batch_flushes;
  // Stages 2 and 3 of Figure 3, once per touched SOI, in first-touch order
  // (the order a change-by-change walk reaches each SOI's first
  // conflict-set decision).
  for (Soi* soi : touched_) {
    soi->batch_touched_ = false;
    bool head_changed = soi->batch_head_changed_;
    soi->batch_head_changed_ = false;
    if (soi->members_.empty()) {
      if (soi->active_) {
        cs_->Remove(soi);
        ++stats_.sends_minus;
      }
      SoiKey dead = soi->key_;
      gamma_.erase(dead);
      ++stats_.sois_deleted;
      continue;
    }
    if (options_.recompute_aggregates) RebuildAggregates(soi);
    if (EvalTest(*soi)) {
      if (soi->active_) {
        // Touch regardless of head movement: any membership change restores
        // §6 eligibility. `time` sends are only counted when the head (and
        // therefore the conflict-set position) actually moved.
        cs_->Touch(soi);
        if (head_changed) ++stats_.sends_time;
      } else {
        soi->active_ = true;
        cs_->Add(soi);
        ++stats_.sends_plus;
      }
    } else if (soi->active_) {
      soi->active_ = false;
      cs_->Remove(soi);
      ++stats_.sends_minus;
    }
  }
  touched_.clear();
}

std::vector<const Soi*> SNode::sois() const {
  std::vector<const Soi*> out;
  out.reserve(gamma_.size());
  for (const auto& [key, soi] : gamma_) out.push_back(soi.get());
  return out;
}

}  // namespace sorel
