#include "plan/plan_matcher.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <utility>

#include "base/thread_pool.h"
#include "rdb/wme_ops.h"
#include "rete/columnar.h"
#include "rete/instantiation.h"

namespace sorel {

namespace {

struct TagVecHash {
  size_t operator()(const std::vector<TimeTag>& tags) const {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (TimeTag t : tags) {
      h ^= std::hash<TimeTag>()(t) + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

std::vector<TimeTag> RowSignature(const Row& row) {
  std::vector<TimeTag> sig;
  sig.reserve(row.size());
  for (const WmePtr& w : row) sig.push_back(w->time_tag());
  return sig;
}

/// One resolved pairwise join predicate of an execution step, evaluated as
/// `wme.field pred row[other_pos].other_field` (the bound side is already
/// in the row; mirrored from the compiled test when the original owner
/// executes first).
struct PairSpec {
  int field;
  TestPred pred;
  int other_pos;  // token position of the bound side
  int other_field;
};

}  // namespace

/// A plan-matcher instantiation: one complete row, owned by the matcher.
class PlanMatcher::PlanInst : public InstantiationRef {
 public:
  PlanInst(const CompiledRule* rule, Row row)
      : rule_(rule), row_(std::move(row)) {}

  const CompiledRule& rule() const override { return *rule_; }
  void CollectRows(std::vector<Row>* out) const override {
    out->push_back(row_);
  }
  std::vector<TimeTag> RecencyTags() const override {
    std::vector<TimeTag> tags = RowSignature(row_);
    std::sort(tags.rbegin(), tags.rend());
    return tags;
  }
  TimeTag FirstCeTag() const override {
    return row_.empty() ? 0 : row_.front()->time_tag();
  }
  const Row& row() const { return row_; }

 private:
  const CompiledRule* rule_;
  Row row_;
};

/// A shared alpha group: the Rete alpha-memory identity (class + alpha
/// tests) with its successor list, newest-first. Item storage lives
/// per-successor (each rule's CeState owns a column store), so parallel
/// per-rule replays touch no shared mutable state; the group exists to
/// reproduce Rete's activation-event order and memory-sharing structure.
/// Like Rete's AlphaMemory, the tests themselves are a borrowed immutable
/// `AlphaPattern` — from the bound rule base's topology, or owned by the
/// matcher when self-contained.
struct PlanMatcher::AlphaGroup {
  const AlphaPattern* pattern = nullptr;
  struct Succ {
    RuleState* rs;
    int ce;
  };
  std::vector<Succ> succs;  // newest-first (Doorenbos ordering)

  bool SameTests(const CompiledCondition& cond) const {
    return pattern->Matches(cond);
  }
};

/// One rule's per-CE alpha storage: a columnar store scanned through
/// AlphaSpan views, plus the owning shared group.
struct PlanMatcher::CeState {
  AlphaColumns cols;
  AlphaGroup* group = nullptr;
};

/// One step of an execution plan: which condition to bind next and the
/// pairwise predicates connecting it to the already-bound prefix.
struct PlanMatcher::Step {
  int ce = 0;
  bool negated = false;
  std::vector<PairSpec> eq;
  std::vector<PairSpec> residual;
  std::vector<int> eq_fields;  // this-side fields, the hash-join key
  double est = 0;              // optimizer's intermediate-size estimate
};

struct PlanMatcher::ExecPlan {
  std::vector<Step> steps;
};

struct PlanMatcher::RuleState {
  const CompiledRule* rule = nullptr;
  std::vector<CeState> ces;  // per condition (original index)
  std::vector<JoinEdge> edges;
  /// Unseeded execution order (rule-add search, unblock re-searches).
  ExecPlan canonical;
  /// Per positive CE: the order with that CE's seed bound first.
  std::vector<ExecPlan> seeded;
  /// Live cardinalities when the plans were last built (drift detection).
  std::vector<double> cards_at_build;
  /// Current instantiations keyed by their time-tag signature.
  std::unordered_map<std::vector<TimeTag>, std::unique_ptr<PlanInst>,
                     TagVecHash>
      insts;
  /// Scratch flag: a removal touched a positive CE (phase-c sweep due).
  bool touched_remove = false;
};

/// Search parameters: an optional pinned seed (additions), an optional
/// removed-blocker constraint (negated-CE unblock re-search), and whether
/// this is an unconstrained full search.
struct PlanMatcher::SearchCtx {
  int seed_ce = -1;
  WmePtr seed;
  const AlphaGroup* seed_group = nullptr;
  int neg_seed_ce = -1;
  const Wme* neg_seed = nullptr;
};

PlanMatcher::PlanMatcher(WorkingMemory* wm, ConflictSet* cs,
                         JoinOrder join_order, ThreadPool* pool,
                         obs::MetricRegistry* metrics, obs::Tracer* tracer,
                         const NetworkTopology* topology)
    : wm_(wm), cs_(cs), join_order_(join_order), pool_(pool),
      metrics_(metrics), tracer_(tracer), topology_(topology) {
  wm_->AddListener(this);
  if (metrics_ != nullptr) {
    metrics_->RegisterGauge(this, "plan.alpha_bytes", [this] {
      return static_cast<double>(AlphaMemoryBytes());
    });
    metrics_->RegisterCounter(this, "plan.join_attempts",
                              [this] { return stats_.join_attempts; });
    metrics_->RegisterCounter(this, "plan.reorders",
                              [this] { return stats_.reorders; });
    metrics_->RegisterCounter(this, "plan.est_cardinality_error", [this] {
      return stats_.est_cardinality_error;
    });
    metrics_->RegisterCounter(this, "plan.index_builds",
                              [this] { return stats_.index_builds; });
    metrics_->RegisterCounter(this, "plan.seeded_searches",
                              [this] { return stats_.seeded_searches; });
    metrics_->RegisterCounter(this, "plan.full_searches",
                              [this] { return stats_.full_searches; });
    metrics_->RegisterCounter(this, "plan.batches",
                              [this] { return stats_.batches; });
    metrics_->RegisterReset(this, [this] { ResetStats(); });
    if (metrics_->timing_enabled()) {
      match_timer_ = metrics_->GetOrCreateTimer("phase.match");
    }
  }
}

PlanMatcher::~PlanMatcher() {
  if (metrics_ != nullptr) metrics_->Unregister(this);
  wm_->RemoveListener(this);
  for (const auto& rs : rules_) {
    for (const auto& [sig, inst] : rs->insts) cs_->Remove(inst.get());
  }
}

PlanMatcher::AlphaGroup* PlanMatcher::GetOrCreateGroup(
    const CompiledCondition& cond, const AlphaPattern* pattern) {
  auto& groups = groups_by_class_[cond.cls];
  for (const auto& g : groups) {
    // Pattern identity when bound to a shared topology, structural scan
    // otherwise — the same two-mode dedup as ReteMatcher::GetOrCreateAlpha,
    // and the same creation order either way.
    if (pattern != nullptr ? g->pattern == pattern : g->SameTests(cond)) {
      return g.get();
    }
  }
  if (pattern == nullptr) {
    owned_patterns_.push_back(AlphaPattern::FromCondition(cond));
    pattern = owned_patterns_.back().get();
  }
  auto g = std::make_unique<AlphaGroup>();
  g->pattern = pattern;
  groups.push_back(std::move(g));
  return groups.back().get();
}

void PlanMatcher::ScheduleFor(const Wme& wme,
                              std::vector<AlphaGroup*>* out) const {
  out->clear();
  auto it = groups_by_class_.find(wme.cls());
  if (it == groups_by_class_.end()) return;
  for (const auto& g : it->second) {
    if (g->pattern->Accepts(wme)) out->push_back(g.get());
  }
}

void PlanMatcher::BuildPlans(RuleState* rs, bool count_reorder,
                             Stats* stats) {
  const CompiledRule& rule = *rs->rule;
  const size_t n = rule.conditions.size();
  CardVec cards(n, 0.0);
  for (size_t ce = 0; ce < n; ++ce) {
    cards[ce] = static_cast<double>(rs->ces[ce].cols.live());
  }

  auto make_plan = [&](const std::vector<int>& order,
                       const std::vector<double>& est) {
    ExecPlan plan;
    std::vector<char> bound(static_cast<size_t>(rule.num_positive), 0);
    for (size_t p = 0; p < order.size(); ++p) {
      const int ce = order[p];
      const CompiledCondition& cond = rule.conditions[static_cast<size_t>(ce)];
      Step step;
      step.ce = ce;
      step.negated = cond.negated;
      step.est = p < est.size() ? est[p] : 0;
      for (const JoinEdge& e : rs->edges) {
        const CompiledCondition& other =
            rule.conditions[static_cast<size_t>(e.a == ce ? e.b : e.a)];
        PairSpec spec;
        if (e.a == ce) {
          // `e.b` is always positive; only usable once it is bound.
          if (!bound[static_cast<size_t>(other.token_pos)]) continue;
          spec = {e.a_field, e.pred, other.token_pos, e.b_field};
        } else if (e.b == ce) {
          // Mirrored: the compiled owner `e.a` executes later (or is
          // negated and owns the test at its own step).
          if (other.negated || !bound[static_cast<size_t>(other.token_pos)])
            continue;
          spec = {e.b_field, MirrorPred(e.pred), other.token_pos, e.a_field};
        } else {
          continue;
        }
        if (spec.pred == TestPred::kEq) {
          step.eq.push_back(spec);
          step.eq_fields.push_back(spec.field);
        } else {
          step.residual.push_back(spec);
        }
      }
      if (!cond.negated) bound[static_cast<size_t>(cond.token_pos)] = 1;
      plan.steps.push_back(std::move(step));
    }
    return plan;
  };

  auto order_of = [&](int seed_ce) {
    JoinOrderResult r;
    if (join_order_ == JoinOrder::kOptimized) {
      r = OptimizeJoinOrder(rule, cards, seed_ce);
    } else {
      r.order.resize(n);
      for (size_t i = 0; i < n; ++i) r.order[i] = static_cast<int>(i);
    }
    return r;
  };

  JoinOrderResult canonical = order_of(-1);
  if (count_reorder && !rs->canonical.steps.empty()) {
    bool changed = canonical.order.size() != rs->canonical.steps.size();
    for (size_t i = 0; !changed && i < canonical.order.size(); ++i) {
      changed = canonical.order[i] != rs->canonical.steps[i].ce;
    }
    if (changed) ++stats->reorders;
  }
  rs->canonical = make_plan(canonical.order, canonical.est);
  rs->seeded.assign(n, ExecPlan{});
  for (size_t ce = 0; ce < n; ++ce) {
    if (rule.conditions[ce].negated) continue;
    JoinOrderResult r = order_of(static_cast<int>(ce));
    rs->seeded[ce] = make_plan(r.order, r.est);
  }
  rs->cards_at_build = std::move(cards);
}

namespace {

bool EvalPairSpecs(const std::vector<PairSpec>& specs, const Row& row,
                   const Wme& wme) {
  for (const PairSpec& s : specs) {
    const WmePtr& other = row[static_cast<size_t>(s.other_pos)];
    if (!EvalTestPred(s.pred, wme.field(s.field),
                      other->field(s.other_field))) {
      return false;
    }
  }
  return true;
}

// Building an ephemeral hash index costs roughly an order of magnitude
// more per alpha row than a field comparison, so the build only pays for
// itself when enough rows probe it. Below this, equality links are
// evaluated as scan predicates like any residual test. Seeded searches —
// the per-change steady state — probe with one row and always scan;
// load-time full searches and unblock re-searches cross the threshold.
constexpr size_t kIndexProbeThreshold = 16;

JoinKey ProbeKey(const std::vector<PairSpec>& eq, const Row& row) {
  JoinKey key;
  key.values.reserve(eq.size());
  for (const PairSpec& s : eq) {
    key.values.push_back(
        row[static_cast<size_t>(s.other_pos)]->field(s.other_field));
  }
  return key;
}

}  // namespace

void PlanMatcher::RunPlan(RuleState* rs, const ExecPlan& plan,
                          const SearchCtx& ctx, std::vector<Row>* out,
                          Stats* stats) const {
  const CompiledRule& rule = *rs->rule;
  std::vector<Row> cur, next;
  cur.emplace_back(static_cast<size_t>(rule.num_positive));
  rdb::WmeHashIndex index;

  for (const Step& step : plan.steps) {
    if (cur.empty()) return;
    const CompiledCondition& cond =
        rule.conditions[static_cast<size_t>(step.ce)];
    const CeState& cs = rs->ces[static_cast<size_t>(step.ce)];
    next.clear();

    if (!step.negated && step.ce == ctx.seed_ce) {
      // Bind the pinned seed into every surviving row.
      for (Row& row : cur) {
        ++stats->join_attempts;
        if (!EvalPairSpecs(step.eq, row, *ctx.seed) ||
            !EvalPairSpecs(step.residual, row, *ctx.seed)) {
          continue;
        }
        row[static_cast<size_t>(cond.token_pos)] = ctx.seed;
        next.push_back(std::move(row));
      }
    } else if (!step.negated) {
      AlphaSpan span(&cs.cols, nullptr);
      // Same-group visibility exclusion: within the seed's activation
      // event, the seed WME is not yet visible at *earlier chain
      // positions* fed by the same alpha group (Rete processes one
      // memory's successors newest-first, so the earlier CE's event —
      // which creates those rows — has not run yet).
      TimeTag skip_tag = 0;
      if (ctx.seed_ce >= 0 && step.ce < ctx.seed_ce &&
          cs.group == ctx.seed_group) {
        skip_tag = ctx.seed->time_tag();
      }
      if (!step.eq.empty() && cur.size() >= kIndexProbeThreshold) {
        index.Build(span, step.eq_fields);
        ++stats->index_builds;
        for (const Row& row : cur) {
          const std::vector<uint32_t>* bucket =
              index.Find(ProbeKey(step.eq, row));
          if (bucket == nullptr) continue;
          for (uint32_t i : *bucket) {
            const WmePtr& w = span.Ptr(i);
            if (skip_tag != 0 && w->time_tag() == skip_tag) continue;
            ++stats->join_attempts;
            if (!EvalPairSpecs(step.residual, row, *w)) continue;
            Row r = row;
            r[static_cast<size_t>(cond.token_pos)] = w;
            next.push_back(std::move(r));
          }
        }
      } else {
        const size_t n = span.size();
        for (const Row& row : cur) {
          for (size_t i = 0; i < n; ++i) {
            if (!span.Live(i)) continue;
            const WmePtr& w = span.Ptr(i);
            if (skip_tag != 0 && w->time_tag() == skip_tag) continue;
            ++stats->join_attempts;
            if (!EvalPairSpecs(step.eq, row, *w)) continue;
            if (!EvalPairSpecs(step.residual, row, *w)) continue;
            Row r = row;
            r[static_cast<size_t>(cond.token_pos)] = w;
            next.push_back(std::move(r));
          }
        }
      }
    } else {
      // Negated: drop blocked rows. With equality links an ephemeral
      // hash index narrows the blocker candidates; otherwise scan.
      AlphaSpan span(&cs.cols, nullptr);
      const bool use_index = !step.eq.empty() && span.size() != 0 &&
                             cur.size() >= kIndexProbeThreshold;
      if (use_index) {
        index.Build(span, step.eq_fields);
        ++stats->index_builds;
      }
      for (Row& row : cur) {
        if (step.ce == ctx.neg_seed_ce) {
          // Unblock re-search: only rows the removed blocker matched can
          // have become unblocked.
          if (!EvalPairSpecs(step.eq, row, *ctx.neg_seed) ||
              !EvalPairSpecs(step.residual, row, *ctx.neg_seed)) {
            continue;
          }
        }
        bool blocked = false;
        if (use_index) {
          const std::vector<uint32_t>* bucket =
              index.Find(ProbeKey(step.eq, row));
          if (bucket != nullptr) {
            for (uint32_t i : *bucket) {
              ++stats->join_attempts;
              if (EvalPairSpecs(step.residual, row, *span.Ptr(i))) {
                blocked = true;
                break;
              }
            }
          }
        } else {
          const size_t n = span.size();
          for (size_t i = 0; i < n && !blocked; ++i) {
            if (!span.Live(i)) continue;
            ++stats->join_attempts;
            blocked = EvalPairSpecs(step.eq, row, *span.Ptr(i)) &&
                      EvalPairSpecs(step.residual, row, *span.Ptr(i));
          }
        }
        if (!blocked) next.push_back(std::move(row));
      }
    }
    cur.swap(next);
    if (join_order_ == JoinOrder::kOptimized && !step.negated) {
      const long long actual = static_cast<long long>(cur.size());
      const long long est = std::llround(step.est);
      stats->est_cardinality_error +=
          static_cast<uint64_t>(std::llabs(actual - est));
    }
  }
  for (Row& r : cur) out->push_back(std::move(r));
}

void PlanMatcher::EmitRows(RuleState* rs, std::vector<Row>* rows) {
  if (rows->empty()) return;
  // Canonical emission order: chain-order time-tag vectors, ascending.
  // Alpha items arrive in tag order, so this is exactly the nested-scan
  // order Rete's activation event produces on every pair of rows that
  // could tie in the conflict set (identical tag multisets).
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      const TimeTag ta = a[i]->time_tag(), tb = b[i]->time_tag();
      if (ta != tb) return ta < tb;
    }
    return false;
  });
  for (Row& row : *rows) {
    std::vector<TimeTag> sig = RowSignature(row);
    if (rs->insts.count(sig) != 0) continue;
    auto inst = std::make_unique<PlanInst>(rs->rule, std::move(row));
    cs_->Add(inst.get());
    rs->insts.emplace(std::move(sig), std::move(inst));
  }
}

void PlanMatcher::ActivateAdd(RuleState* rs, int ce, const WmePtr& wme,
                              size_t group_ord, Stats* stats) {
  (void)group_ord;
  const CompiledCondition& cond =
      rs->rule->conditions[static_cast<size_t>(ce)];
  if (cond.negated) {
    // The new blocker deletes the instantiations it now blocks
    // (deterministic order: sorted signatures).
    std::vector<std::vector<TimeTag>> victims;
    for (const auto& [sig, inst] : rs->insts) {
      if (PassesJoinTests(cond, inst->row(), *wme)) victims.push_back(sig);
    }
    std::sort(victims.begin(), victims.end());
    for (const auto& sig : victims) {
      auto it = rs->insts.find(sig);
      cs_->Remove(it->second.get());
      cs_->Release(std::move(it->second));
      rs->insts.erase(it);
    }
    return;
  }
  ++stats->seeded_searches;
  SearchCtx ctx;
  ctx.seed_ce = ce;
  ctx.seed = wme;
  ctx.seed_group = rs->ces[static_cast<size_t>(ce)].group;
  std::vector<Row> rows;
  RunPlan(rs, rs->seeded[static_cast<size_t>(ce)], ctx, &rows, stats);
  EmitRows(rs, &rows);
}

void PlanMatcher::UnblockSearch(RuleState* rs, int ce, const WmePtr& wme,
                                Stats* stats) {
  ++stats->full_searches;
  SearchCtx ctx;
  ctx.neg_seed_ce = ce;
  ctx.neg_seed = wme.get();
  std::vector<Row> rows;
  RunPlan(rs, rs->canonical, ctx, &rows, stats);
  EmitRows(rs, &rows);  // dedup drops the rows that were never blocked
}

void PlanMatcher::DropInstsContaining(RuleState* rs, TimeTag tag) {
  for (auto it = rs->insts.begin(); it != rs->insts.end();) {
    bool contains = false;
    for (const WmePtr& w : it->second->row()) {
      if (w->time_tag() == tag) {
        contains = true;
        break;
      }
    }
    if (contains) {
      cs_->Remove(it->second.get());
      // Keep the instantiation alive until buffered conflict-set ops have
      // been applied (a reused address would alias in the entry map).
      cs_->Release(std::move(it->second));
      it = rs->insts.erase(it);
    } else {
      ++it;
    }
  }
}

void PlanMatcher::ApplyAdd(const WmePtr& wme,
                           const std::vector<AlphaGroup*>& schedule) {
  for (size_t i = 0; i < schedule.size(); ++i) {
    AlphaGroup* g = schedule[i];
    // Rete inserts the WME into one memory, then right-activates that
    // memory's successors before inserting into the next — the physical
    // order the seeded searches' visibility relies on.
    for (const auto& succ : g->succs) {
      succ.rs->ces[static_cast<size_t>(succ.ce)].cols.Append(wme);
    }
    for (const auto& succ : g->succs) {
      ActivateAdd(succ.rs, succ.ce, wme, i, &stats_);
    }
  }
}

void PlanMatcher::ApplyRemove(const WmePtr& wme,
                              const std::vector<AlphaGroup*>& schedule) {
  const TimeTag tag = wme->time_tag();
  // Phase A: alpha exits, all memories first (Rete's removal order).
  for (AlphaGroup* g : schedule) {
    for (const auto& succ : g->succs) {
      RuleState* rs = succ.rs;
      if (rs->ces[static_cast<size_t>(succ.ce)].cols.Kill(tag) ==
          AlphaColumns::kNoRow) {
        continue;
      }
      if (!rs->rule->conditions[static_cast<size_t>(succ.ce)].negated) {
        rs->touched_remove = true;
      }
    }
  }
  // Phase B: negated-CE unblock re-searches, in activation-event order.
  for (AlphaGroup* g : schedule) {
    for (const auto& succ : g->succs) {
      if (succ.rs->rule->conditions[static_cast<size_t>(succ.ce)].negated) {
        UnblockSearch(succ.rs, succ.ce, wme, &stats_);
      }
    }
  }
  // Phase C: drop the instantiations containing the WME, rule
  // registration order (Rete deletes token trees shard by shard).
  for (const auto& rs : rules_) {
    if (!rs->touched_remove) continue;
    rs->touched_remove = false;
    DropInstsContaining(rs.get(), tag);
  }
}

void PlanMatcher::ReplayRule(
    RuleState* rs, const ChangeBatch& batch,
    const std::vector<std::vector<AlphaGroup*>>& schedules,
    ConflictSet::Delta* delta, Stats* stats) {
  // Scoped: while this task waits inside the pool it may help-drain and
  // execute another replay task, whose exit must restore this frame's
  // redirection rather than clear it.
  ConflictSet::ScopedThreadDelta scoped_delta(cs_, delta);
  for (size_t e = 0; e < batch.changes.size(); ++e) {
    const WmChange& c = batch.changes[e];
    const std::vector<AlphaGroup*>& schedule = schedules[e];
    if (c.added) {
      for (size_t i = 0; i < schedule.size(); ++i) {
        AlphaGroup* g = schedule[i];
        bool mine = false;
        for (const auto& succ : g->succs) {
          if (succ.rs != rs) continue;
          rs->ces[static_cast<size_t>(succ.ce)].cols.Append(c.wme);
          mine = true;
        }
        if (!mine) continue;
        for (size_t s = 0; s < g->succs.size(); ++s) {
          if (g->succs[s].rs != rs) continue;
          delta->SetStamp({static_cast<uint32_t>(e), 0,
                           static_cast<uint32_t>(i),
                           static_cast<uint32_t>(s)});
          ActivateAdd(rs, g->succs[s].ce, c.wme, i, stats);
        }
      }
    } else {
      const TimeTag tag = c.wme->time_tag();
      bool touched_pos = false;
      for (AlphaGroup* g : schedule) {
        for (const auto& succ : g->succs) {
          if (succ.rs != rs) continue;
          if (rs->ces[static_cast<size_t>(succ.ce)].cols.Kill(tag) ==
              AlphaColumns::kNoRow) {
            continue;
          }
          if (!rs->rule->conditions[static_cast<size_t>(succ.ce)].negated) {
            touched_pos = true;
          }
        }
      }
      for (size_t i = 0; i < schedule.size(); ++i) {
        AlphaGroup* g = schedule[i];
        for (size_t s = 0; s < g->succs.size(); ++s) {
          if (g->succs[s].rs != rs) continue;
          const int ce = g->succs[s].ce;
          if (!rs->rule->conditions[static_cast<size_t>(ce)].negated)
            continue;
          delta->SetStamp({static_cast<uint32_t>(e), 0,
                           static_cast<uint32_t>(i),
                           static_cast<uint32_t>(s)});
          UnblockSearch(rs, ce, c.wme, stats);
        }
      }
      if (touched_pos) {
        delta->SetStamp({static_cast<uint32_t>(e), 1, 0, 0});
        DropInstsContaining(rs, tag);
      }
    }
  }
}

void PlanMatcher::OnBatch(const ChangeBatch& batch) {
  obs::ScopedTimer timer(match_timer_);
  ++stats_.batches;
  std::vector<std::vector<AlphaGroup*>> schedules(batch.changes.size());
  for (size_t e = 0; e < batch.changes.size(); ++e) {
    ScheduleFor(*batch.changes[e].wme, &schedules[e]);
  }
  if (pool_ != nullptr && rules_.size() > 1) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      for (const auto& rs : rules_) {
        tracer_->Emit(obs::TraceEvent("rule_replay")
                          .Str("rule", rs->rule->name)
                          .Num("changes", batch.changes.size()));
      }
    }
    // Rule states are disjoint; each rule replays the whole batch as one
    // task. The OpStamps ({change, phase, group ordinal, successor
    // ordinal}) merge the buffered op streams into exactly the sequential
    // activation-event order.
    std::vector<ConflictSet::Delta> deltas(rules_.size());
    std::vector<Stats> stats(rules_.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(rules_.size());
    for (size_t i = 0; i < rules_.size(); ++i) {
      tasks.push_back([this, &batch, &schedules, &deltas, &stats, i] {
        ReplayRule(rules_[i].get(), batch, schedules, &deltas[i], &stats[i]);
      });
    }
    pool_->RunAll(std::move(tasks));
    for (const Stats& s : stats) {
      stats_.join_attempts += s.join_attempts;
      stats_.est_cardinality_error += s.est_cardinality_error;
      stats_.index_builds += s.index_builds;
      stats_.seeded_searches += s.seeded_searches;
      stats_.full_searches += s.full_searches;
    }
    cs_->ApplyDeltas(deltas);
  } else {
    for (const WmChange& c : batch.changes) {
      const auto& schedule =
          schedules[static_cast<size_t>(&c - batch.changes.data())];
      if (c.added) {
        ApplyAdd(c.wme, schedule);
      } else {
        ApplyRemove(c.wme, schedule);
      }
    }
  }
  MaybeReoptimize();
  MaybeCompact();
}

void PlanMatcher::MaybeReoptimize() {
  if (join_order_ != JoinOrder::kOptimized) return;
  for (const auto& rs : rules_) {
    bool drifted = false;
    for (size_t ce = 0; ce < rs->ces.size(); ++ce) {
      const double cur = static_cast<double>(rs->ces[ce].cols.live());
      const double prev = rs->cards_at_build[ce];
      if (cur < 16 && prev < 16) continue;
      if (cur >= 2 * prev || prev >= 2 * cur) {
        drifted = true;
        break;
      }
    }
    if (drifted) BuildPlans(rs.get(), /*count_reorder=*/true, &stats_);
  }
}

void PlanMatcher::MaybeCompact() {
  std::vector<uint32_t> remap;
  for (const auto& rs : rules_) {
    for (CeState& ce : rs->ces) {
      if (ce.cols.NeedsCompaction()) ce.cols.Compact(&remap);
    }
  }
}

Status PlanMatcher::AddRule(const CompiledRule* rule) {
  if (rule->has_set) {
    return Status::Unimplemented(
        "rule '" + rule->name +
        "': the plan matcher is tuple-oriented and does not support "
        "set-oriented constructs");
  }
  auto rs = std::make_unique<RuleState>();
  rs->rule = rule;
  rs->ces.resize(rule->conditions.size());
  const std::vector<const AlphaPattern*>* bound =
      topology_ != nullptr ? topology_->PatternsFor(rule) : nullptr;
  for (size_t ce = 0; ce < rule->conditions.size(); ++ce) {
    AlphaGroup* g = GetOrCreateGroup(rule->conditions[ce],
                                     bound != nullptr ? (*bound)[ce] : nullptr);
    rs->ces[ce].group = g;
    // Newest-first successor insertion (Doorenbos's duplicate-avoiding
    // order, which the activation events reproduce).
    g->succs.insert(g->succs.begin(),
                    AlphaGroup::Succ{rs.get(), static_cast<int>(ce)});
  }
  for (const WmePtr& w : wm_->Snapshot()) {
    for (size_t ce = 0; ce < rule->conditions.size(); ++ce) {
      const CompiledCondition& cond = rule->conditions[ce];
      if (w->cls() == cond.cls && PassesAlphaTests(cond, *w)) {
        rs->ces[ce].cols.Append(w);
      }
    }
  }
  rs->edges = BuildJoinGraph(*rule);
  BuildPlans(rs.get(), /*count_reorder=*/false, &stats_);
  ++stats_.full_searches;
  SearchCtx ctx;
  std::vector<Row> rows;
  RunPlan(rs.get(), rs->canonical, ctx, &rows, &stats_);
  EmitRows(rs.get(), &rows);
  rules_.push_back(std::move(rs));
  return Status::Ok();
}

Status PlanMatcher::RemoveRule(const CompiledRule* rule) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if ((*it)->rule != rule) continue;
    RuleState* rs = it->get();
    for (auto& [cls, groups] : groups_by_class_) {
      for (const auto& g : groups) {
        std::erase_if(g->succs, [rs](const AlphaGroup::Succ& s) {
          return s.rs == rs;
        });
      }
    }
    for (const auto& [sig, inst] : rs->insts) cs_->Remove(inst.get());
    rules_.erase(it);
    return Status::Ok();
  }
  return Status::NotFound("rule not loaded: " + rule->name);
}

size_t PlanMatcher::num_instantiations() const {
  size_t n = 0;
  for (const auto& rs : rules_) n += rs->insts.size();
  return n;
}

size_t PlanMatcher::AlphaMemoryBytes() const {
  size_t n = 0;
  for (const auto& rs : rules_) {
    for (const CeState& ce : rs->ces) n += ce.cols.MemoryBytes();
  }
  return n;
}

}  // namespace sorel
