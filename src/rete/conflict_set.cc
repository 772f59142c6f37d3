#include "rete/conflict_set.h"

#include <algorithm>
#include <utility>

namespace sorel {

namespace {

// Which conflict set (if any) this thread is currently buffering for, and
// where. One pair suffices: a thread drives at most one matcher task at a
// time, and each task targets a single conflict set.
thread_local const ConflictSet* tls_delta_owner = nullptr;
thread_local ConflictSet::Delta* tls_delta = nullptr;

}  // namespace

int CompareRecencyTags(const std::vector<TimeTag>& a,
                       const std::vector<TimeTag>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] > b[i] ? 1 : -1;
  }
  if (a.size() != b.size()) return a.size() > b.size() ? 1 : -1;
  return 0;
}

bool ConflictSet::Cmp::operator()(const Ref& a, const Ref& b) const {
  ++*comparisons;
  if (mea && a.entry->first_ce != b.entry->first_ce) {
    return a.entry->first_ce > b.entry->first_ce;
  }
  int rec = CompareRecencyTags(a.entry->rec, b.entry->rec);
  if (rec != 0) return rec > 0;
  if (a.entry->specificity != b.entry->specificity) {
    return a.entry->specificity > b.entry->specificity;
  }
  return a.entry->seq > b.entry->seq;  // unique: total order
}

ConflictSet::ConflictSet(bool use_index, obs::MetricRegistry* metrics)
    : use_index_(use_index),
      metrics_(metrics),
      lex_(Cmp{/*mea=*/false, &stats_.comparisons}),
      mea_(Cmp{/*mea=*/true, &stats_.comparisons}) {
  if (metrics_ == nullptr) return;
  metrics_->RegisterCounter(this, "select.selects",
                            [this] { return stats_.selects; });
  metrics_->RegisterCounter(this, "select.comparisons",
                            [this] { return stats_.comparisons; });
  metrics_->RegisterGauge(this, "select.entries", [this] {
    return static_cast<double>(entries_.size());
  });
  metrics_->RegisterReset(this, [this] { ResetStats(); });
}

ConflictSet::~ConflictSet() {
  if (metrics_ != nullptr) metrics_->Unregister(this);
}

ConflictSet::KeySnapshot ConflictSet::SnapshotKeys(
    const InstantiationRef& inst) {
  KeySnapshot keys;
  keys.rec = inst.RecencyTags();
  keys.first_ce = inst.FirstCeTag();
  keys.specificity = inst.rule().specificity;
  return keys;
}

ConflictSet::Delta* ConflictSet::ThreadDelta() const {
  return tls_delta_owner == this ? tls_delta : nullptr;
}

void ConflictSet::SetThreadDelta(const ConflictSet* cs, Delta* delta) {
  tls_delta_owner = delta == nullptr ? nullptr : cs;
  tls_delta = delta;
}

ConflictSet::ScopedThreadDelta::ScopedThreadDelta(const ConflictSet* cs,
                                                  Delta* delta)
    : prev_owner_(tls_delta_owner), prev_delta_(tls_delta) {
  SetThreadDelta(cs, delta);
}

ConflictSet::ScopedThreadDelta::~ScopedThreadDelta() {
  tls_delta_owner = prev_owner_;
  tls_delta = prev_delta_;
}

void ConflictSet::IndexEntry(InstantiationRef* inst, const Entry& e) {
  if (!use_index_) return;
  lex_.insert(Ref{inst, &e});
  mea_.insert(Ref{inst, &e});
}

void ConflictSet::UnindexEntry(InstantiationRef* inst, const Entry& e) {
  if (!use_index_) return;
  lex_.erase(Ref{inst, &e});
  mea_.erase(Ref{inst, &e});
}

void ConflictSet::Add(InstantiationRef* inst) {
  if (Delta* d = ThreadDelta()) {
    d->ops_.push_back({d->stamp_, /*add=*/true, inst, SnapshotKeys(*inst)});
    return;
  }
  AddWithKeys(inst, SnapshotKeys(*inst));
}

void ConflictSet::AddWithKeys(InstantiationRef* inst, KeySnapshot keys) {
  auto [it, inserted] = entries_.try_emplace(inst);
  Entry& e = it->second;
  if (inserted) {
    e.seq = next_seq_++;
  } else {
    // Re-filed entry: its content (and thus sort keys) may have changed, so
    // reposition it. Unindex under the *old* cached keys before touching
    // them.
    if (!e.fired) UnindexEntry(inst, e);
    if (e.fired) {
      // Re-activation of a fired SOI: it re-enters the conflict set *now*,
      // so it tie-breaks by this moment, not by when it first appeared.
      e.fired = false;
      e.seq = next_seq_++;
    }
  }
  e.rec = std::move(keys.rec);
  e.first_ce = keys.first_ce;
  e.specificity = keys.specificity;
  IndexEntry(inst, e);
}

void ConflictSet::Remove(InstantiationRef* inst) {
  if (Delta* d = ThreadDelta()) {
    d->ops_.push_back({d->stamp_, /*add=*/false, inst, {}});
    return;
  }
  RemoveNow(inst);
}

void ConflictSet::RemoveNow(InstantiationRef* inst) {
  auto it = entries_.find(inst);
  if (it == entries_.end()) return;
  if (!it->second.fired) UnindexEntry(inst, it->second);
  entries_.erase(it);
}

void ConflictSet::Release(std::unique_ptr<InstantiationRef> dead) {
  if (Delta* d = ThreadDelta()) {
    d->graveyard_.push_back(std::move(dead));
    return;
  }
  // Destroyed here: no deferred op can still reference it.
}

void ConflictSet::ApplyDeltas(std::span<Delta> deltas) {
  std::vector<MergeOp>& flat = merge_scratch_;
  flat.clear();
  for (size_t di = 0; di < deltas.size(); ++di) {
    auto& ops = deltas[di].ops_;
    for (size_t oi = 0; oi < ops.size(); ++oi) {
      flat.push_back({&ops[oi], static_cast<uint32_t>(di),
                      static_cast<uint32_t>(oi)});
    }
  }
  // (stamp, delta position, buffering order) is a strict total order, so
  // plain sort is deterministic. The result is exactly the op sequence the
  // sequential propagation would have issued.
  std::sort(flat.begin(), flat.end(), [](const MergeOp& a, const MergeOp& b) {
    if (a.op->stamp < b.op->stamp) return true;
    if (b.op->stamp < a.op->stamp) return false;
    if (a.delta_pos != b.delta_pos) return a.delta_pos < b.delta_pos;
    return a.seq < b.seq;
  });
  for (const MergeOp& f : flat) {
    if (f.op->add) {
      AddWithKeys(f.op->inst, std::move(f.op->keys));
    } else {
      RemoveNow(f.op->inst);
    }
  }
  flat.clear();
  for (Delta& d : deltas) {
    d.ops_.clear();
    d.graveyard_.clear();  // dead instantiations are safe to free now
  }
}

void ConflictSet::MarkFired(InstantiationRef* inst, bool remove_entry) {
  auto it = entries_.find(inst);
  if (it == entries_.end()) return;
  if (!it->second.fired) UnindexEntry(inst, it->second);
  if (remove_entry) {
    entries_.erase(it);
    return;
  }
  it->second.fired = true;
}

bool ConflictSet::Precedes(Strategy strategy, const Entry& a, const Entry& b) {
  if (strategy == Strategy::kMea && a.first_ce != b.first_ce) {
    return a.first_ce > b.first_ce;
  }
  int rec = CompareRecencyTags(a.rec, b.rec);
  if (rec != 0) return rec > 0;
  if (a.specificity != b.specificity) return a.specificity > b.specificity;
  return a.seq > b.seq;  // arbitrary but deterministic
}

InstantiationRef* ConflictSet::Select(Strategy strategy) const {
  ++stats_.selects;
  if (use_index_) {
    const Index& index = IndexFor(strategy);
    return index.empty() ? nullptr : index.begin()->inst;
  }
  InstantiationRef* best = nullptr;
  const Entry* best_entry = nullptr;
  for (const auto& [inst, entry] : entries_) {
    if (entry.fired) continue;
    if (best != nullptr) ++stats_.comparisons;
    if (best == nullptr || Precedes(strategy, entry, *best_entry)) {
      best = inst;
      best_entry = &entry;
    }
  }
  return best;
}

std::vector<InstantiationRef*> ConflictSet::SortedEligible(
    Strategy strategy) const {
  std::vector<InstantiationRef*> out;
  if (use_index_) {
    const Index& index = IndexFor(strategy);
    out.reserve(index.size());
    for (const Ref& ref : index) out.push_back(ref.inst);
    return out;
  }
  std::vector<std::pair<InstantiationRef*, const Entry*>> eligible;
  for (const auto& [inst, entry] : entries_) {
    if (!entry.fired) eligible.emplace_back(inst, &entry);
  }
  std::sort(eligible.begin(), eligible.end(),
            [this, strategy](const auto& a, const auto& b) {
              ++stats_.comparisons;
              return Precedes(strategy, *a.second, *b.second);
            });
  out.reserve(eligible.size());
  for (const auto& [inst, entry] : eligible) out.push_back(inst);
  return out;
}

size_t ConflictSet::EligibleCount() const {
  if (use_index_) return lex_.size();
  size_t n = 0;
  for (const auto& [inst, entry] : entries_) {
    if (!entry.fired) ++n;
  }
  return n;
}

std::vector<ConflictSet::EntryState> ConflictSet::EntriesWithState() const {
  std::vector<std::pair<uint64_t, EntryState>> ordered;
  ordered.reserve(entries_.size());
  for (const auto& [inst, entry] : entries_) {
    ordered.emplace_back(entry.seq, EntryState{inst, entry.fired});
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<EntryState> out;
  out.reserve(ordered.size());
  for (const auto& [seq, state] : ordered) out.push_back(state);
  return out;
}

std::vector<InstantiationRef*> ConflictSet::Entries() const {
  std::vector<std::pair<uint64_t, InstantiationRef*>> ordered;
  ordered.reserve(entries_.size());
  for (const auto& [inst, entry] : entries_) {
    ordered.emplace_back(entry.seq, inst);
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<InstantiationRef*> out;
  out.reserve(ordered.size());
  for (const auto& [seq, inst] : ordered) out.push_back(inst);
  return out;
}

void ConflictSet::Clear() {
  entries_.clear();
  lex_.clear();
  mea_.clear();
}

}  // namespace sorel
