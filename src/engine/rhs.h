#ifndef SOREL_ENGINE_RHS_H_
#define SOREL_ENGINE_RHS_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "base/status.h"
#include "base/symbol_table.h"
#include "lang/compiled_rule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rete/instantiation.h"
#include "wm/working_memory.h"

namespace sorel {

class ThreadPool;

/// Executes the RHS of a firing instantiation (§6): regular actions,
/// set-oriented `set-modify`/`set-remove`, and the compositional `foreach`
/// iterator over set-oriented PVs and CEs, including nested iteration,
/// `bind` locals, and `if`/`else`.
///
/// The rows are a snapshot taken at selection time, so actions that change
/// the instantiation's own support (e.g. SwitchTeams' set-modify) are
/// well-defined.
///
/// Each firing runs inside a WM transaction, with every WM-mutating action
/// in a nested sub-transaction: an action that errors on its k-th member
/// leaves no partial effect, the whole firing's changes reach the matchers
/// as one ChangeBatch at commit, and an error rolls the entire firing back
/// — §8.1's all-or-nothing transaction semantics.
class RhsExecutor {
 public:
  struct FireResult {
    bool halted = false;
    uint64_t actions = 0;  // primitive actions executed in this firing
  };

  struct Stats {
    uint64_t firings = 0;
    uint64_t actions = 0;
    uint64_t wmes_made = 0;
    uint64_t wmes_removed = 0;
    uint64_t skipped_dead_targets = 0;  // modify/remove of dead WMEs
    /// Set-modify / foreach actions whose member expressions were evaluated
    /// on the worker pool (parallel RHS), and the member tasks dispatched.
    uint64_t parallel_forks = 0;
    uint64_t parallel_member_tasks = 0;
  };

  /// `metrics` / `tracer` (borrowed, may be null) hook the executor into
  /// the observability layer: rhs.* counters register as registry views and
  /// each successful firing emits an rhs_apply event.
  RhsExecutor(WorkingMemory* wm, SymbolTable* symbols, std::ostream* out,
              obs::MetricRegistry* metrics = nullptr,
              obs::Tracer* tracer = nullptr);
  ~RhsExecutor();

  RhsExecutor(const RhsExecutor&) = delete;
  RhsExecutor& operator=(const RhsExecutor&) = delete;

  /// Runs `rule`'s actions over the snapshot `rows` (ordered as in the
  /// conflict set: most recent first).
  Result<FireResult> Fire(const CompiledRule& rule, std::vector<Row> rows);

  /// Runs a free-standing action list (startup forms, shell commands) with
  /// no matched rows. `context` supplies the (usually empty) variable
  /// table.
  Result<FireResult> ExecuteStandalone(const CompiledRule& context,
                                       const std::vector<ActionPtr>& actions);

  void set_output(std::ostream* out) { out_ = out; }
  /// Parallel RHS (EngineOptions::parallel_rhs): with a pool and the flag
  /// on, the per-member expression evaluations of a set-modify (and of a
  /// foreach whose body is only make/modify/remove) fork onto the pool;
  /// the members' WM effects then apply serially in member order with the
  /// sequential path's exact transaction bracketing, so WM contents,
  /// Status, and counters other than the parallel_* stats are unchanged.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  void set_parallel(bool on) { parallel_ = on; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  class ExecState;
  class RhsEvalContext;
  /// Pre-evaluated effects of one body action for one member (parallel
  /// RHS): the resolved target, the evaluated values, and the first error
  /// each evaluation stage hit, recorded separately so the serial apply
  /// loop can reproduce the sequential check order (target resolution →
  /// liveness → expression/attribute errors) exactly.
  struct ActionEval;

  /// True when `members` member evaluations should fork onto the pool.
  bool ShouldParallelize(size_t members) const {
    return parallel_ && pool_ != nullptr && members >= 2;
  }
  /// True when every action in `body` is make/modify/remove — the forms
  /// whose evaluation reads only the frozen row snapshot, making member
  /// evaluations independent.
  static bool BodyIsParallelizable(const std::vector<ActionPtr>& body);

  Status ExecuteList(const std::vector<ActionPtr>& actions, ExecState* state);
  Status Execute(const Action& action, ExecState* state);
  /// Runs `body` inside a (possibly nested) WM transaction; rolls back on
  /// error.
  Status RunInTransaction(const std::function<Status()>& body);
  Status DoMake(const Action& action, ExecState* state);
  Status DoModifyOrRemove(const Action& action, ExecState* state);
  Status DoSetModifyOrRemove(const Action& action, ExecState* state);
  Status DoWrite(const Action& action, ExecState* state);
  Status DoForeach(const Action& action, ExecState* state);
  /// Parallel member evaluation for a set-modify over `targets` (runs
  /// inside the action's transaction; the serial apply mirrors the
  /// sequential loop).
  Status DoSetModifyParallel(const Action& action, ExecState* state,
                             const std::vector<WmePtr>& targets);
  /// Parallel member evaluation for an eligible foreach: `subs` holds the
  /// per-member sub-selections in iteration order.
  Status ForeachMembersParallel(const Action& action, ExecState* state,
                                const std::vector<std::vector<size_t>>& subs);
  /// Evaluates one make/modify/remove for one member's sub-selection — the
  /// pure half of the action, safe to run on a pool worker.
  void EvaluateBodyAction(const Action& action, const ExecState& state,
                          const std::vector<size_t>& selection,
                          ActionEval* out) const;
  /// Evaluates a modify's assigns against `out->target`'s snapshot with the
  /// sequential per-assign expression → attribute-lookup order.
  void EvaluateModifyAssigns(const Action& action, const ExecState& state,
                             const std::vector<size_t>& selection,
                             ActionEval* out) const;
  /// Applies one pre-evaluated body action (the WM-mutating half), with
  /// the same transaction bracketing, stats, and error order as Execute.
  Status ApplyBodyAction(const Action& action, const ActionEval& eval);
  /// remove+make with updated fields (OPS5 modify: fresh time tag).
  Status ModifyWme(const Wme& old, const Action& action, ExecState* state);
  Status RemoveIfLive(TimeTag tag);

  WorkingMemory* wm_;
  SymbolTable* symbols_;
  std::ostream* out_;
  ThreadPool* pool_ = nullptr;  // borrowed; may be null
  bool parallel_ = false;
  obs::MetricRegistry* metrics_ = nullptr;  // borrowed; may be null
  obs::Tracer* tracer_ = nullptr;           // borrowed; may be null
  Stats stats_;
  // Write-action spacing persists across firings: a space precedes each
  // value unless at the start of an output line (after crlf).
  bool at_line_start_ = true;
};

}  // namespace sorel

#endif  // SOREL_ENGINE_RHS_H_
