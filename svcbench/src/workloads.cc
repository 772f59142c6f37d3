#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "engine/engine.h"
#include "lang/rule_base.h"

namespace svcbench {

using sorel::Engine;
using sorel::Result;
using sorel::Status;
using sorel::TimeTag;
using sorel::Value;
using sorel::WmePtr;

namespace {

/// splitmix64: a small generator whose sequence is the same on every
/// platform, unlike the std distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) { return lo + Below(hi - lo + 1); }
  bool Percent(int p) { return Below(100) < p; }

 private:
  uint64_t state_;
};

/// An attribute of a generated request: an integer or a symbol. Every
/// engine that replays a session's requests interns their symbols in the
/// same order, so symbol ids agree between the server, the reference
/// engine and the layer passes.
struct Attr {
  const char* name;
  int64_t num = 0;
  const char* sym = nullptr;
};
using Attrs = std::vector<Attr>;

/// Live WMEs of one class by their integer `id` attribute, kept current
/// from the reference engine's change stream: rules modify some of the
/// WMEs clients address, which gives them fresh time tags. Listeners hear
/// of a transaction only at commit, so a client's own modifies inside an
/// open transaction are staged here until then.
class IdIndex : public sorel::WorkingMemory::Listener {
 public:
  IdIndex(Engine& engine, const char* cls) {
    cls_ = engine.symbols().Intern(cls);
    id_field_ = engine.schemas().Find(cls_)->FieldOf(
        engine.symbols().Intern("id"));
    engine.wm().AddListener(this);
  }
  IdIndex(const IdIndex&) = delete;
  IdIndex& operator=(const IdIndex&) = delete;
  void OnAdd(const WmePtr& wme) override {
    if (wme->cls() == cls_) live_[Id(*wme)] = wme;
  }
  void OnRemove(const WmePtr& wme) override {
    if (wme->cls() != cls_) return;
    auto it = live_.find(Id(*wme));
    if (it != live_.end() && it->second->time_tag() == wme->time_tag()) {
      live_.erase(it);
    }
  }
  void OnBatch(const sorel::ChangeBatch& batch) override {
    staged_.clear();
    Listener::OnBatch(batch);
  }
  /// The current tag of WME `id`.
  TimeTag Tag(int64_t id) const {
    auto it = staged_.find(id);
    return it != staged_.end() ? it->second : live_.at(id)->time_tag();
  }
  void Stage(int64_t id, TimeTag tag) { staged_[id] = tag; }
  const std::unordered_map<int64_t, WmePtr>& live() const { return live_; }

 private:
  int64_t Id(const sorel::Wme& wme) const {
    return wme.field(id_field_).as_int();
  }
  sorel::SymbolId cls_;
  int id_field_;
  std::unordered_map<int64_t, WmePtr> live_;
  std::unordered_map<int64_t, TimeTag> staged_;
};

/// The generator's model of one session: a reference engine bound to its
/// own compile of the rules, with the server session's defaults (LEX,
/// threads 0, firing traces on). Each request is applied to it as it is
/// emitted; the first engine error is kept and fails generation.
class SessionModel {
 public:
  SessionModel(sorel::RuleBasePtr base, sorel::MatcherKind matcher,
               std::string name)
      : name_(std::move(name)) {
    sorel::EngineOptions options;
    options.matcher = matcher;
    options.trace_firings = true;
    engine_ = std::make_unique<Engine>(options, std::move(base));
    engine_->set_output(&out_);
    Note(engine_->bind_status());
  }
  SessionModel(const SessionModel&) = delete;
  SessionModel& operator=(const SessionModel&) = delete;

  Engine& engine() { return *engine_; }
  const Status& status() const { return status_; }
  /// Where emitted lines go (a session's setup or the current step).
  void set_sink(Lines* lines) { lines_ = lines; }
  /// Field index of `attr` in class `cls`.
  int Field(const char* cls, const char* attr) {
    return engine_->schemas()
        .Find(engine_->symbols().Intern(cls))
        ->FieldOf(engine_->symbols().Intern(attr));
  }

  TimeTag Make(const char* cls, const Attrs& attrs) {
    std::string line = Head("make") + ",\"cls\":\"" + cls + "\"";
    Emit(line + AttrsJson(attrs) + "}");
    return Tag(engine_->MakeWme(cls, Values(attrs)));
  }
  TimeTag Modify(TimeTag tag, const Attrs& attrs) {
    Emit(Head("modify") + ",\"tag\":" + std::to_string(tag) +
         AttrsJson(attrs) + "}");
    return Tag(engine_->ModifyWme(tag, Values(attrs)));
  }
  void Remove(TimeTag tag) {
    Emit(Head("remove") + ",\"tag\":" + std::to_string(tag) + "}");
    Note(engine_->RemoveWme(tag));
  }
  void Begin() {
    Emit(Head("begin") + "}");
    engine_->wm().Begin();
  }
  void Commit() {
    Emit(Head("commit") + "}");
    Note(engine_->wm().Commit());
  }
  void Run() {
    Emit(Head("run") + "}");
    Note(engine_->Run(-1).status());
    out_.str("");
  }
  /// A read: `wm` or `cs`. It changes nothing.
  void Read(const char* cmd) { Emit(Head(cmd) + "}"); }

 private:
  std::string Head(const char* cmd) const {
    return std::string("{\"cmd\":\"") + cmd + "\",\"session\":\"" + name_ +
           "\"";
  }
  static std::string AttrsJson(const Attrs& attrs) {
    std::string out = ",\"attrs\":{";
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i != 0) out += ",";
      out += std::string("\"") + attrs[i].name + "\":";
      out += attrs[i].sym != nullptr ? "\"" + std::string(attrs[i].sym) + "\""
                                     : std::to_string(attrs[i].num);
    }
    return out + "}";
  }
  std::vector<std::pair<std::string, Value>> Values(const Attrs& attrs) {
    std::vector<std::pair<std::string, Value>> out;
    for (const Attr& a : attrs) {
      out.emplace_back(a.name, a.sym == nullptr ? Value::Int(a.num)
                                                : engine_->Sym(a.sym));
    }
    return out;
  }
  TimeTag Tag(const Result<TimeTag>& tag) {
    Note(tag.status());
    return tag.ok() ? *tag : 0;
  }
  void Note(const Status& status) {
    if (status_.ok() && !status.ok()) {
      status_ = Status::RuntimeError(name_ + ": " + status.ToString());
    }
  }
  void Emit(const std::string& line) { lines_->Add(line); }

  std::string name_;
  std::ostringstream out_;
  std::unique_ptr<Engine> engine_;
  Lines* lines_ = nullptr;
  Status status_;
};

/// Modifies WME `id` of `index`'s class, tracking its fresh tag.
void ModifyById(SessionModel& m, IdIndex& index, int64_t id,
                const Attrs& attrs) {
  index.Stage(id, m.Modify(index.Tag(id), attrs));
}

/// Emits `count` makes in transactions of `chunk`, the way a client bulk
/// loads a session.
void LoadChunked(SessionModel& m, int count, int chunk,
                 const std::function<void(int)>& make_one) {
  for (int i = 0; i < count; i += chunk) {
    m.Begin();
    for (int j = i; j < std::min(count, i + chunk); ++j) make_one(j);
    m.Commit();
  }
}

/// One session's request generator.
class SessionGen {
 public:
  virtual ~SessionGen() = default;
  /// Initial working memory and the first `run`.
  virtual void Setup(SessionModel& m, Rng& rng) = 0;
  /// One step: begin, mutations, commit, run (and maybe a read).
  virtual void Step(SessionModel& m, Rng& rng) = 0;
  /// Workload invariants, checked after every step's `run` (`final` after
  /// the last one).
  virtual Status Check(SessionModel& m, bool final) = 0;
};

constexpr int kLoadChunk = 500;

// --- orders_churn ----------------------------------------------------------

constexpr const char* kOrdersRules = R"(
(literalize warehouse id region)
(literalize customer id region tier)
(literalize stock sku wh)
(literalize order id cust sku qty status)
(literalize shipment order sku wh state)

; An open order ships from a warehouse in its customer's region that stocks
; its sku; the negated CE keeps it to one shipment per order.
(p allocate
   (order ^id <o> ^cust <c> ^sku <s> ^status open)
   (customer ^id <c> ^region <r>)
   (stock ^sku <s> ^wh <w>)
   (warehouse ^id <w> ^region <r>)
   - (shipment ^order <o>)
   -->
   (make shipment ^order <o> ^sku <s> ^wh <w> ^state pending))

; Gold customers' pending shipments go express.
(p expedite
   { (shipment ^order <o> ^state pending) <S> }
   (order ^id <o> ^cust <c>)
   (customer ^id <c> ^tier gold)
   -->
   (modify <S> ^state express))

; A shipment whose order is gone, retired, or now wants another sku is
; withdrawn (allocate may then ship the new sku).
(p withdraw
   { (shipment ^order <o> ^sku <s>) <S> }
   - (order ^id <o> ^sku <s> ^status open)
   -->
   (remove <S>))
)";

/// One session holding tens of thousands of WMEs. Each step adds new
/// orders, modifies open ones, retires the oldest open orders and removes
/// the oldest retired ones, so the order count never changes and the
/// shipment count stays level. Every `kBulkEvery`-th step is a bulk step
/// of `kBulkFactor` times the mutations: those steps set the p99, which
/// then measures bulk-step work rather than the host's scheduling
/// hiccups.
class OrdersGen : public SessionGen {
 public:
  explicit OrdersGen(bool smoke)
      : customers_(smoke ? 100 : 8000),
        skus_(smoke ? 40 : 3000),
        open_(smoke ? 300 : 1500),
        retired_(smoke ? 60 : 300) {}

  void Setup(SessionModel& m, Rng& rng) override {
    LoadChunked(m, kWarehouses, kLoadChunk, [&](int w) {
      m.Make("warehouse", {{"id", w}, {"region", w % kRegions}});
    });
    LoadChunked(m, customers_, kLoadChunk, [&](int c) {
      m.Make("customer",
             {{"id", c},
              {"region", rng.Below(kRegions)},
              {"tier", 0, rng.Percent(20) ? "gold" : "basic"}});
    });
    LoadChunked(m, skus_, kLoadChunk, [&](int s) {
      std::set<int64_t> whs;
      while (whs.size() < kStockPerSku) whs.insert(rng.Below(kWarehouses));
      for (int64_t w : whs) m.Make("stock", {{"sku", s}, {"wh", w}});
    });
    LoadChunked(m, open_ + retired_, kLoadChunk, [&](int i) {
      NewOrder(m, rng, i < open_ ? "open" : "retired");
    });
    m.Run();
  }

  void Step(SessionModel& m, Rng& rng) override {
    const int n =
        ++steps_ % kBulkEvery == 0 ? kPerStep * kBulkFactor : kPerStep;
    m.Begin();
    for (int i = 0; i < n; ++i) {
      int64_t id = open_ids_[rng.Below(static_cast<int64_t>(open_ids_.size()))];
      TimeTag& tag = tags_[id];
      tag = rng.Percent(50) ? m.Modify(tag, {{"sku", rng.Below(skus_)}})
                            : m.Modify(tag, {{"qty", rng.Between(1, 20)}});
    }
    for (int i = 0; i < n; ++i) {
      int64_t id = open_ids_.front();
      open_ids_.pop_front();
      tags_[id] = m.Modify(tags_[id], {{"status", 0, "retired"}});
      retired_ids_.push_back(id);
    }
    for (int i = 0; i < n; ++i) {
      int64_t id = retired_ids_.front();
      retired_ids_.pop_front();
      m.Remove(tags_[id]);
      tags_.erase(id);
    }
    for (int i = 0; i < n; ++i) NewOrder(m, rng, "open");
    m.Commit();
    m.Run();
  }

  /// Every open order whose sku is stocked in its customer's region has
  /// exactly one shipment, of that sku; no other order has one.
  Status Check(SessionModel& m, bool final) override {
    if (!final) return Status::Ok();
    Engine& e = m.engine();
    auto sym = [&](const char* s) { return e.symbols().Intern(s); };
    const int o_id = m.Field("order", "id"), o_cust = m.Field("order", "cust"),
              o_sku = m.Field("order", "sku"),
              o_status = m.Field("order", "status");
    const int s_order = m.Field("shipment", "order"),
              s_sku = m.Field("shipment", "sku");
    const int c_id = m.Field("customer", "id"),
              c_region = m.Field("customer", "region");
    const int k_sku = m.Field("stock", "sku"), k_wh = m.Field("stock", "wh");
    std::map<int64_t, int64_t> region_of_customer;
    std::set<std::pair<int64_t, int64_t>> sku_in_region;
    std::map<int64_t, std::vector<int64_t>> shipments;  // order -> skus
    std::vector<WmePtr> orders;
    for (const WmePtr& w : e.wm().Snapshot()) {
      if (w->cls() == sym("customer")) {
        region_of_customer[w->field(c_id).as_int()] =
            w->field(c_region).as_int();
      } else if (w->cls() == sym("stock")) {
        sku_in_region.insert({w->field(k_sku).as_int(),
                              w->field(k_wh).as_int() % kRegions});
      } else if (w->cls() == sym("shipment")) {
        shipments[w->field(s_order).as_int()].push_back(
            w->field(s_sku).as_int());
      } else if (w->cls() == sym("order")) {
        orders.push_back(w);
      }
    }
    size_t shipped = 0;
    for (const WmePtr& o : orders) {
      int64_t id = o->field(o_id).as_int();
      int64_t sku = o->field(o_sku).as_int();
      bool open = o->field(o_status).as_symbol() == sym("open");
      bool allocated =
          open && sku_in_region.count(
                      {sku, region_of_customer.at(o->field(o_cust).as_int())});
      auto it = shipments.find(id);
      size_t n = it == shipments.end() ? 0 : it->second.size();
      if (n != (allocated ? 1u : 0u) || (n == 1 && it->second[0] != sku)) {
        return Status::RuntimeError("orders_churn: order " +
                                    std::to_string(id) + " has " +
                                    std::to_string(n) + " shipments");
      }
      shipped += n;
    }
    size_t total_shipments = 0;
    for (const auto& [order, skus] : shipments) total_shipments += skus.size();
    if (shipped != total_shipments) {
      return Status::RuntimeError("orders_churn: shipment without an order");
    }
    return Status::Ok();
  }

 private:
  static constexpr int kRegions = 8;
  static constexpr int kWarehouses = 32;
  static constexpr size_t kStockPerSku = 4;
  /// New orders, modifies, retires and removes per step, each.
  static constexpr int kPerStep = 6;
  static constexpr int kBulkEvery = 25;
  static constexpr int kBulkFactor = 6;

  void NewOrder(SessionModel& m, Rng& rng, const char* status) {
    int64_t id = next_id_++;
    tags_[id] = m.Make("order", {{"id", id},
                                 {"cust", rng.Below(customers_)},
                                 {"sku", rng.Below(skus_)},
                                 {"qty", rng.Between(1, 20)},
                                 {"status", 0, status}});
    (std::string_view(status) == "open" ? open_ids_ : retired_ids_)
        .push_back(id);
  }

  const int customers_, skus_, open_, retired_;
  int64_t next_id_ = 0;
  int64_t steps_ = 0;
  std::deque<int64_t> open_ids_, retired_ids_;  // oldest first
  std::unordered_map<int64_t, TimeTag> tags_;   // orders are client-owned
};

// --- payroll_soi -----------------------------------------------------------

constexpr const char* kPayrollRules = R"(
(literalize dept id floor ceil cap)
(literalize employee id dept salary)

; A department whose average salary leaves its band, while within its
; head-count cap, is brought back: a raise or a cut applied to the whole
; partition in one firing.
(p rebalance
   (dept ^id <d> ^floor <f> ^ceil <c> ^cap <h>)
   { [employee ^dept <d> ^salary <s>] <Staff> }
   :test ((((avg <s>) < <f>) or ((avg <s>) > <c>)) and
          ((count <Staff>) <= <h>))
   -->
   (if ((avg <s>) < <f>)
       (foreach <Staff> (modify <Staff> ^salary (<s> + 300)))
    else
       (foreach <Staff> (modify <Staff> ^salary (<s> - 300)))))
)";

/// Departments of a fixed head count, each an SOI partition of the
/// set-oriented rule. Steps modify salaries and swap two employees
/// between departments (only modifies, so every partition keeps its
/// size). Every `kSwitchEvery`-th step moves one department's pay band,
/// which fires a raise or a cut over its whole partition and restores its
/// salaries to the band's centre.
class PayrollGen : public SessionGen {
 public:
  explicit PayrollGen(bool smoke)
      : depts_(smoke ? 3 : 6), staff_(smoke ? 40 : 500) {}

  void Setup(SessionModel& m, Rng& rng) override {
    index_ = std::make_unique<IdIndex>(m.engine(), "employee");
    dept_field_ = m.Field("employee", "dept");
    salary_field_ = m.Field("employee", "salary");
    high_.assign(static_cast<size_t>(depts_), false);
    members_.resize(static_cast<size_t>(depts_));
    m.Begin();
    for (int d = 0; d < depts_; ++d) dept_tags_.push_back(MakeDept(m, d));
    m.Commit();
    LoadChunked(m, depts_ * staff_, kLoadChunk, [&](int i) {
      int d = i % depts_;
      members_[static_cast<size_t>(d)].push_back(i);
      m.Make("employee", {{"id", i}, {"dept", d}, {"salary", Salary(d, rng)}});
    });
    m.Run();
  }

  void Step(SessionModel& m, Rng& rng) override {
    m.Begin();
    if (++steps_ % kSwitchEvery == 0) {
      int d = switched_++ % depts_;
      high_[static_cast<size_t>(d)] = !high_[static_cast<size_t>(d)];
      dept_tags_[static_cast<size_t>(d)] =
          m.Modify(dept_tags_[static_cast<size_t>(d)], Band(d));
    } else {
      for (int i = 0; i < kSalaryModifies; ++i) {
        int d = static_cast<int>(rng.Below(depts_));
        int64_t id = Pick(d, rng);
        ModifyById(m, *index_, id, {{"salary", Salary(d, rng)}});
      }
      int a = static_cast<int>(rng.Below(depts_));
      int b = static_cast<int>((a + 1 + rng.Below(depts_ - 1)) % depts_);
      size_t ia = static_cast<size_t>(rng.Below(staff_));
      size_t ib = static_cast<size_t>(rng.Below(staff_));
      int64_t ea = members_[static_cast<size_t>(a)][ia];
      int64_t eb = members_[static_cast<size_t>(b)][ib];
      ModifyById(m, *index_, ea, {{"dept", b}, {"salary", Salary(b, rng)}});
      ModifyById(m, *index_, eb, {{"dept", a}, {"salary", Salary(a, rng)}});
      std::swap(members_[static_cast<size_t>(a)][ia],
                members_[static_cast<size_t>(b)][ib]);
    }
    m.Commit();
    m.Run();
  }

  /// Every department keeps its head count, and its average salary (over
  /// the distinct-value domain, as the S-node aggregates it) is inside its
  /// band after every run.
  Status Check(SessionModel&, bool) override {
    std::vector<size_t> count(static_cast<size_t>(depts_), 0);
    std::vector<std::set<int64_t>> salaries(static_cast<size_t>(depts_));
    for (const auto& [id, wme] : index_->live()) {
      size_t d = static_cast<size_t>(wme->field(dept_field_).as_int());
      ++count[d];
      salaries[d].insert(wme->field(salary_field_).as_int());
    }
    for (int d = 0; d < depts_; ++d) {
      size_t i = static_cast<size_t>(d);
      if (count[i] != static_cast<size_t>(staff_)) {
        return Status::RuntimeError("payroll_soi: dept " + std::to_string(d) +
                                    " has " + std::to_string(count[i]) +
                                    " employees");
      }
      double sum = 0;
      for (int64_t s : salaries[i]) sum += static_cast<double>(s);
      double avg = sum / static_cast<double>(salaries[i].size());
      if (avg < Floor(d) || avg > Floor(d) + kBand) {
        return Status::RuntimeError("payroll_soi: dept " + std::to_string(d) +
                                    " average " + std::to_string(avg) +
                                    " outside its band");
      }
    }
    return Status::Ok();
  }

 private:
  static constexpr int kSwitchEvery = 20;
  static constexpr int kSalaryModifies = 8;
  static constexpr int64_t kLowFloor = 1000;
  /// Band width; salaries sit at floor + 200 +- 100, and a band move shifts
  /// the floor by the rules' 300.
  static constexpr int64_t kBand = 400;

  int64_t Floor(int d) const {
    return kLowFloor + (high_[static_cast<size_t>(d)] ? 300 : 0);
  }
  int64_t Salary(int d, Rng& rng) const {
    return Floor(d) + 200 + rng.Between(-100, 100);
  }
  Attrs Band(int d) const {
    return {{"floor", Floor(d)}, {"ceil", Floor(d) + kBand}};
  }
  TimeTag MakeDept(SessionModel& m, int d) {
    Attrs attrs = Band(d);
    attrs.insert(attrs.begin(), {"id", d});
    attrs.push_back({"cap", staff_ + 50});
    return m.Make("dept", attrs);
  }
  int64_t Pick(int d, Rng& rng) const {
    return members_[static_cast<size_t>(d)][static_cast<size_t>(
        rng.Below(staff_))];
  }

  const int depts_, staff_;
  std::unique_ptr<IdIndex> index_;
  int dept_field_ = 0, salary_field_ = 0;
  std::vector<bool> high_;
  std::vector<TimeTag> dept_tags_;           // rules never modify depts
  std::vector<std::vector<int64_t>> members_;  // employee ids per dept
  std::unordered_map<int64_t, TimeTag> staged_;
  int64_t steps_ = 0;
  int switched_ = 0;
};

// --- tenants_mix -----------------------------------------------------------

constexpr const char* kTenantsRules = R"(
(literalize team id oncall)
(literalize user id team)
(literalize ticket id user prio state)
(literalize assignment ticket agent level)

; A new ticket is assigned to its user's team's on-call agent.
(p assign
   { (ticket ^id <t> ^user <u> ^state new) <T> }
   (user ^id <u> ^team <m>)
   (team ^id <m> ^oncall <a>)
   -->
   (modify <T> ^state open)
   (make assignment ^ticket <t> ^agent <a> ^level 1))

(p escalate
   (ticket ^id <t> ^prio high ^state open)
   { (assignment ^ticket <t> ^level 1) <A> }
   -->
   (modify <A> ^level 2))

(p release
   (ticket ^id <t> ^state closed)
   { (assignment ^ticket <t>) <A> }
   -->
   (remove <A>))
)";

/// A small help-desk tenant. Each step opens tickets, re-prioritises some,
/// closes the oldest open ones and deletes the oldest closed ones, so the
/// ticket and assignment counts never change; every `kReadEvery`-th step
/// of a session also reads `wm` or `cs`.
class TenantGen : public SessionGen {
 public:
  explicit TenantGen(bool smoke) : open_(smoke ? 20 : 60) {}

  void Setup(SessionModel& m, Rng& rng) override {
    index_ = std::make_unique<IdIndex>(m.engine(), "ticket");
    m.Begin();
    for (int t = 0; t < kTeams; ++t) {
      m.Make("team", {{"id", t}, {"oncall", 100 + t}});
    }
    for (int u = 0; u < kUsers; ++u) {
      m.Make("user", {{"id", u}, {"team", rng.Below(kTeams)}});
    }
    for (int i = 0; i < open_; ++i) NewTicket(m, rng, "new");
    for (int i = 0; i < kPerStep; ++i) NewTicket(m, rng, "closed");
    m.Commit();
    m.Run();
  }

  void Step(SessionModel& m, Rng& rng) override {
    m.Begin();
    for (int i = 0; i < kModifies; ++i) {
      int64_t id = open_ids_[static_cast<size_t>(
          rng.Below(static_cast<int64_t>(open_ids_.size())))];
      ModifyById(m, *index_, id, {{"prio", 0, Prio(rng)}});
    }
    for (int i = 0; i < kPerStep; ++i) {
      m.Remove(index_->Tag(closed_ids_.front()));
      closed_ids_.pop_front();
    }
    for (int i = 0; i < kPerStep; ++i) {
      int64_t id = open_ids_.front();
      open_ids_.pop_front();
      ModifyById(m, *index_, id, {{"state", 0, "closed"}});
      closed_ids_.push_back(id);
    }
    for (int i = 0; i < kPerStep; ++i) NewTicket(m, rng, "new");
    m.Commit();
    m.Run();
    if (++steps_ % kReadEvery == 0) {
      m.Read(steps_ % (2 * kReadEvery) == 0 ? "wm" : "cs");
    }
  }

  /// Every open ticket has exactly one assignment; closed ones have none.
  Status Check(SessionModel& m, bool final) override {
    if (!final) return Status::Ok();
    Engine& e = m.engine();
    const int a_ticket = m.Field("assignment", "ticket");
    const sorel::SymbolId assignment = e.symbols().Intern("assignment");
    std::map<int64_t, int> assigned;
    size_t total = 0;
    for (const WmePtr& w : e.wm().Snapshot()) {
      if (w->cls() != assignment) continue;
      ++assigned[w->field(a_ticket).as_int()];
      ++total;
    }
    for (int64_t id : open_ids_) {
      if (assigned[id] != 1) {
        return Status::RuntimeError("tenants_mix: ticket " +
                                    std::to_string(id) + " has " +
                                    std::to_string(assigned[id]) +
                                    " assignments");
      }
    }
    if (total != open_ids_.size()) {
      return Status::RuntimeError("tenants_mix: assignment of a closed ticket");
    }
    return Status::Ok();
  }

 private:
  static constexpr int kTeams = 4;
  static constexpr int kUsers = 40;
  /// Tickets opened, closed and deleted per step, each.
  static constexpr int kPerStep = 3;
  static constexpr int kModifies = 2;
  static constexpr int kReadEvery = 4;

  static const char* Prio(Rng& rng) { return rng.Percent(30) ? "high" : "low"; }

  void NewTicket(SessionModel& m, Rng& rng, const char* state) {
    int64_t id = next_id_++;
    m.Make("ticket", {{"id", id},
                      {"user", rng.Below(kUsers)},
                      {"prio", 0, Prio(rng)},
                      {"state", 0, state}});
    (std::string_view(state) == "new" ? open_ids_ : closed_ids_).push_back(id);
  }

  const int open_;
  std::unique_ptr<IdIndex> index_;
  int64_t next_id_ = 0;
  int64_t steps_ = 0;
  std::deque<int64_t> open_ids_, closed_ids_;  // oldest first
};

// --- registry ----------------------------------------------------------------

struct WorkloadDef {
  std::string name;
  const char* rules;
  int clients;
  /// One protocol matcher name per session.
  std::vector<std::string> matchers;
  /// Nominal steps per second of all clients together; with `--seconds`
  /// it fixes the step count, so a run's work does not depend on speed.
  double steps_per_second;
  /// Allowed |live_end - live_start| / live_start over a run.
  double live_drift;
  std::function<std::unique_ptr<SessionGen>(bool smoke)> make;
};

std::vector<WorkloadDef> Definitions() {
  std::vector<std::string> tenants;
  for (int i = 0; i < 24; ++i) {
    tenants.push_back(i % 3 == 0 ? "rete" : i % 3 == 1 ? "plan" : "treat");
  }
  return {
      {"orders_churn", kOrdersRules, 1, {"rete"}, 560, 0.02,
       [](bool smoke) { return std::make_unique<OrdersGen>(smoke); }},
      {"payroll_soi", kPayrollRules, 1, {"rete"}, 850, 0.0,
       [](bool smoke) { return std::make_unique<PayrollGen>(smoke); }},
      {"tenants_mix", kTenantsRules, 2, tenants, 9000, 0.0,
       [](bool smoke) { return std::make_unique<TenantGen>(smoke); }},
  };
}

Result<sorel::MatcherKind> MatcherOf(const std::string& name) {
  if (name == "rete") return sorel::MatcherKind::kRete;
  if (name == "plan") return sorel::MatcherKind::kPlan;
  if (name == "treat") return sorel::MatcherKind::kTreat;
  return Status::InvalidArgument("unknown matcher " + name);
}

}  // namespace

size_t Stream::steps() const {
  size_t n = 0;
  for (const auto& client : clients) n += client.size();
  return n;
}

size_t Stream::step_requests() const {
  size_t n = 0;
  for (const auto& client : clients) {
    for (const Step& step : client) n += step.lines.size();
  }
  return n;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadDef& def : Definitions()) out.push_back(def.name);
    return out;
  }();
  return names;
}

Result<Stream> Generate(const StreamConfig& config) {
  std::vector<WorkloadDef> defs = Definitions();
  auto def = std::find_if(defs.begin(), defs.end(), [&](const WorkloadDef& d) {
    return d.name == config.workload;
  });
  if (def == defs.end()) {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "'");
  }
  Stream stream;
  stream.workload = def->name;
  stream.rules = def->rules;
  SOREL_ASSIGN_OR_RETURN(sorel::RuleBasePtr base,
                         sorel::CompiledRuleBase::Compile(stream.rules));

  const size_t n = def->matchers.size();
  // Generators hold listeners registered with the models' engines, so the
  // models (declared last) are destroyed first.
  std::vector<std::unique_ptr<SessionGen>> gens;
  std::vector<std::unique_ptr<SessionModel>> models;
  std::vector<Rng> rngs;
  for (size_t i = 0; i < n; ++i) {
    SessionStream s;
    char name[32];
    std::snprintf(name, sizeof(name), "%s-%02zu", def->name.c_str(), i);
    s.name = name;
    s.matcher = def->matchers[i];
    s.open = "{\"cmd\":\"open\",\"session\":\"" + s.name +
             "\",\"matcher\":\"" + s.matcher + "\"}";
    SOREL_ASSIGN_OR_RETURN(s.kind, MatcherOf(s.matcher));
    models.push_back(std::make_unique<SessionModel>(base, s.kind, s.name));
    gens.push_back(def->make(config.smoke));
    rngs.emplace_back(config.seed * 0x100000001b3ULL + i);
    stream.sessions.push_back(std::move(s));
  }
  for (size_t i = 0; i < n; ++i) {
    models[i]->set_sink(&stream.sessions[i].setup);
    gens[i]->Setup(*models[i], rngs[i]);
    SOREL_RETURN_IF_ERROR(models[i]->status());
    SOREL_RETURN_IF_ERROR(gens[i]->Check(*models[i], false));
    stream.sessions[i].live_start = models[i]->engine().wm().size();
  }

  const int clients = def->clients;
  const size_t per_client =
      config.smoke ? 30
                   : static_cast<size_t>(std::llround(
                         config.seconds * def->steps_per_second / clients));
  stream.clients.resize(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    std::vector<int> owned;  // client c owns sessions c, c + clients, ...
    for (size_t i = static_cast<size_t>(c); i < n; i += clients) {
      owned.push_back(static_cast<int>(i));
      stream.sessions[i].client = c;
    }
    std::vector<Step>& steps = stream.clients[static_cast<size_t>(c)];
    steps.resize(per_client);
    for (size_t k = 0; k < per_client; ++k) {
      Step& step = steps[k];
      step.session = owned[k % owned.size()];
      size_t i = static_cast<size_t>(step.session);
      models[i]->set_sink(&step.lines);
      gens[i]->Step(*models[i], rngs[i]);
      step.lines.Seal();
      SOREL_RETURN_IF_ERROR(models[i]->status());
      SOREL_RETURN_IF_ERROR(gens[i]->Check(*models[i], false));
    }
  }

  for (size_t i = 0; i < n; ++i) {
    SessionStream& s = stream.sessions[i];
    Engine& engine = models[i]->engine();
    SOREL_RETURN_IF_ERROR(gens[i]->Check(*models[i], true));
    std::ostringstream dump;
    engine.DumpWm(dump);
    s.final_dump = dump.str();
    s.final_next_tag = engine.wm().next_time_tag();
    s.live_end = engine.wm().size();
    double drift = std::fabs(static_cast<double>(s.live_end) -
                             static_cast<double>(s.live_start)) /
                   static_cast<double>(s.live_start);
    if (drift > def->live_drift) {
      return Status::RuntimeError(
          "stationarity: " + s.name + " working memory went from " +
          std::to_string(s.live_start) + " to " + std::to_string(s.live_end) +
          " WMEs");
    }
  }
  return stream;
}

}  // namespace svcbench
