#include "lang/parser.h"

#include <optional>
#include <utility>
#include <vector>

#include "lang/lexer.h"

namespace sorel {

namespace {

// The parser builds values before symbol interning happens (interning needs
// the engine's SymbolTable), so constants are carried as "pre-values": the
// compiler interns symbol texts later. To keep the AST simple we intern
// symbol constants into a parse-local table and re-intern in the compiler.
// Instead, we store symbol constants as Value::Symbol over a *string pool*
// owned by the ProgramAst... To avoid that machinery the parser receives a
// SymbolTable-free design: symbol constants are kept in `TestTerm::var`-like
// string form. Simpler: the Lexer gives us text; we encode symbol constants
// as Value only at compile time. The AST therefore stores constants of
// symbol kind using a sidecar string in TestTerm / Expr.
//
// Implementation choice: we give the parser its own little trick — symbol
// constants are represented as Expr/TestTerm with `kind kConst` and the
// *text* stashed in the `var` field with `constant == Value::Nil()`, except
// for numbers which are real Values. A cleaner representation would thread
// the SymbolTable into the parser; the compiler handles both cases via
// `ResolveConst`.
//
// To keep that contract in one place:
Value NumberValue(const Tok& t) {
  return t.kind == TokKind::kInt ? Value::Int(t.int_value)
                                 : Value::Float(t.float_value);
}

class Parser {
 public:
  explicit Parser(std::vector<Tok> toks) : toks_(std::move(toks)) {}

  Result<ProgramAst> Run() {
    ProgramAst program;
    while (!Check(TokKind::kEnd)) {
      SOREL_RETURN_IF_ERROR(Expect(TokKind::kLParen, "top-level form"));
      const Tok& head = PeekTok();
      if (head.kind != TokKind::kSymbol) {
        return Error(head, "expected 'literalize' or 'p'");
      }
      if (head.text == "literalize") {
        Advance();
        SOREL_RETURN_IF_ERROR(ParseLiteralize(&program));
      } else if (head.text == "p") {
        Advance();
        RuleAst rule;
        SOREL_RETURN_IF_ERROR(ParseRule(&rule));
        program.rules.push_back(std::move(rule));
      } else if (head.text == "startup") {
        Advance();
        while (!Check(TokKind::kRParen)) {
          if (Check(TokKind::kEnd)) return Error(head, "unclosed startup");
          SOREL_RETURN_IF_ERROR(ParseAction(&program.startup));
        }
        Advance();  // ')'
      } else {
        return Error(head, "unknown top-level form '" + head.text + "'");
      }
    }
    return program;
  }

 private:
  // ---- token plumbing ----
  const Tok& PeekTok(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool Check(TokKind k) const { return PeekTok().kind == k; }
  bool CheckSymbol(std::string_view text) const {
    return Check(TokKind::kSymbol) && PeekTok().text == text;
  }
  const Tok& Advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  Status Expect(TokKind k, std::string_view what) {
    if (!Check(k)) {
      return Error(PeekTok(), "expected " + std::string(what));
    }
    Advance();
    return Status::Ok();
  }
  static Status Error(const Tok& tok, std::string msg) {
    return Status::ParseError("line " + std::to_string(tok.loc.line) + ":" +
                              std::to_string(tok.loc.column) + ": " +
                              std::move(msg));
  }

  // ---- forms ----
  Status ParseLiteralize(ProgramAst* program) {
    LiteralizeAst lit;
    lit.loc = PeekTok().loc;
    if (!Check(TokKind::kSymbol)) {
      return Error(PeekTok(), "expected class name after literalize");
    }
    lit.cls = Advance().text;
    while (Check(TokKind::kSymbol)) lit.attrs.push_back(Advance().text);
    SOREL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')' after literalize"));
    program->literalizes.push_back(std::move(lit));
    return Status::Ok();
  }

  Status ParseRule(RuleAst* rule) {
    rule->loc = PeekTok().loc;
    if (!Check(TokKind::kSymbol)) {
      return Error(PeekTok(), "expected rule name after 'p'");
    }
    rule->name = Advance().text;
    // Condition elements and clauses until '-->'.
    while (!Check(TokKind::kArrow)) {
      if (Check(TokKind::kEnd)) return Error(PeekTok(), "missing '-->'");
      if (CheckSymbol(":scalar")) {
        Advance();
        SOREL_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'(' after :scalar"));
        while (Check(TokKind::kVariable)) {
          rule->scalar_vars.push_back(Advance().text);
        }
        SOREL_RETURN_IF_ERROR(
            Expect(TokKind::kRParen, "')' closing :scalar list"));
        continue;
      }
      if (CheckSymbol(":test")) {
        Advance();
        ExprPtr test;
        SOREL_RETURN_IF_ERROR(ParseExprTerm(&test));
        if (rule->test == nullptr) {
          rule->test = std::move(test);
        } else {
          SourceLoc loc = rule->test->loc;
          rule->test = Expr::Binary(BinOp::kAnd, std::move(rule->test),
                                    std::move(test), loc);
        }
        continue;
      }
      ConditionAst ce;
      SOREL_RETURN_IF_ERROR(ParseCondition(&ce));
      rule->conditions.push_back(std::move(ce));
    }
    Advance();  // -->
    while (!Check(TokKind::kRParen)) {
      if (Check(TokKind::kEnd)) return Error(PeekTok(), "missing ')'");
      SOREL_RETURN_IF_ERROR(ParseAction(&rule->actions));
    }
    Advance();  // ')'
    return Status::Ok();
  }

  // ---- condition elements ----
  Status ParseCondition(ConditionAst* ce) {
    ce->loc = PeekTok().loc;
    if (CheckSymbol("-")) {
      Advance();
      ce->negated = true;
    }
    if (Check(TokKind::kLBrace)) {
      // { ce <var> }  or  { <var> ce }
      Advance();
      if (Check(TokKind::kVariable)) {
        ce->elem_var = Advance().text;
        SOREL_RETURN_IF_ERROR(ParseBareCondition(ce));
      } else {
        SOREL_RETURN_IF_ERROR(ParseBareCondition(ce));
        if (!Check(TokKind::kVariable)) {
          return Error(PeekTok(), "expected element variable inside { ... }");
        }
        ce->elem_var = Advance().text;
      }
      return Expect(TokKind::kRBrace, "'}' closing element-variable CE");
    }
    return ParseBareCondition(ce);
  }

  Status ParseBareCondition(ConditionAst* ce) {
    TokKind close;
    if (Check(TokKind::kLParen)) {
      close = TokKind::kRParen;
    } else if (Check(TokKind::kLBracket)) {
      ce->set_oriented = true;
      close = TokKind::kRBracket;
    } else {
      return Error(PeekTok(), "expected '(' or '[' starting condition");
    }
    Advance();
    if (!Check(TokKind::kSymbol)) {
      return Error(PeekTok(), "expected class name in condition");
    }
    ce->cls = Advance().text;
    while (!Check(close)) {
      if (Check(TokKind::kEnd)) return Error(PeekTok(), "unclosed condition");
      AttrTest at;
      at.loc = PeekTok().loc;
      if (!Check(TokKind::kAttr)) {
        return Error(PeekTok(), "expected ^attribute in condition");
      }
      at.attr = Advance().text;
      SOREL_RETURN_IF_ERROR(ParseValueSpec(&at));
      ce->attrs.push_back(std::move(at));
    }
    Advance();  // close
    return Status::Ok();
  }

  // Parses the test(s) following one ^attr.
  Status ParseValueSpec(AttrTest* at) {
    if (Check(TokKind::kDLAngle)) {
      Advance();
      at->kind = AttrTest::Kind::kDisjunction;
      while (!Check(TokKind::kDRAngle)) {
        if (Check(TokKind::kEnd)) {
          return Error(PeekTok(), "unterminated '<<' disjunction");
        }
        const Tok& t = PeekTok();
        std::optional<std::pair<TestPred, TestTerm>> atom;
        SOREL_RETURN_IF_ERROR(ParseTermAtom(&atom));
        if (!atom || atom->first != TestPred::kEq ||
            atom->second.kind != TestTerm::Kind::kConst) {
          return Error(t, "only constants allowed inside '<< ... >>'");
        }
        at->disjunction.push_back(atom->second.constant);
        // Symbol constants keep their text in `var` (see ResolveConst note):
        if (!atom->second.var.empty()) {
          at->disjunction_texts.push_back(atom->second.var);
        } else {
          at->disjunction_texts.emplace_back();
        }
      }
      Advance();  // >>
      return Status::Ok();
    }
    at->kind = AttrTest::Kind::kAtoms;
    if (Check(TokKind::kLBrace)) {
      Advance();
      while (!Check(TokKind::kRBrace)) {
        if (Check(TokKind::kEnd)) {
          return Error(PeekTok(), "unterminated '{' conjunction");
        }
        std::optional<std::pair<TestPred, TestTerm>> atom;
        SOREL_RETURN_IF_ERROR(ParseTermAtom(&atom));
        if (!atom) return Error(PeekTok(), "expected test inside '{ ... }'");
        at->atoms.push_back(std::move(*atom));
      }
      Advance();  // }
      return Status::Ok();
    }
    std::optional<std::pair<TestPred, TestTerm>> atom;
    SOREL_RETURN_IF_ERROR(ParseTermAtom(&atom));
    if (!atom) return Error(PeekTok(), "expected value test after ^attr");
    at->atoms.push_back(std::move(*atom));
    return Status::Ok();
  }

  // Parses one `[pred] term`. Yields nullopt if the current token cannot
  // start an atom (caller decides whether that is an error).
  Status ParseTermAtom(std::optional<std::pair<TestPred, TestTerm>>* out) {
    TestPred pred = TestPred::kEq;
    switch (PeekTok().kind) {
      case TokKind::kEq:
        pred = TestPred::kEq;
        Advance();
        break;
      case TokKind::kNe:
        pred = TestPred::kNe;
        Advance();
        break;
      case TokKind::kLt:
        pred = TestPred::kLt;
        Advance();
        break;
      case TokKind::kLe:
        pred = TestPred::kLe;
        Advance();
        break;
      case TokKind::kGt:
        pred = TestPred::kGt;
        Advance();
        break;
      case TokKind::kGe:
        pred = TestPred::kGe;
        Advance();
        break;
      default:
        break;
    }
    TestTerm term;
    const Tok& t = PeekTok();
    switch (t.kind) {
      case TokKind::kInt:
      case TokKind::kFloat:
        term.kind = TestTerm::Kind::kConst;
        term.constant = NumberValue(t);
        Advance();
        break;
      case TokKind::kSymbol:
        term.kind = TestTerm::Kind::kConst;
        term.constant = Value::Nil();  // symbol text resolved by compiler
        term.var = t.text;             // stashed text (see ResolveConst)
        Advance();
        break;
      case TokKind::kVariable:
        term.kind = TestTerm::Kind::kVar;
        term.var = t.text;
        Advance();
        break;
      default:
        out->reset();
        return Status::Ok();
    }
    *out = std::make_pair(pred, std::move(term));
    return Status::Ok();
  }

  // ---- actions ----
  Status ParseAction(std::vector<ActionPtr>* out) {
    if (depth_ >= kMaxDepth) return Error(PeekTok(), "actions nested too deeply");
    Nesting nesting(&depth_);
    SOREL_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'(' starting action"));
    const Tok& head = PeekTok();
    if (head.kind != TokKind::kSymbol) {
      return Error(head, "expected action name");
    }
    std::string name = head.text;
    SourceLoc loc = head.loc;
    Advance();
    auto action = std::make_unique<Action>();
    action->loc = loc;
    if (name == "make") {
      action->kind = Action::Kind::kMake;
      if (!Check(TokKind::kSymbol)) {
        return Error(PeekTok(), "expected class name in make");
      }
      action->cls = Advance().text;
      SOREL_RETURN_IF_ERROR(ParseAssignments(action.get()));
    } else if (name == "modify" || name == "set-modify") {
      action->kind = name == "modify" ? Action::Kind::kModify
                                      : Action::Kind::kSetModify;
      if (!Check(TokKind::kVariable)) {
        return Error(PeekTok(), "expected element variable in " + name);
      }
      action->var = Advance().text;
      SOREL_RETURN_IF_ERROR(ParseAssignments(action.get()));
    } else if (name == "remove" || name == "set-remove") {
      // (remove <e1> <e2> 3) expands to one action per target.
      Action::Kind kind = name == "remove" ? Action::Kind::kRemove
                                           : Action::Kind::kSetRemove;
      bool any = false;
      while (!Check(TokKind::kRParen)) {
        auto one = std::make_unique<Action>();
        one->kind = kind;
        one->loc = loc;
        if (Check(TokKind::kVariable)) {
          one->var = Advance().text;
        } else if (Check(TokKind::kInt) && kind == Action::Kind::kRemove) {
          one->remove_ordinal = static_cast<int>(Advance().int_value);
        } else {
          return Error(PeekTok(), "expected element variable in " + name);
        }
        out->push_back(std::move(one));
        any = true;
      }
      if (!any) return Error(PeekTok(), name + " needs a target");
      return Expect(TokKind::kRParen, "')' closing action");
    } else if (name == "write") {
      action->kind = Action::Kind::kWrite;
      while (!Check(TokKind::kRParen)) {
        if (Check(TokKind::kEnd)) return Error(PeekTok(), "unclosed write");
        ExprPtr arg;
        SOREL_RETURN_IF_ERROR(ParseExprTerm(&arg));
        action->write_args.push_back(std::move(arg));
      }
    } else if (name == "bind") {
      action->kind = Action::Kind::kBind;
      if (!Check(TokKind::kVariable)) {
        return Error(PeekTok(), "expected variable in bind");
      }
      action->var = Advance().text;
      SOREL_RETURN_IF_ERROR(ParseExprTerm(&action->expr));
    } else if (name == "foreach") {
      action->kind = Action::Kind::kForeach;
      if (!Check(TokKind::kVariable)) {
        return Error(PeekTok(), "expected iterator variable in foreach");
      }
      action->var = Advance().text;
      if (CheckSymbol("ascending")) {
        Advance();
        action->order = Action::Order::kAscending;
      } else if (CheckSymbol("descending")) {
        Advance();
        action->order = Action::Order::kDescending;
      }
      while (!Check(TokKind::kRParen)) {
        if (Check(TokKind::kEnd)) return Error(PeekTok(), "unclosed foreach");
        SOREL_RETURN_IF_ERROR(ParseAction(&action->body));
      }
    } else if (name == "if") {
      action->kind = Action::Kind::kIf;
      SOREL_RETURN_IF_ERROR(ParseExprTerm(&action->expr));
      bool in_else = false;
      while (!Check(TokKind::kRParen)) {
        if (Check(TokKind::kEnd)) return Error(PeekTok(), "unclosed if");
        if (CheckSymbol("else")) {
          if (in_else) return Error(PeekTok(), "duplicate else");
          Advance();
          in_else = true;
          continue;
        }
        SOREL_RETURN_IF_ERROR(
            ParseAction(in_else ? &action->else_body : &action->body));
      }
    } else if (name == "halt") {
      action->kind = Action::Kind::kHalt;
    } else {
      return Error(head, "unknown action '" + name + "'");
    }
    SOREL_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')' closing action"));
    out->push_back(std::move(action));
    return Status::Ok();
  }

  Status ParseAssignments(Action* action) {
    while (!Check(TokKind::kRParen)) {
      if (!Check(TokKind::kAttr)) {
        return Error(PeekTok(), "expected ^attribute in action");
      }
      std::string attr = Advance().text;
      ExprPtr value;
      SOREL_RETURN_IF_ERROR(ParseExprTerm(&value));
      action->assigns.emplace_back(std::move(attr), std::move(value));
    }
    return Status::Ok();
  }

  // ---- expressions ----
  // A "term": constant, variable, or parenthesized expression / aggregate /
  // (crlf) / (compute ...) / (not ...).
  Status ParseExprTerm(ExprPtr* out) {
    const Tok& t = PeekTok();
    switch (t.kind) {
      case TokKind::kInt:
      case TokKind::kFloat: {
        *out = Expr::Const(NumberValue(t), t.loc);
        Advance();
        return Status::Ok();
      }
      case TokKind::kSymbol: {
        // Symbol constant; text resolved by the compiler.
        auto e = Expr::Const(Value::Nil(), t.loc);
        e->var = t.text;
        *out = std::move(e);
        Advance();
        return Status::Ok();
      }
      case TokKind::kVariable:
        *out = Expr::Var(t.text, t.loc);
        Advance();
        return Status::Ok();
      case TokKind::kLParen: {
        if (depth_ >= kMaxDepth) return Error(t, "expression nested too deeply");
        Nesting nesting(&depth_);
        Advance();
        return ParseParenExpr(t.loc, out);
      }
      default:
        return Error(t, "expected expression");
    }
  }

  static std::optional<AggOp> AggOpFromName(std::string_view name) {
    if (name == "count") return AggOp::kCount;
    if (name == "min") return AggOp::kMin;
    if (name == "max") return AggOp::kMax;
    if (name == "sum") return AggOp::kSum;
    if (name == "avg") return AggOp::kAvg;
    return std::nullopt;
  }

  // Binary operator at the cursor, if any.
  std::optional<BinOp> PeekBinOp() const {
    const Tok& t = PeekTok();
    switch (t.kind) {
      case TokKind::kEq:
        return BinOp::kEq;
      case TokKind::kNe:
        return BinOp::kNe;
      case TokKind::kLt:
        return BinOp::kLt;
      case TokKind::kLe:
        return BinOp::kLe;
      case TokKind::kGt:
        return BinOp::kGt;
      case TokKind::kGe:
        return BinOp::kGe;
      case TokKind::kSymbol:
        if (t.text == "+") return BinOp::kAdd;
        if (t.text == "-") return BinOp::kSub;
        if (t.text == "*") return BinOp::kMul;
        if (t.text == "/" || t.text == "//") return BinOp::kDiv;
        if (t.text == "mod" || t.text == "\\\\") return BinOp::kMod;
        if (t.text == "and") return BinOp::kAnd;
        if (t.text == "or") return BinOp::kOr;
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  // Already consumed '('. Parses the inside and the closing ')'.
  Status ParseParenExpr(SourceLoc loc, ExprPtr* out) {
    if (CheckSymbol("crlf")) {
      Advance();
      *out = Expr::Crlf(loc);
      return Expect(TokKind::kRParen, "')' after crlf");
    }
    if (CheckSymbol("not")) {
      Advance();
      ExprPtr inner;
      SOREL_RETURN_IF_ERROR(ParseExprTerm(&inner));
      *out = Expr::Not(std::move(inner), loc);
      return Expect(TokKind::kRParen, "')' closing not");
    }
    if (CheckSymbol("compute")) {
      Advance();  // (compute a op b ...) — plain infix chain
    } else if (Check(TokKind::kSymbol) && AggOpFromName(PeekTok().text) &&
               PeekTok(1).kind == TokKind::kVariable) {
      AggOp op = *AggOpFromName(PeekTok().text);
      Advance();
      std::string var = Advance().text;
      *out = Expr::Aggregate(op, std::move(var), loc);
      return Expect(TokKind::kRParen, "')' closing aggregate");
    }
    // Infix chain: term (op term)*  — left-associative, no precedence
    // (parenthesize to group, as OPS5's `compute` does).
    ExprPtr acc;
    SOREL_RETURN_IF_ERROR(ParseExprTerm(&acc));
    while (!Check(TokKind::kRParen)) {
      std::optional<BinOp> op = PeekBinOp();
      if (!op) return Error(PeekTok(), "expected operator or ')'");
      Advance();
      ExprPtr rhs;
      SOREL_RETURN_IF_ERROR(ParseExprTerm(&rhs));
      acc = Expr::Binary(*op, std::move(acc), std::move(rhs), loc);
    }
    Advance();  // ')'
    *out = std::move(acc);
    return Status::Ok();
  }

  // Nesting depth of parenthesised expressions and action bodies. Recursive
  // descent runs on the C++ stack, so hostile input (a 200k-deep
  // parenthesised expression, say) must fail with a ParseError rather than
  // overflow it; the passes that later recurse over the tree (compiler,
  // evaluator, printer) inherit the bound.
  static constexpr int kMaxDepth = 256;
  class Nesting {
   public:
    explicit Nesting(int* depth) : depth_(depth) { ++*depth_; }
    ~Nesting() { --*depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    int* depth_;
  };

  std::vector<Tok> toks_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<ProgramAst> Parse(std::string_view source) {
  SOREL_ASSIGN_OR_RETURN(std::vector<Tok> toks, Lex(source));
  return Parser(std::move(toks)).Run();
}

}  // namespace sorel
