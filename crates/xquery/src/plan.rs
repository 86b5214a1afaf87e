//! Plan IR: a compact, analyzable representation lowered from the AST.
//!
//! The interpreter in `eval/` walks the AST directly and materializes every
//! intermediate sequence. The plan tier lowers a compiled module once into a
//! small IR on which four rewrites run:
//!
//! * **constant folding** — literal arithmetic, comparisons, ranges and
//!   boolean short-circuits collapse to `Plan::Const`. A computation is
//!   only folded when it *succeeds*; anything that would raise a dynamic
//!   error (`1 div 0`) is left in place so the error surfaces at run time
//!   with the same code the interpreter produces.
//! * **step fusion** — `descendant-or-self::node()/child::t` (the `//t`
//!   expansion) fuses into a single `descendant::t` step when the child
//!   step's predicates are statically position-free, halving the number of
//!   per-node passes on the hottest axis in the §7 workloads.
//! * **predicate pushdown** — predicates are classified into pipeline
//!   *stages* applied per candidate while the axis enumerates:
//!   positional takes (`[1]`, `[last()]`), attribute-equality probes
//!   (`[@id = "x"]`, answered straight off the attribute table, and
//!   `[@id = $v]`, a filter that remembers its attribute and variable),
//!   lazy position-free filters, and a buffered general tail for
//!   everything positional. When a `descendant::t` step runs from a
//!   document node and its first stage is a probe, the executor takes its
//!   candidates from the document's attribute-value index instead of a
//!   walk (for `$v`, only when it holds one string-like item).
//! * **early-exit rewrites** — `exists()`, `empty()`, `not()` and `count()`
//!   over unshadowed `fn:` names become dedicated plan nodes the streaming
//!   executor can satisfy without draining their operand.
//!
//! Direct element constructors lower to `Plan::Element`, whose enclosed
//! expressions are plans in their own right; the executor builds the
//! element through the interpreter's own builder, so a server-rendered
//! page runs compiled from its root down. Scripting blocks lower to
//! `Plan::Block`, and a user function's body is lowered once, on its
//! first compiled call, and kept on its declaration ([`LoweredBody`]):
//! calls from compiled code and listener invocations run that plan, so
//! the plug-in's listeners run compiled too. Anything the IR does not
//! model (computed constructors, updates, full-text, type-switch,
//! events, …) lowers to `Plan::Fallback`, which the executor hands
//! verbatim to the interpreter — the plan tier is a fast path, never a
//! second dialect.
//!
//! # Streaming soundness
//!
//! The executor evaluates a `PathPlan` lazily only when `lazy` is set.
//! Lowering grants it exactly when every step is an axis step whose
//! predicate stages are all *statically infallible*: a lazy cursor then
//! either fails before yielding its first item or on fuel exhaustion, so
//! depth-first pulling can never reorder which dynamic error surfaces
//! relative to the interpreter's breadth-first walk — and `exists()`-style
//! early exits are always observationally safe. Per-step `streamed` flags
//! additionally record whether concatenating per-node axis output preserves
//! document order (tracked through the static `Inv` invariant lattice);
//! steps without the flag run as buffered sort barriers inside the lazy
//! pipeline, exactly reproducing the interpreter's normalisation.

use std::cell::OnceCell;
use std::rc::Rc;

use xqib_dom::{name::FN_NS, QName};
use xqib_xdm::{
    effective_boolean_value, general_compare, value_compare, Atomic, CompOp, Item, Sequence,
    SequenceType,
};

use crate::ast::{
    ArithOp, AttrContent, Axis, AxisStep, ElemContent, Expr, FlworClause, FunctionDecl, KindTest,
    NodeTest, PathStart, Statement, StepExpr,
};
use crate::context::StaticContext;
use crate::eval::arith::{apply_arith, neg_atomic, range_bounds};
use crate::eval::path::{static_positional_take, PosTake};
use crate::runtime::CompiledQuery;

/// Rewrite counters, exposed through `browser:planCache()` introspection.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanStats {
    /// subexpressions collapsed to constants
    pub folded: u32,
    /// `//t` expansions fused into single `descendant::t` steps
    pub fused_steps: u32,
    /// predicates pushed into axis enumeration (filters + attribute probes)
    pub pushed_preds: u32,
    /// early-exit rewrites (`exists`/`empty`/`not`/`count`, positional takes)
    pub early_exits: u32,
    /// paths eligible for lazy streaming evaluation
    pub lazy_paths: u32,
    /// subexpressions lowered to interpreter fallbacks
    pub fallbacks: u32,
}

/// A lowered main module: globals + statement list, sharing the static
/// context of the [`CompiledQuery`] it was lowered from.
pub struct CompiledPlan {
    pub(crate) sctx: Rc<StaticContext>,
    pub(crate) globals: Vec<PlanGlobal>,
    pub(crate) body: Vec<PlanStmt>,
    pub(crate) stats: PlanStats,
}

impl CompiledPlan {
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    pub fn static_context(&self) -> &Rc<StaticContext> {
        &self.sctx
    }
}

/// A user function's lowered body, kept on its [`FunctionDecl`] so it is
/// lowered on the first compiled call and freed with the static context
/// that owns the declaration. A clone starts empty: the copy belongs to
/// another static context, whose function table may lower the body
/// differently (a user function can shadow an `fn:` early exit).
#[derive(Default)]
pub struct LoweredBody(OnceCell<Plan>);

impl Clone for LoweredBody {
    fn clone(&self) -> Self {
        LoweredBody::default()
    }
}

impl std::fmt::Debug for LoweredBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LoweredBody")
    }
}

/// The plan of `decl`'s body, lowered against `sctx` (the static context
/// that declares it) on first use.
pub(crate) fn lowered_body<'d>(decl: &'d FunctionDecl, sctx: &StaticContext) -> &'d Plan {
    decl.lowered
        .0
        .get_or_init(|| lower_expr(sctx, &decl.body, &mut PlanStats::default()))
}

pub(crate) struct PlanGlobal {
    pub name: QName,
    /// `None` means `external`.
    pub init: Option<Plan>,
}

/// Mirrors [`Statement`] with lowered expressions.
pub(crate) enum PlanStmt {
    VarDecl { name: QName, init: Option<Plan> },
    Assign { name: QName, value: Plan },
    While { cond: Plan, body: Vec<PlanStmt> },
    ExitWith(Plan),
    Expr(Plan),
}

/// The expression IR. Every node evaluates against the same
/// `DynamicContext` the interpreter uses, so fallbacks and plan nodes
/// compose freely within one query.
pub(crate) enum Plan {
    Const(Sequence),
    Var(QName),
    ContextItem,
    Seq(Vec<Plan>),
    Range(Box<Plan>, Box<Plan>),
    Arith(ArithOp, Box<Plan>, Box<Plan>),
    Neg(Box<Plan>),
    ValueComp(CompOp, Box<Plan>, Box<Plan>),
    GeneralComp(CompOp, Box<Plan>, Box<Plan>),
    And(Box<Plan>, Box<Plan>),
    Or(Box<Plan>, Box<Plan>),
    If {
        cond: Box<Plan>,
        then: Box<Plan>,
        els: Box<Plan>,
    },
    Flwor {
        clauses: Vec<PlanClause>,
        ret: Box<Plan>,
    },
    Path(PathPlan),
    /// `exists(src)` (`negate` = false) / `empty(src)` (`negate` = true)
    Exists {
        src: Box<Plan>,
        negate: bool,
    },
    Count(Box<Plan>),
    Not(Box<Plan>),
    /// generic function call through the interpreter's dispatch chain
    Call {
        name: QName,
        args: Vec<Plan>,
    },
    /// direct element constructor, built by the interpreter's builder with
    /// its enclosed parts evaluated as plans; never folded, because every
    /// evaluation must build new nodes
    Element(Box<ElementPlan>),
    /// scripting block: its statements run in a scope of their own, with
    /// pending updates applied between them
    Block(Vec<PlanStmt>),
    /// anything the IR does not model: evaluated by the interpreter
    Fallback(Rc<Expr>),
}

/// A lowered `Expr::DirectElement`.
pub(crate) struct ElementPlan {
    pub name: QName,
    pub ns_decls: Vec<(String, String)>,
    pub attrs: Vec<(QName, Vec<AttrContent<Plan>>)>,
    pub children: Vec<ElemContent<Plan>>,
}

pub(crate) enum PlanClause {
    For {
        var: QName,
        at: Option<QName>,
        ty: Option<SequenceType>,
        seq: Plan,
    },
    Let {
        var: QName,
        expr: Plan,
    },
    Where(Plan),
    OrderBy(Vec<PlanOrderSpec>),
}

pub(crate) struct PlanOrderSpec {
    pub key: Plan,
    pub descending: bool,
    pub empty_least: bool,
}

/// A lowered path expression.
pub(crate) struct PathPlan {
    pub start: PathStartPlan,
    pub steps: Vec<PlanStep>,
    /// Lazy pull evaluation is observationally equivalent: every step is an
    /// axis step and every predicate stage is statically infallible (a lazy
    /// cursor can then only fail before its first item or on fuel).
    pub lazy: bool,
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub(crate) enum PathStartPlan {
    /// `/...` — the root of the context node's tree
    Root,
    /// relative path: the focus item, or a leading filter step when there
    /// is no focus (the interpreter's `doc("x")//y` shape)
    Relative,
}

pub(crate) enum PlanStep {
    Axis(PlanAxisStep),
    /// mid-path (or leading) filter step — always an eager barrier
    Filter {
        primary: Plan,
        preds: Vec<PlanPred>,
    },
}

pub(crate) struct PlanAxisStep {
    pub axis: Axis,
    pub test: NodeTest,
    pub stages: Vec<PredStage>,
    /// Concatenating per-node output in input order preserves document
    /// order with no duplicates (given the start turns out to be at most
    /// one item at run time), so no sort barrier is needed.
    pub streamed: bool,
}

/// A lowered predicate plus the static facts the executor needs.
pub(crate) struct PlanPred {
    pub plan: Plan,
    /// `[k]` / `[last()]` recognised on the original expression — mirrors
    /// the interpreter's positional short-circuit
    pub take: Option<PosTake>,
    /// truth value is independent of `position()`/`last()` and never a
    /// numeric position test, so it can be decided per candidate
    pub positional_free: bool,
    /// cannot raise a dynamic error (fuel aside) when the focus is a node
    pub infallible: bool,
}

/// One stage of an axis step's predicate pipeline, applied in order.
pub(crate) enum PredStage {
    /// positional take: index the surviving candidates of this node
    Take(PosTake),
    /// `[@name = "literal"]` answered directly off the attribute table
    AttrEq { name: QName, value: Rc<str> },
    /// `[@name = $var]` (either operand order): a position-free filter
    /// whose candidates the attribute index may supply when `$var` holds
    /// one string-like item at run time
    AttrEqVar {
        name: QName,
        var: QName,
        pred: PlanPred,
    },
    /// position-free predicate: tested one candidate at a time
    Filter(PlanPred),
    /// positional tail: buffered per node and applied with true positions,
    /// exactly like the interpreter
    General(Vec<PlanPred>),
}

impl PredStage {
    pub(crate) fn infallible(&self) -> bool {
        match self {
            PredStage::Take(_) | PredStage::AttrEq { .. } => true,
            PredStage::Filter(p) | PredStage::AttrEqVar { pred: p, .. } => p.infallible,
            PredStage::General(ps) => ps.iter().all(|p| p.infallible),
        }
    }
}

// ---------------------------------------------------------------------------
// lowering
// ---------------------------------------------------------------------------

/// Lowers a compiled module to a plan. Lowering never fails: uncovered
/// constructs become interpreter fallbacks.
pub fn lower(q: &CompiledQuery) -> CompiledPlan {
    let sctx = q.sctx.clone();
    let mut stats = PlanStats::default();
    let globals = q
        .module
        .prolog
        .variables
        .iter()
        .map(|v| PlanGlobal {
            name: v.name.clone(),
            init: v.init.as_ref().map(|e| lower_expr(&sctx, e, &mut stats)),
        })
        .collect();
    let body = q
        .module
        .body
        .iter()
        .map(|s| lower_stmt(&sctx, s, &mut stats))
        .collect();
    CompiledPlan {
        sctx,
        globals,
        body,
        stats,
    }
}

fn lower_stmt(sctx: &StaticContext, s: &Statement, stats: &mut PlanStats) -> PlanStmt {
    match s {
        Statement::VarDecl { name, ty: _, init } => PlanStmt::VarDecl {
            name: name.clone(),
            init: init.as_ref().map(|e| lower_expr(sctx, e, stats)),
        },
        Statement::Assign { name, value } => PlanStmt::Assign {
            name: name.clone(),
            value: lower_expr(sctx, value, stats),
        },
        Statement::While { cond, body } => PlanStmt::While {
            cond: lower_expr(sctx, cond, stats),
            body: body.iter().map(|b| lower_stmt(sctx, b, stats)).collect(),
        },
        Statement::ExitWith(e) => PlanStmt::ExitWith(lower_expr(sctx, e, stats)),
        Statement::Expr(e) => PlanStmt::Expr(lower_expr(sctx, e, stats)),
    }
}

pub(crate) fn lower_expr(sctx: &StaticContext, e: &Expr, stats: &mut PlanStats) -> Plan {
    match e {
        Expr::Literal(a) => Plan::Const(vec![Item::Atomic(a.clone())]),
        Expr::VarRef(q) => Plan::Var(q.clone()),
        Expr::ContextItem => Plan::ContextItem,
        Expr::Sequence(es) => {
            let parts: Vec<Plan> = es.iter().map(|x| lower_expr(sctx, x, stats)).collect();
            fold_seq(parts, stats)
        }
        Expr::Range(a, b) => fold_range(
            lower_expr(sctx, a, stats),
            lower_expr(sctx, b, stats),
            stats,
        ),
        Expr::Arith(op, a, b) => fold_arith(
            *op,
            lower_expr(sctx, a, stats),
            lower_expr(sctx, b, stats),
            stats,
        ),
        Expr::Neg(a) => fold_neg(lower_expr(sctx, a, stats), stats),
        Expr::ValueComp(op, a, b) => fold_value_comp(
            *op,
            lower_expr(sctx, a, stats),
            lower_expr(sctx, b, stats),
            stats,
        ),
        Expr::GeneralComp(op, a, b) => fold_general_comp(
            *op,
            lower_expr(sctx, a, stats),
            lower_expr(sctx, b, stats),
            stats,
        ),
        Expr::And(a, b) => fold_and(
            lower_expr(sctx, a, stats),
            lower_expr(sctx, b, stats),
            stats,
        ),
        Expr::Or(a, b) => fold_or(
            lower_expr(sctx, a, stats),
            lower_expr(sctx, b, stats),
            stats,
        ),
        Expr::If { cond, then, els } => fold_if(
            lower_expr(sctx, cond, stats),
            lower_expr(sctx, then, stats),
            lower_expr(sctx, els, stats),
            stats,
        ),
        Expr::Flwor { clauses, ret } => Plan::Flwor {
            clauses: clauses
                .iter()
                .map(|c| lower_clause(sctx, c, stats))
                .collect(),
            ret: Box::new(lower_expr(sctx, ret, stats)),
        },
        Expr::Path { start, steps } => lower_path(sctx, *start, steps, stats),
        Expr::FunctionCall { name, args } => lower_call(sctx, name, args, stats),
        Expr::DirectElement {
            name,
            attrs,
            ns_decls,
            children,
        } => {
            let mut lower = |e: &Expr| lower_expr(sctx, e, stats);
            let attrs = attrs
                .iter()
                .map(|(q, parts)| (q.clone(), parts.iter().map(|p| p.map(&mut lower)).collect()))
                .collect();
            let children = children.iter().map(|c| c.map(&mut lower)).collect();
            Plan::Element(Box::new(ElementPlan {
                name: name.clone(),
                ns_decls: ns_decls.clone(),
                attrs,
                children,
            }))
        }
        Expr::Block(stmts) => {
            Plan::Block(stmts.iter().map(|s| lower_stmt(sctx, s, stats)).collect())
        }
        other => {
            stats.fallbacks += 1;
            Plan::Fallback(Rc::new(other.clone()))
        }
    }
}

fn lower_clause(sctx: &StaticContext, c: &FlworClause, stats: &mut PlanStats) -> PlanClause {
    match c {
        FlworClause::For { var, at, ty, seq } => PlanClause::For {
            var: var.clone(),
            at: at.clone(),
            ty: ty.clone(),
            seq: lower_expr(sctx, seq, stats),
        },
        FlworClause::Let { var, ty: _, expr } => PlanClause::Let {
            var: var.clone(),
            expr: lower_expr(sctx, expr, stats),
        },
        FlworClause::Where(cond) => PlanClause::Where(lower_expr(sctx, cond, stats)),
        FlworClause::OrderBy { specs, stable: _ } => PlanClause::OrderBy(
            specs
                .iter()
                .map(|s| PlanOrderSpec {
                    key: lower_expr(sctx, &s.key, stats),
                    descending: s.descending,
                    empty_least: s.empty_least,
                })
                .collect(),
        ),
    }
}

/// True if `name(#arity)` resolves to the `fn:` built-in: right namespace
/// and not shadowed by a user/module declaration. The `fn:` namespace is
/// reserved (natives register under `browser:`), so this is a static fact.
fn is_fn_builtin(sctx: &StaticContext, name: &QName, arity: usize) -> bool {
    name.ns.as_deref() == Some(FN_NS) && sctx.lookup_function(name, arity).is_none()
}

fn lower_call(sctx: &StaticContext, name: &QName, args: &[Expr], stats: &mut PlanStats) -> Plan {
    if is_fn_builtin(sctx, name, args.len())
        && args.len() == 1
        && matches!(&*name.local, "exists" | "empty" | "count" | "not")
    {
        stats.early_exits += 1;
        let arg = lower_expr(sctx, &args[0], stats);
        return match &*name.local {
            "exists" => fold_exists(arg, false, stats),
            "empty" => fold_exists(arg, true, stats),
            "count" => fold_count(arg, stats),
            _ => fold_not(arg, stats),
        };
    }
    Plan::Call {
        name: name.clone(),
        args: args.iter().map(|a| lower_expr(sctx, a, stats)).collect(),
    }
}

// ---------------------------------------------------------------------------
// path lowering: fusion, pushdown, streaming analysis
// ---------------------------------------------------------------------------

/// Static ordering facts about the node sequence flowing between steps,
/// assuming the path start resolves to at most one item (the executor
/// checks that at run time and falls back to eager evaluation otherwise).
#[derive(Clone, Copy)]
struct Inv {
    /// document order, duplicate-free
    ordered: bool,
    /// additionally pairwise non-nested (no node contains another)
    disjoint: bool,
    /// at most one node
    one: bool,
}

/// Can per-node output of `axis` be concatenated in input order without a
/// sort barrier?
fn step_streamable(inv: Inv, axis: Axis) -> bool {
    if inv.one {
        // a single context node emits every axis in (possibly reversed)
        // document order with no duplicates — mirrors the interpreter's
        // single-input sort elision
        return true;
    }
    if inv.ordered && inv.disjoint {
        // subtree-confined axes over ordered, non-nested inputs
        return crate::eval::path::axis_concat_stays_sorted(axis);
    }
    if inv.ordered {
        // attributes sit between their owner and its children, so even
        // nested (but ordered, duplicate-free) inputs concatenate sorted;
        // self is a subset
        return matches!(axis, Axis::Attribute | Axis::SelfAxis);
    }
    false
}

fn step_out_inv(inv: Inv, axis: Axis, streamed: bool, has_take: bool) -> Inv {
    let out = if !streamed {
        // barrier: sort_dedup leaves order without the non-nesting fact
        Inv {
            ordered: true,
            disjoint: false,
            one: false,
        }
    } else {
        match axis {
            Axis::SelfAxis => inv,
            Axis::Child | Axis::Attribute | Axis::FollowingSibling | Axis::PrecedingSibling => {
                Inv {
                    ordered: true,
                    disjoint: true,
                    one: false,
                }
            }
            Axis::Parent => Inv {
                ordered: true,
                disjoint: true,
                one: inv.one,
            },
            Axis::Descendant
            | Axis::DescendantOrSelf
            | Axis::Ancestor
            | Axis::AncestorOrSelf
            | Axis::Following
            | Axis::Preceding => Inv {
                ordered: true,
                disjoint: false,
                one: false,
            },
        }
    };
    if inv.one && has_take {
        // a positional take keeps at most one survivor per context node
        Inv {
            ordered: true,
            disjoint: true,
            one: true,
        }
    } else {
        out
    }
}

fn lower_path(
    sctx: &StaticContext,
    start: PathStart,
    steps: &[StepExpr],
    stats: &mut PlanStats,
) -> Plan {
    // `//t` parses as RootDescendant; materialize the d-o-s step so the
    // fusion pass below sees the same shape as an explicit `/descendant-
    // or-self::node()/child::t`.
    let mut ast_steps: Vec<StepExpr> = Vec::with_capacity(steps.len() + 1);
    let start_plan = match start {
        PathStart::Root => PathStartPlan::Root,
        PathStart::RootDescendant => {
            ast_steps.push(StepExpr::Axis(AxisStep {
                axis: Axis::DescendantOrSelf,
                test: NodeTest::Kind(KindTest::AnyKind),
                predicates: vec![],
            }));
            PathStartPlan::Root
        }
        PathStart::Relative => PathStartPlan::Relative,
    };
    ast_steps.extend(steps.iter().cloned());

    let mut plan_steps: Vec<PlanStep> = Vec::with_capacity(ast_steps.len());
    let mut lazy = true;
    // optimistic: the start is at most one item (verified at run time)
    let mut inv = Inv {
        ordered: true,
        disjoint: true,
        one: true,
    };
    let mut idx = 0;
    while idx < ast_steps.len() {
        match &ast_steps[idx] {
            StepExpr::Filter {
                primary,
                predicates,
            } => {
                let leading = idx == 0 && start_plan == PathStartPlan::Relative;
                if !leading {
                    // a mid-path filter step is an eager barrier with
                    // arbitrary (fallible) primaries — no lazy evaluation
                    lazy = false;
                    inv = Inv {
                        ordered: false,
                        disjoint: false,
                        one: false,
                    };
                }
                // a leading filter is consumed while resolving the start,
                // before the pipeline emits anything, so it keeps the
                // optimistic invariant
                plan_steps.push(PlanStep::Filter {
                    primary: lower_expr(sctx, primary, stats),
                    preds: predicates
                        .iter()
                        .map(|p| lower_pred(sctx, p, stats))
                        .collect(),
                });
            }
            StepExpr::Axis(ax) => {
                // fusion: d-o-s::node() (no predicates) + child::t[preds]
                // → descendant::t[preds], valid only when the child step's
                // predicates are position-free (`//x[1]` groups positions
                // per d-o-s node and must not fuse)
                let mut axis = ax.axis;
                let mut test = &ax.test;
                let mut predicates = &ax.predicates;
                if ax.axis == Axis::DescendantOrSelf
                    && matches!(ax.test, NodeTest::Kind(KindTest::AnyKind))
                    && ax.predicates.is_empty()
                {
                    if let Some(StepExpr::Axis(next)) = ast_steps.get(idx + 1) {
                        if next.axis == Axis::Child
                            && next.predicates.iter().all(|p| is_positional_free(sctx, p))
                        {
                            axis = Axis::Descendant;
                            test = &next.test;
                            predicates = &next.predicates;
                            stats.fused_steps += 1;
                            idx += 1;
                        }
                    }
                }
                let stages = lower_stages(sctx, predicates, stats);
                if !stages.iter().all(|s| s.infallible()) {
                    lazy = false;
                }
                let streamed = step_streamable(inv, axis);
                let has_take = stages.iter().any(|s| matches!(s, PredStage::Take(_)));
                inv = step_out_inv(inv, axis, streamed, has_take);
                plan_steps.push(PlanStep::Axis(PlanAxisStep {
                    axis,
                    test: test.clone(),
                    stages,
                    streamed,
                }));
            }
        }
        idx += 1;
    }

    if lazy && !plan_steps.is_empty() {
        stats.lazy_paths += 1;
    }
    Plan::Path(PathPlan {
        start: start_plan,
        steps: plan_steps,
        lazy,
    })
}

fn lower_stages(sctx: &StaticContext, preds: &[Expr], stats: &mut PlanStats) -> Vec<PredStage> {
    let mut stages = Vec::with_capacity(preds.len());
    let mut i = 0;
    while i < preds.len() {
        let p = &preds[i];
        if let Some(t) = static_positional_take(sctx, p) {
            stages.push(PredStage::Take(t));
            stats.early_exits += 1;
            i += 1;
            continue;
        }
        if let Some((name, value)) = attr_eq_pattern(p) {
            stages.push(PredStage::AttrEq { name, value });
            stats.pushed_preds += 1;
            i += 1;
            continue;
        }
        if let Some((name, var)) = attr_var_pattern(p) {
            let pred = lower_pred(sctx, p, stats);
            stages.push(PredStage::AttrEqVar { name, var, pred });
            stats.pushed_preds += 1;
            i += 1;
            continue;
        }
        let lowered = lower_pred(sctx, p, stats);
        if lowered.positional_free {
            stages.push(PredStage::Filter(lowered));
            stats.pushed_preds += 1;
            i += 1;
            continue;
        }
        // first positional predicate: everything from here on needs true
        // positions over the surviving candidate list
        stages.push(PredStage::General(
            preds[i..]
                .iter()
                .map(|p| lower_pred(sctx, p, stats))
                .collect(),
        ));
        break;
    }
    stages
}

fn lower_pred(sctx: &StaticContext, e: &Expr, stats: &mut PlanStats) -> PlanPred {
    let take = static_positional_take(sctx, e);
    let positional_free = is_positional_free(sctx, e);
    let plan = lower_expr(sctx, e, stats);
    let infallible = plan_infallible(&plan);
    PlanPred {
        plan,
        take,
        positional_free,
        infallible,
    }
}

/// `[@name = "literal"]` (either operand order): answered by a direct
/// attribute-table probe. Matches the interpreter exactly: the attribute
/// atomizes to untyped, which a general comparison against a string casts
/// to string — plain string equality, and an absent attribute is `false`.
fn attr_eq_pattern(e: &Expr) -> Option<(QName, Rc<str>)> {
    let Expr::GeneralComp(CompOp::Eq, l, r) = e else {
        return None;
    };
    if let (Some(q), Some(v)) = (attr_step(l), string_lit(r)) {
        return Some((q, v));
    }
    if let (Some(q), Some(v)) = (attr_step(r), string_lit(l)) {
        return Some((q, v));
    }
    None
}

/// `[@name = $var]` (either operand order). Whether the attribute index
/// can answer it is a run-time question — only a single `xs:string` or
/// `xs:untypedAtomic` value compares as plain string equality — so the
/// stage keeps the lowered predicate to run on every candidate.
fn attr_var_pattern(e: &Expr) -> Option<(QName, QName)> {
    let Expr::GeneralComp(CompOp::Eq, l, r) = e else {
        return None;
    };
    match (&**l, &**r) {
        (a, Expr::VarRef(v)) | (Expr::VarRef(v), a) => Some((attr_step(a)?, v.clone())),
        _ => None,
    }
}

fn attr_step(e: &Expr) -> Option<QName> {
    let Expr::Path { start, steps } = e else {
        return None;
    };
    if *start != PathStart::Relative || steps.len() != 1 {
        return None;
    }
    match &steps[0] {
        StepExpr::Axis(AxisStep {
            axis: Axis::Attribute,
            test: NodeTest::Name(q),
            predicates,
        }) if predicates.is_empty() => Some(q.clone()),
        _ => None,
    }
}

fn string_lit(e: &Expr) -> Option<Rc<str>> {
    match e {
        Expr::Literal(Atomic::String(s)) => Some(s.clone()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// static analyses
// ---------------------------------------------------------------------------

/// A predicate is position-free when its truth value per candidate cannot
/// depend on `position()`/`last()` and cannot be a numeric position test:
/// it must be statically boolean-valued *and* never read the focus position.
fn is_positional_free(sctx: &StaticContext, e: &Expr) -> bool {
    boolean_valued(sctx, e) && focus_position_free(sctx, e)
}

/// Conservatively: does this expression always produce a value whose
/// predicate truth is the effective boolean value (never a numeric
/// singleton that would become a position test)?
fn boolean_valued(sctx: &StaticContext, e: &Expr) -> bool {
    match e {
        Expr::ValueComp(..)
        | Expr::GeneralComp(..)
        | Expr::NodeComp(..)
        | Expr::And(..)
        | Expr::Or(..)
        | Expr::Quantified { .. }
        | Expr::InstanceOf(..)
        | Expr::CastableAs(..)
        | Expr::FtContains { .. } => true,
        Expr::Literal(Atomic::Boolean(_) | Atomic::String(_)) => true,
        // node-set operators and paths ending in an axis step yield nodes
        // only — node sequences always take the EBV
        Expr::Union(..) | Expr::Intersect(..) | Expr::Except(..) => true,
        Expr::Path { steps, .. } => matches!(steps.last(), Some(StepExpr::Axis(_))),
        Expr::If { then, els, .. } => boolean_valued(sctx, then) && boolean_valued(sctx, els),
        Expr::FunctionCall { name, args } if is_fn_builtin(sctx, name, args.len()) => {
            matches!(
                &*name.local,
                "exists"
                    | "empty"
                    | "not"
                    | "boolean"
                    | "contains"
                    | "starts-with"
                    | "ends-with"
                    | "matches"
            )
        }
        _ => false,
    }
}

/// Conservatively: is this expression's value independent of the *focus
/// position* (`position()`/`last()`)? Nested step predicates rebind the
/// focus and are skipped; user-declared functions may read the caller's
/// focus and natives are opaque, so both reject.
fn focus_position_free(sctx: &StaticContext, e: &Expr) -> bool {
    let rec = |x: &Expr| focus_position_free(sctx, x);
    match e {
        Expr::Literal(_) | Expr::VarRef(_) | Expr::ContextItem => true,
        Expr::Sequence(es) => es.iter().all(rec),
        Expr::Range(a, b)
        | Expr::Arith(_, a, b)
        | Expr::ValueComp(_, a, b)
        | Expr::GeneralComp(_, a, b)
        | Expr::NodeComp(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Union(a, b)
        | Expr::Intersect(a, b)
        | Expr::Except(a, b) => rec(a) && rec(b),
        Expr::Neg(a)
        | Expr::InstanceOf(a, _)
        | Expr::TreatAs(a, _)
        | Expr::CastableAs(a, _, _)
        | Expr::CastAs(a, _, _) => rec(a),
        Expr::If { cond, then, els } => rec(cond) && rec(then) && rec(els),
        Expr::Quantified {
            bindings,
            satisfies,
            ..
        } => bindings.iter().all(|(_, s)| rec(s)) && rec(satisfies),
        Expr::Flwor { clauses, ret } => {
            clauses.iter().all(|c| match c {
                FlworClause::For { seq, .. } => rec(seq),
                FlworClause::Let { expr, .. } => rec(expr),
                FlworClause::Where(cond) => rec(cond),
                FlworClause::OrderBy { specs, .. } => specs.iter().all(|s| rec(&s.key)),
            }) && rec(ret)
        }
        Expr::Path { steps, .. } => steps.iter().all(|s| match s {
            // axis steps carry no focus-reading expressions of their own;
            // their predicates get a fresh focus
            StepExpr::Axis(_) => true,
            StepExpr::Filter { primary, .. } => rec(primary),
        }),
        Expr::FunctionCall { name, args } => {
            if !is_fn_builtin(sctx, name, args.len()) {
                return false;
            }
            if args.is_empty() && matches!(&*name.local, "position" | "last") {
                return false;
            }
            args.iter().all(rec)
        }
        _ => false,
    }
}

/// Value classes for deciding whether a comparison can raise a type or
/// cast error. Nodes atomize to untyped in this (untyped) instantiation.
#[derive(PartialEq, Eq, Clone, Copy)]
pub(crate) enum ValClass {
    Empty,
    StrLike,
    Num,
    Bool,
    Other,
}

pub(crate) fn plan_class(p: &Plan) -> ValClass {
    match p {
        Plan::Const(seq) => {
            if seq.is_empty() {
                return ValClass::Empty;
            }
            let mut class: Option<ValClass> = None;
            for item in seq {
                let c = match item {
                    Item::Atomic(Atomic::String(_) | Atomic::Untyped(_)) => ValClass::StrLike,
                    Item::Atomic(a) if a.is_numeric() => ValClass::Num,
                    Item::Atomic(Atomic::Boolean(_)) => ValClass::Bool,
                    _ => ValClass::Other,
                };
                match class {
                    None => class = Some(c),
                    Some(prev) if prev == c => {}
                    Some(_) => return ValClass::Other,
                }
            }
            class.unwrap_or(ValClass::Other)
        }
        Plan::Path(pp) => {
            if yields_nodes_only(pp) {
                ValClass::StrLike
            } else {
                ValClass::Other
            }
        }
        Plan::Exists { .. } | Plan::Not(_) => ValClass::Bool,
        Plan::Count(_) => ValClass::Num,
        _ => ValClass::Other,
    }
}

pub(crate) fn yields_nodes_only(pp: &PathPlan) -> bool {
    match pp.steps.last() {
        Some(PlanStep::Axis(_)) => true,
        Some(PlanStep::Filter { .. }) => false,
        None => pp.start == PathStartPlan::Root,
    }
}

/// Comparing these two classes (after untyped promotion) can never raise:
/// strings/untyped compare as strings, numerics via double (NaN maps to a
/// boolean, not an error), booleans directly. Anything mixed can need a
/// cast or is a type error.
pub(crate) fn comparable_infallible(a: ValClass, b: ValClass) -> bool {
    a == ValClass::Empty || b == ValClass::Empty || (a == b && a != ValClass::Other)
}

/// At most one item, statically.
fn at_most_one(p: &Plan) -> bool {
    match p {
        Plan::Const(seq) => seq.len() <= 1,
        Plan::ContextItem | Plan::Exists { .. } | Plan::Not(_) | Plan::Count(_) => true,
        _ => false,
    }
}

/// Can taking the effective boolean value of this plan's result raise
/// `FORG0006`?
pub(crate) fn ebv_safe(p: &Plan) -> bool {
    match p {
        Plan::Const(seq) => effective_boolean_value(seq).is_ok(),
        Plan::Path(pp) => yields_nodes_only(pp),
        Plan::ValueComp(..)
        | Plan::GeneralComp(..)
        | Plan::And(..)
        | Plan::Or(..)
        | Plan::Exists { .. }
        | Plan::Not(_)
        | Plan::Count(_) => true,
        Plan::If { then, els, .. } => ebv_safe(then) && ebv_safe(els),
        _ => false,
    }
}

/// Conservatively: evaluated with a *node* focus (predicate context), can
/// this plan raise any dynamic error besides fuel exhaustion?
pub(crate) fn plan_infallible(p: &Plan) -> bool {
    match p {
        Plan::Const(_) | Plan::ContextItem => true,
        Plan::Seq(ps) => ps.iter().all(plan_infallible),
        Plan::Path(pp) => {
            pp.start == PathStartPlan::Root
                || pp.steps.iter().all(|s| match s {
                    PlanStep::Axis(ax) => ax.stages.iter().all(|st| st.infallible()),
                    PlanStep::Filter { .. } => false,
                })
        }
        Plan::GeneralComp(_, l, r) => {
            plan_infallible(l)
                && plan_infallible(r)
                && comparable_infallible(plan_class(l), plan_class(r))
        }
        Plan::ValueComp(_, l, r) => {
            plan_infallible(l)
                && plan_infallible(r)
                && comparable_infallible(plan_class(l), plan_class(r))
                && at_most_one(l)
                && at_most_one(r)
        }
        Plan::And(l, r) | Plan::Or(l, r) => {
            plan_infallible(l) && plan_infallible(r) && ebv_safe(l) && ebv_safe(r)
        }
        Plan::Exists { src, .. } | Plan::Count(src) => plan_infallible(src),
        Plan::Not(src) => plan_infallible(src) && ebv_safe(src),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// constant folding (success-only: dynamic errors stay dynamic)
// ---------------------------------------------------------------------------

/// The arithmetic operand rule over a constant sequence. `Err(())` means
/// "cannot fold" (the interpreter would raise or the shape is unexpected).
fn const_atomic(seq: &Sequence) -> Result<Option<Atomic>, ()> {
    match seq.len() {
        0 => Ok(None),
        1 => match &seq[0] {
            Item::Atomic(a) => Ok(Some(a.clone())),
            Item::Node(_) => Err(()),
        },
        _ => Err(()),
    }
}

fn fold_seq(parts: Vec<Plan>, stats: &mut PlanStats) -> Plan {
    if parts.len() == 1 {
        return parts.into_iter().next().expect("len checked");
    }
    if parts.iter().all(|p| matches!(p, Plan::Const(_))) {
        let mut out = Vec::new();
        for p in parts {
            let Plan::Const(seq) = p else { unreachable!() };
            out.extend(seq);
        }
        stats.folded += 1;
        return Plan::Const(out);
    }
    Plan::Seq(parts)
}

/// Ranges fold only when small: `1 to 1000000` stays a plan node the
/// executor streams without materializing.
const MAX_FOLDED_RANGE: i64 = 1024;

fn fold_range(l: Plan, r: Plan, stats: &mut PlanStats) -> Plan {
    if let (Plan::Const(a), Plan::Const(b)) = (&l, &r) {
        if let (Ok(x), Ok(y)) = (const_atomic(a), const_atomic(b)) {
            match range_bounds(x, y) {
                Ok(None) => {
                    stats.folded += 1;
                    return Plan::Const(vec![]);
                }
                Ok(Some((lo, hi))) if hi - lo < MAX_FOLDED_RANGE => {
                    stats.folded += 1;
                    return Plan::Const((lo..=hi).map(Item::integer).collect());
                }
                _ => {}
            }
        }
    }
    Plan::Range(Box::new(l), Box::new(r))
}

fn fold_arith(op: ArithOp, l: Plan, r: Plan, stats: &mut PlanStats) -> Plan {
    if let (Plan::Const(a), Plan::Const(b)) = (&l, &r) {
        match (const_atomic(a), const_atomic(b)) {
            (Ok(None), Ok(_)) | (Ok(Some(_)), Ok(None)) => {
                stats.folded += 1;
                return Plan::Const(vec![]);
            }
            (Ok(Some(x)), Ok(Some(y))) => {
                if let Ok(v) = apply_arith(op, &x, &y) {
                    stats.folded += 1;
                    return Plan::Const(vec![Item::Atomic(v)]);
                }
            }
            _ => {}
        }
    }
    Plan::Arith(op, Box::new(l), Box::new(r))
}

fn fold_neg(inner: Plan, stats: &mut PlanStats) -> Plan {
    if let Plan::Const(a) = &inner {
        if let Ok(v) = const_atomic(a) {
            if let Ok(seq) = neg_atomic(v) {
                stats.folded += 1;
                return Plan::Const(seq);
            }
        }
    }
    Plan::Neg(Box::new(inner))
}

fn fold_value_comp(op: CompOp, l: Plan, r: Plan, stats: &mut PlanStats) -> Plan {
    if let (Plan::Const(a), Plan::Const(b)) = (&l, &r) {
        if a.is_empty() || b.is_empty() {
            stats.folded += 1;
            return Plan::Const(vec![]);
        }
        if let (Ok(Some(x)), Ok(Some(y))) = (const_atomic(a), const_atomic(b)) {
            // literals are never untyped, so no promotion step is needed
            if !matches!(x, Atomic::Untyped(_)) && !matches!(y, Atomic::Untyped(_)) {
                if let Ok(v) = value_compare(op, &x, &y) {
                    stats.folded += 1;
                    return Plan::Const(vec![Item::boolean(v)]);
                }
            }
        }
    }
    Plan::ValueComp(op, Box::new(l), Box::new(r))
}

fn fold_general_comp(op: CompOp, l: Plan, r: Plan, stats: &mut PlanStats) -> Plan {
    if let (Plan::Const(a), Plan::Const(b)) = (&l, &r) {
        let atoms = |seq: &Sequence| -> Option<Vec<Atomic>> {
            seq.iter()
                .map(|i| match i {
                    Item::Atomic(a) => Some(a.clone()),
                    Item::Node(_) => None,
                })
                .collect()
        };
        if let (Some(xs), Some(ys)) = (atoms(a), atoms(b)) {
            if let Ok(v) = general_compare(op, &xs, &ys) {
                stats.folded += 1;
                return Plan::Const(vec![Item::boolean(v)]);
            }
        }
    }
    Plan::GeneralComp(op, Box::new(l), Box::new(r))
}

fn fold_and(l: Plan, r: Plan, stats: &mut PlanStats) -> Plan {
    if let Plan::Const(a) = &l {
        match effective_boolean_value(a) {
            // short-circuit exactly like the interpreter: a false left
            // operand means the right is never evaluated
            Ok(false) => {
                stats.folded += 1;
                return Plan::Const(vec![Item::boolean(false)]);
            }
            Ok(true) => {
                if let Plan::Const(b) = &r {
                    if let Ok(v) = effective_boolean_value(b) {
                        stats.folded += 1;
                        return Plan::Const(vec![Item::boolean(v)]);
                    }
                }
            }
            Err(_) => {}
        }
    }
    Plan::And(Box::new(l), Box::new(r))
}

fn fold_or(l: Plan, r: Plan, stats: &mut PlanStats) -> Plan {
    if let Plan::Const(a) = &l {
        match effective_boolean_value(a) {
            Ok(true) => {
                stats.folded += 1;
                return Plan::Const(vec![Item::boolean(true)]);
            }
            Ok(false) => {
                if let Plan::Const(b) = &r {
                    if let Ok(v) = effective_boolean_value(b) {
                        stats.folded += 1;
                        return Plan::Const(vec![Item::boolean(v)]);
                    }
                }
            }
            Err(_) => {}
        }
    }
    Plan::Or(Box::new(l), Box::new(r))
}

fn fold_if(cond: Plan, then: Plan, els: Plan, stats: &mut PlanStats) -> Plan {
    if let Plan::Const(c) = &cond {
        if let Ok(b) = effective_boolean_value(c) {
            stats.folded += 1;
            // the untaken branch is never evaluated by the interpreter
            // either, so dropping it cannot elide an error
            return if b { then } else { els };
        }
    }
    Plan::If {
        cond: Box::new(cond),
        then: Box::new(then),
        els: Box::new(els),
    }
}

fn fold_exists(src: Plan, negate: bool, stats: &mut PlanStats) -> Plan {
    if let Plan::Const(seq) = &src {
        stats.folded += 1;
        return Plan::Const(vec![Item::boolean(seq.is_empty() == negate)]);
    }
    Plan::Exists {
        src: Box::new(src),
        negate,
    }
}

fn fold_count(src: Plan, stats: &mut PlanStats) -> Plan {
    if let Plan::Const(seq) = &src {
        stats.folded += 1;
        return Plan::Const(vec![Item::integer(seq.len() as i64)]);
    }
    Plan::Count(Box::new(src))
}

fn fold_not(src: Plan, stats: &mut PlanStats) -> Plan {
    if let Plan::Const(seq) = &src {
        if let Ok(b) = effective_boolean_value(seq) {
            stats.folded += 1;
            return Plan::Const(vec![Item::boolean(!b)]);
        }
    }
    Plan::Not(Box::new(src))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime;

    fn plan_of(src: &str) -> CompiledPlan {
        lower(&runtime::compile(src).expect("compiles"))
    }

    fn body_plan(p: &CompiledPlan) -> &Plan {
        match p.body.first().expect("one statement") {
            PlanStmt::Expr(plan) => plan,
            _ => panic!("expected an expression statement"),
        }
    }

    #[test]
    fn folds_literal_arithmetic() {
        let p = plan_of("1 + 2 * 3");
        assert!(p.stats.folded >= 2);
        match body_plan(&p) {
            Plan::Const(seq) => {
                assert_eq!(seq.len(), 1);
                assert!(matches!(&seq[0], Item::Atomic(Atomic::Integer(7))));
            }
            _ => panic!("expected a folded constant"),
        }
    }

    #[test]
    fn division_by_zero_stays_dynamic() {
        let p = plan_of("1 div 0");
        assert!(
            matches!(body_plan(&p), Plan::Arith(..)),
            "folding must not swallow the runtime error"
        );
    }

    #[test]
    fn fuses_descendant_child() {
        let p = plan_of("//item");
        assert_eq!(p.stats.fused_steps, 1);
        match body_plan(&p) {
            Plan::Path(pp) => {
                assert_eq!(pp.steps.len(), 1);
                match &pp.steps[0] {
                    PlanStep::Axis(ax) => assert_eq!(ax.axis, Axis::Descendant),
                    _ => panic!("expected an axis step"),
                }
                assert!(pp.lazy);
            }
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn positional_predicate_blocks_fusion() {
        let p = plan_of("//item[1]");
        assert_eq!(
            p.stats.fused_steps, 0,
            "`//x[1]` groups positions per d-o-s node; fusing would change the result"
        );
    }

    #[test]
    fn attr_eq_predicate_becomes_probe_stage() {
        let p = plan_of("//item[@id = \"x\"]");
        match body_plan(&p) {
            Plan::Path(pp) => {
                assert!(pp.lazy);
                let PlanStep::Axis(ax) = &pp.steps[0] else {
                    panic!("axis step");
                };
                assert!(matches!(ax.stages[0], PredStage::AttrEq { .. }));
            }
            _ => panic!("expected a path"),
        }
        assert!(p.stats.pushed_preds >= 1);
    }

    #[test]
    fn attr_var_predicate_becomes_probe_stage() {
        for src in [
            "let $v := 'x' return //item[@id = $v]",
            "let $v := 'x' return //item[$v = @id]",
        ] {
            let p = plan_of(src);
            let Plan::Flwor { ret, .. } = body_plan(&p) else {
                panic!("expected a FLWOR");
            };
            let Plan::Path(pp) = &**ret else {
                panic!("expected a path");
            };
            let PlanStep::Axis(ax) = &pp.steps[0] else {
                panic!("axis step");
            };
            assert_eq!(ax.axis, Axis::Descendant, "{src}");
            assert!(
                matches!(&ax.stages[0], PredStage::AttrEqVar { name, .. } if &*name.local == "id"),
                "{src}"
            );
            assert!(!pp.lazy, "an untyped-vs-`$v` comparison may raise");
        }
        // other variable comparisons stay plain filters
        let p = plan_of("let $v := 'x' return //item[@id != $v]");
        let Plan::Flwor { ret, .. } = body_plan(&p) else {
            panic!("expected a FLWOR");
        };
        let Plan::Path(pp) = &**ret else {
            panic!("expected a path");
        };
        let PlanStep::Axis(ax) = &pp.steps[0] else {
            panic!("axis step");
        };
        assert!(matches!(ax.stages[0], PredStage::Filter(_)));
    }

    #[test]
    fn function_bodies_lower_once_on_their_declaration() {
        let q = runtime::compile(
            "declare function local:f($v) { declare variable $n := 1; //item[@id = $v] };\n\
             local:f('x')",
        )
        .expect("compiles");
        let name = QName::ns(xqib_dom::name::LOCAL_NS, "f");
        let decl = q.sctx.lookup_function(&name, 1).expect("declared");
        let body = lowered_body(&decl, &q.sctx);
        assert!(matches!(body, Plan::Block(stmts) if stmts.len() == 2));
        assert!(
            std::ptr::eq(body, lowered_body(&decl, &q.sctx)),
            "the second call reuses the first lowering"
        );
        let copy = FunctionDecl::clone(&decl);
        assert!(copy.lowered.0.get().is_none(), "a clone starts empty");
    }

    #[test]
    fn exists_lowered_to_early_exit_node() {
        let p = plan_of("exists(//a)");
        assert!(matches!(body_plan(&p), Plan::Exists { negate: false, .. }));
        let p = plan_of("empty(//a)");
        assert!(matches!(body_plan(&p), Plan::Exists { negate: true, .. }));
    }

    #[test]
    fn shadowed_builtin_is_not_fused() {
        let p = plan_of(
            "declare namespace f = \"http://www.w3.org/2005/xpath-functions\";\n\
             declare function f:exists($x) { 42 };\n\
             f:exists(//a)",
        );
        assert!(
            matches!(body_plan(&p), Plan::Call { .. }),
            "a user-declared fn:exists must go through the generic call path"
        );
    }

    #[test]
    fn position_free_comparison_streams_under_filter_stage() {
        let p = plan_of("//entry[author = \"Kim\"]");
        match body_plan(&p) {
            Plan::Path(pp) => {
                assert!(pp.lazy, "string-vs-node comparison is infallible");
                let PlanStep::Axis(ax) = &pp.steps[0] else {
                    panic!("axis step");
                };
                match &ax.stages[0] {
                    PredStage::Filter(pred) => {
                        assert!(pred.positional_free);
                        assert!(pred.infallible);
                    }
                    _ => panic!("expected a filter stage"),
                }
            }
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn arithmetic_predicate_is_not_lazy() {
        // `@n + 1` can raise FORG0001 per candidate — the whole path must
        // stay eager so error order matches the interpreter
        let p = plan_of("//entry[@n + 1 = 2]");
        match body_plan(&p) {
            Plan::Path(pp) => assert!(!pp.lazy),
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn position_call_is_not_position_free() {
        let p = plan_of("//entry[position() = 2]");
        match body_plan(&p) {
            Plan::Path(pp) => {
                let PlanStep::Axis(ax) = pp.steps.last().expect("step") else {
                    panic!("axis step");
                };
                assert!(matches!(ax.stages[0], PredStage::General(_)));
            }
            _ => panic!("expected a path"),
        }
    }

    #[test]
    fn if_with_constant_condition_picks_branch() {
        let p = plan_of("if (1 = 1) then \"a\" else (1 div 0)");
        match body_plan(&p) {
            Plan::Const(seq) => assert_eq!(seq.len(), 1),
            _ => panic!("constant condition should fold"),
        }
    }

    #[test]
    fn direct_constructors_lower() {
        let p = plan_of("<a x=\"{1 + 1}\">t<b/>{//c[@id = \"k\"]}</a>");
        let Plan::Element(el) = body_plan(&p) else {
            panic!("expected an element plan");
        };
        assert!(matches!(
            el.attrs[0].1[0],
            AttrContent::Enclosed(Plan::Const(_))
        ));
        assert!(matches!(
            el.children[1],
            ElemContent::Child(Plan::Element(_))
        ));
        assert!(matches!(
            el.children[2],
            ElemContent::Enclosed(Plan::Path(_))
        ));
        assert_eq!(p.stats.fallbacks, 0);
        assert_eq!(p.stats.fused_steps, 1);
    }

    #[test]
    fn uncovered_constructs_fall_back() {
        let p = plan_of("typeswitch (1) case xs:integer return 1 default return 2");
        assert!(matches!(body_plan(&p), Plan::Fallback(_)));
        assert_eq!(p.stats.fallbacks, 1);
        // computed constructors stay with the interpreter
        let p = plan_of("<a>{element b {1}}</a>");
        assert_eq!(p.stats.fallbacks, 1);
    }
}
