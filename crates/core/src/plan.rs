//! Lowering + cost-based planning: the typed AST becomes an executable
//! plan IR before anything runs.
//!
//! `lower_query` compiles a parsed [`Query`] into a [`QueryPlan`]:
//! the renderable [`Plan`] tree `EXPLAIN` prints **and** the per-block
//! [`BlockPlan`]s the executor consumes. The executor decides nothing
//! about a block's binding table: one walk over the block's binding
//! steps (its match program) fixes each FROM variable's column and
//! assigns every WHERE conjunct, split once here, to the earliest step
//! that can evaluate it, to the hop whose unbound target it alone names,
//! or to the residual list. Every pattern hop carries the strategy
//! (`HopStrategy`) the cost model chose, resolved against the schema
//! once per lowering into what it runs over — a symbol, or a compiled
//! automaton and its reversal — which a block's semantics variants
//! share. The steps hold what the executor needs of the FROM clause, so
//! it never reads that part of the AST. `EXPLAIN` renders that same
//! walk, so it prints the plan that actually executes.
//!
//! Planning is *cost-based* when graph statistics are available
//! ([`pgraph::graph::GraphStats`], collected at `finalize()` time):
//! per-type cardinalities and average degrees drive `est_rows` /
//! `est_cost` annotations on every data-producing node, and let a
//! counting kernel reverse when the estimated number of distinct anchored
//! targets is strictly smaller than the estimated number of sources.
//! Whether a kernel that may reverse runs backward is one rule,
//! `runs_backward`, which the cost model, EXPLAIN and the executor call.
//! Without statistics (`ctx = None`, the graph-less `EXPLAIN` entry
//! point) the same lowering runs with estimates omitted and every choice
//! falling back to the syntax-driven default, so plan *shape* is
//! independent of statistics.
//!
//! Estimator constants are deliberately coarse (equality conjuncts are
//! point lookups clamped to ~1 row, other predicates keep half their
//! input, reachability fraction 0.5): the point is order-of-magnitude
//! steering, and the `PROFILE` counters are the feedback loop —
//! `tests/planner_estimates.rs` flags any node whose `est_rows` is more
//! than 10x off the measured rows on the bench workloads.
//!
//! Determinism contract: hops within one FROM item execute in pattern
//! order (the cost model annotates but never reorders them). Whole FROM
//! *items* may be reordered ([`BlockPlan`]'s steps) — but only when
//! the reorder is provably output-invariant: items bind disjoint
//! variables, every WHERE conjunct touches at most one item (so the
//! surviving row set is a product of per-item filters and each alias's
//! first-occurrence order equals its own generation order), every output
//! is a vertex fragment (table outputs are row-order sensitive), and
//! the ACCUM clause folds [`FoldVerdict::Exact`] (every statement a `+=`
//! combine into an exact-merge accumulator). Under that gate results
//! stay byte-identical across plans, parallelism levels and statistics
//! refreshes.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::explain::{vspec_label, Plan, PlanNode};
use crate::exec::Engine;
use crate::lint::QueryFacts;
use crate::prepared::PreparedQuery;
use crate::semantics::PathSemantics;
use crate::table::Table;
use darpe::{resolve_symbol, CompiledDarpe, Darpe, DarpeDir, Symbol, SymbolSpec};
use pgraph::fxhash::{FxHashMap, FxHashSet};
use pgraph::graph::Graph;
use pgraph::schema::{ETypeId, Schema};
use std::sync::Arc;

/// Rows an equality conjunct (`x.a == c`) is assumed to keep: a point
/// lookup, independent of input cardinality.
const EQ_POINT_ROWS: f64 = 1.0;
/// Selectivity assumed for any other conjunct.
const SEL_OTHER: f64 = 0.5;
/// Fraction of the candidate target set a reachability kernel is assumed
/// to reach from one source.
const REACH_FRACTION: f64 = 0.5;
/// Default cardinality guess for a `SET<VERTEX>` parameter.
const VSET_PARAM_EST: f64 = 8.0;
/// The most targets a kernel hop runs backward from (one kernel each);
/// a larger target set runs forward from each source.
const SMALL_TARGET_SET: usize = 32;

/// Everything the planner may consult about the execution environment.
/// `graph` supplies schema + [`pgraph::graph::GraphStats`]; `tables`
/// supplies relational input cardinalities.
pub(crate) struct LowerCtx<'a> {
    /// The graph the plan will run against.
    pub graph: &'a Graph,
    /// Registered relational input tables.
    pub tables: &'a FxHashMap<String, Table>,
}

/// A kernel hop's target, as its direction rule ([`runs_backward`]) reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HopTarget {
    /// One vertex per row: a joined column, or a vertex value.
    Bound,
    /// A set of (about) this many vertices: a named vertex set, or the
    /// vertices the hop's sargable conjuncts keep.
    Set(usize),
    /// Every vertex of the target's type.
    Open,
}

/// The one rule for a kernel hop's direction: a kernel that may reverse
/// runs backward from a bound target, or from each vertex of a target set
/// of at most [`SMALL_TARGET_SET`]; else forward from each source. Path
/// reversal is a bijection, so counts are equal either way.
pub(crate) fn runs_backward(may_reverse: bool, target: HopTarget) -> bool {
    match target {
        HopTarget::Bound => may_reverse,
        HopTarget::Set(n) => may_reverse && n <= SMALL_TARGET_SET,
        HopTarget::Open => false,
    }
}

/// The execution strategy the planner chose for one pattern hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HopStrategy {
    /// Single-edge hop: enumerate the CSR adjacency of each source.
    Adjacency,
    /// Kleene or composite hop: a reachability kernel, polynomial SDMC
    /// counting (Thm 6.1) or enumerative (exponential), with its target as
    /// lowering sees it. `loop_bound`: the target variable is a FOREACH
    /// variable's name, which binds it when its value is a vertex.
    Kernel { counting: bool, may_reverse: bool, target: HopTarget, loop_bound: bool },
}

impl HopStrategy {
    /// The stable human-readable strategy phrase used in plan details:
    /// the kernel and the direction [`runs_backward`] gives for the target
    /// lowering sees, or the rule itself where only the run sees what
    /// decides it (a target set's size, a FOREACH variable's value).
    fn describe(self) -> String {
        let HopStrategy::Kernel { counting, may_reverse, target, loop_bound } = self else {
            return "adjacency scan".to_string();
        };
        let (kernel, class) = match counting {
            true => ("SDMC counting kernel", "polynomial, Thm 6.1"),
            false => ("enumerative kernel", "EXPONENTIAL"),
        };
        let dir = match target {
            HopTarget::Set(_) if may_reverse => format!(
                "backward from each target when the target set has at most \
                 {SMALL_TARGET_SET} vertices, else forward"
            ),
            _ if runs_backward(may_reverse, target) => "backward from anchored target".into(),
            _ => "forward".into(),
        };
        let unseen = match may_reverse && loop_bound {
            true => "backward from anchored target when a FOREACH variable binds it to a \
                     vertex, else ",
            false => "",
        };
        format!("{kernel}, {unseen}{dir} ({class})")
    }
}

/// How one ACCUM / POST_ACCUM clause may fold — the engine's single
/// parallel-fold gate. Decided here, once per plan, from the abstract
/// interpreter's [`BlockFacts`](crate::lint::BlockFacts); EXPLAIN's
/// strategy phrase, the FROM/hop reordering gates and the executor all
/// read this one value, and the executor trusts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldVerdict {
    /// Proven, and every statement is a `+=` combine into an exact-merge
    /// accumulator: partials merge byte-identically under *any*
    /// partitioning or row order.
    Exact,
    /// Proven with `=` assigns (row-invariant in ACCUM; per-vertex
    /// disjoint or suffix-replayed in POST_ACCUM): partials over
    /// contiguous ranges, merged in ascending order, reproduce the
    /// sequential fold.
    Proven,
    /// Not proven: the row-order fold.
    Sequential,
}

impl FoldVerdict {
    fn decide(proven: bool, stmts: &[AccStmt]) -> Self {
        let all_combine = stmts.iter().all(|s| match s {
            AccStmt::LocalDecl { .. } => true,
            AccStmt::VAcc { combine, .. } | AccStmt::GAcc { combine, .. } => *combine,
        });
        match (proven, all_combine) {
            (false, _) => FoldVerdict::Sequential,
            (true, true) => FoldVerdict::Exact,
            (true, false) => FoldVerdict::Proven,
        }
    }

    /// `true` when the clause may fold into per-range partials.
    pub fn parallel(self) -> bool {
        self != FoldVerdict::Sequential
    }
}

/// The executable plan for one SELECT block under one path semantics:
/// the split WHERE conjuncts (with the FROM variables each references),
/// the match program that builds the binding table — its binding steps,
/// each self-contained (what it scans or hops to, and a hop's resolved
/// symbol or automata), the column each FROM variable gets and where
/// each conjunct runs — and the fold verdict of each accumulator clause.
/// Steps name conjuncts by index into [`BlockPlan::conjuncts`], so
/// running a block never clones or re-walks the FROM clause, never
/// decides a layout and never resolves a DARPE.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    /// The path semantics this block was lowered under. A block has one
    /// plan per semantics the query can be in when it reaches the block
    /// ([`QueryPlan::block_plan`] picks one).
    pub semantics: PathSemantics,
    /// Split WHERE conjuncts in source order, each with the sorted,
    /// deduplicated FROM variables it references.
    pub conjuncts: Vec<(Expr, Vec<String>)>,
    /// The binding steps, in execution order: each FROM item its scan,
    /// then its hops in pattern order — of the reversed pattern where
    /// the hop-reordering gate rewrote the item. The items run in source
    /// order unless the cost model found a strictly cheaper order *and*
    /// the output-invariance gate held (see the module docs' determinism
    /// contract).
    pub(crate) steps: Vec<MatchStep>,
    /// The conjuncts no step ran (those naming no FROM variable among
    /// them), in ascending order: they filter the finished table.
    pub(crate) residual: Vec<usize>,
    /// The column of every named FROM variable in the finished binding
    /// table. Columns are appended in bind order (a hop's edge variable
    /// before its target); anonymous pattern vertices hold a column but
    /// no name. Every expression of the block binds its names here.
    pub(crate) columns: FxHashMap<String, usize>,
    /// The column POST_ACCUM iterates the distinct vertices of, and its
    /// variable — the one FROM variable the clause names, if any — or
    /// the error the clause raises when it names two.
    pub(crate) post_accum_col: Result<Option<(usize, String)>>,
    /// The block's tractable class under `semantics` (paper Section 7),
    /// which the executor raises each time the block runs.
    pub tractable: crate::tractable::Class,
    /// Fold verdict for the ACCUM clause.
    pub accum_fold: FoldVerdict,
    /// The accumulators the ACCUM clause reads while it writes them, as
    /// `(global, name)`: the block's start snapshots them, and the
    /// clause's reads of them bind to that snapshot, so every row reads
    /// the pre-clause state however its writes are applied.
    pub(crate) accum_snapshot: Vec<(bool, String)>,
    /// Fold verdict for the POST_ACCUM clause.
    pub post_accum_fold: FoldVerdict,
}

/// Where a binding step puts a FROM variable: a new column appended at
/// this position, or the column an earlier step bound it to, which the
/// step joins on (it keeps the rows whose binding there it matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarCol {
    New(usize),
    Join(usize),
}

impl VarCol {
    pub(crate) fn col(self) -> usize {
        match self {
            VarCol::New(c) | VarCol::Join(c) => c,
        }
    }
}

/// One binding step of a block's match program: it binds part of FROM
/// item `item` (index into the source list), then filters its output by
/// each `ready` conjunct — those whose FROM variables are all bound once
/// it has run — in ascending order. `label` names the step in PROFILE.
#[derive(Debug, Clone)]
pub(crate) struct MatchStep {
    pub item: usize,
    pub op: StepOp,
    pub ready: Vec<usize>,
    pub label: String,
}

/// What a [`MatchStep`] binds.
#[derive(Debug, Clone)]
pub(crate) enum StepOp {
    /// A pattern's start vertex, or a `source:var` item (`table`): the
    /// rows of the engine's table `source` when it holds one, else a
    /// vertex scan of `source` (a vertex type, vertex set or parameter).
    /// Which one is decided when the step runs, since a prepared plan
    /// may run on engines holding different tables; table rows need a
    /// new column, so a joined `var` then fails with [`bound_twice`].
    /// `var` is the variable's name in errors (`source` for an anonymous
    /// start vertex), `col` its column, and `pins` may pin a new vertex
    /// column to one vertex ([`scan_pins`]).
    Scan { source: String, var: String, table: bool, col: VarCol, pins: Vec<String> },
    Hop(HopStep),
}

/// Hop `hop` of a pattern, from the vertex in column `from`, binding its
/// edge variable in a new column `edge` and its target — vertices of
/// `to_source`, named `to_var` — in `to`.
#[derive(Debug, Clone)]
pub(crate) struct HopStep {
    pub hop: usize,
    pub from: usize,
    pub edge: Option<usize>,
    pub to: VarCol,
    pub to_source: String,
    pub to_var: Option<String>,
    /// The conjuncts that name only the hop's unbound target (sargable
    /// anchors), in the order the hop tests them: last conjunct first.
    pub targets: Vec<usize>,
    pub run: HopRun,
    /// A variable the hop binds although it holds a column already and
    /// the hop cannot join on it (its edge variable, or a target that
    /// names the edge variable): the hop fails with [`bound_twice`].
    pub rebinds: Option<String>,
}

/// What a hop step runs: as much of its [`HopStrategy`] as the executor
/// reads (adjacency scan, or a kernel that may reverse or not; counting
/// vs. enumerative is the semantics') in one value with what
/// the hop's DARPE resolved to against the schema. A resolution error
/// (an unknown edge type, a direction its type lacks) is kept here and
/// raised when the step runs, never at lowering.
#[derive(Debug, Clone)]
pub(crate) enum HopRun {
    /// A single-edge hop's adjacency scan, over the edges it matches.
    Adjacency(Result<SymbolSpec>),
    /// A Kleene or composite hop's reachability kernel.
    Kernel(Result<Automata>),
}

/// A kernel hop's compiled automaton, and its reversal exactly when the
/// strategy may reverse (the `may_reverse` that [`runs_backward`] reads).
#[derive(Debug, Clone)]
pub(crate) struct Automata {
    pub forward: Arc<CompiledDarpe>,
    pub backward: Option<Arc<CompiledDarpe>>,
}

/// A block's hops resolved against the schema, by (FROM item, hop): once
/// per lowering, shared by the block's semantics variants, which walk
/// the same hops. A reversal is built for the first variant that needs
/// it.
#[derive(Default)]
struct Resolutions(FxHashMap<(usize, usize), HopRun>);

impl Resolutions {
    /// What hop `key`, whose DARPE is `d`, runs: a kernel with its
    /// reversal when it may `reverse`.
    fn run(&mut self, key: (usize, usize), d: &Darpe, reverse: bool, schema: &Schema) -> HopRun {
        let resolved = self.0.entry(key).or_insert_with(|| match d.as_single_symbol() {
            Some(sym) => HopRun::Adjacency(resolve_symbol(sym, schema).map_err(Error::from)),
            None => HopRun::Kernel(match CompiledDarpe::compile(d, schema) {
                Ok(nfa) => Ok(Automata { forward: Arc::new(nfa), backward: None }),
                Err(e) => Err(e.into()),
            }),
        });
        if let (HopRun::Kernel(Ok(a)), true) = (&mut *resolved, reverse) {
            a.backward.get_or_insert_with(|| Arc::new(a.forward.reversed()));
        }
        let mut run = resolved.clone();
        if let (HopRun::Kernel(Ok(a)), false) = (&mut run, reverse) {
            a.backward = None;
        }
        run
    }
}

/// The error of a FROM clause that binds `var` twice where the second
/// binding cannot join on the first.
pub(crate) fn bound_twice(var: &str) -> Error {
    Error::compile(format!("variable `{var}` bound twice in FROM"))
}

/// A lowered, optimized query plan: the renderable [`Plan`] tree plus
/// the executable block plans, indexed by [`SelectBlock::id`].
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The renderable plan tree (`EXPLAIN` output), which names the
    /// engine-default semantics the plan was lowered under.
    pub plan: Plan,
    /// The graph finalize-epoch the cost estimates were computed against
    /// (0 = lowered without statistics). Prepared-statement plan caches
    /// key on this: a re-finalized graph invalidates cached plans.
    pub epoch: u64,
    /// Every semantics the query can be in when it reaches a block: the
    /// ambient one, then each one a `USE SEMANTICS` names, in source
    /// order.
    variants: Vec<PathSemantics>,
    /// Block `id` lowered under `variants[k]`, at `id * variants.len() + k`.
    /// Each plan is its own allocation: stored inline, the plans moved
    /// gsqlbench's `fold_seq` onto a heap layout that glibc trims and
    /// re-faults after every query (1.11× slower p50; see ROADMAP).
    blocks: Vec<Arc<BlockPlan>>,
    /// The vertex accumulators the query reads primed (`v.@a'`) anywhere,
    /// in first-appearance order: the only stores a block's start
    /// snapshots. (Query-wide, not per block: a WHERE clause or a PRINT
    /// reads the snapshot of the latest block to start.)
    pub(crate) primed_vaccs: Vec<String>,
}

impl QueryPlan {
    /// The executable plan for block `id` under `semantics`; `None` only
    /// for a block or semantics this plan was not lowered for.
    pub fn block_plan(&self, id: usize, semantics: PathSemantics) -> Option<&BlockPlan> {
        let k = self.variants.iter().position(|&s| s == semantics)?;
        self.blocks.get(id * self.variants.len() + k).map(|bp| &**bp)
    }
}

struct LowerState<'a, 'c> {
    ctx: Option<&'c LowerCtx<'a>>,
    /// The schema hops resolve against: the graph's, or an empty one for
    /// the graph-less EXPLAIN, whose plan never runs.
    schema: &'c Schema,
    params: &'a [Param],
    /// As in [`QueryPlan`].
    variants: Vec<PathSemantics>,
    blocks: Vec<Arc<BlockPlan>>,
    /// Planner-visible vertex-set cardinalities (`S = SELECT ...` feeds
    /// later blocks' scans).
    vset_est: FxHashMap<String, f64>,
    /// The FOREACH variables in scope.
    loop_vars: Vec<String>,
    /// Abstract-interpretation facts for the whole query (pass 6,
    /// `lint/absint.rs`): proven parallel gates, conjunct constancy and
    /// WHILE bounds, indexed by block id.
    facts: &'c QueryFacts,
}

impl Engine<'_> {
    /// Lowers `query` into the optimized [`QueryPlan`] this engine
    /// executes: cost-based (per-type cardinalities, average degrees,
    /// kernel-direction choices) against the graph's `finalize()`-time
    /// statistics. This is the plan [`Engine::run`] runs and
    /// [`Engine::explain`] renders.
    pub fn plan(&self, query: &Query) -> Arc<QueryPlan> {
        Arc::new(lower_query(query, self.semantics(), Some(&self.lower_ctx())))
    }

    /// `prepared`'s cached plan for this engine's graph epoch, schema and
    /// semantics, lowered from the statement's cached facts on a miss.
    pub(crate) fn prepared_plan(&self, prepared: &PreparedQuery) -> Arc<QueryPlan> {
        let graph = self.graph();
        prepared.plan_for(graph.stats().epoch(), graph.shared_schema(), self.semantics(), || {
            let (ctx, facts) = (self.lower_ctx(), prepared.facts());
            Arc::new(lower_query_with(prepared.query(), self.semantics(), Some(&ctx), facts))
        })
    }

    /// What the planner may consult about this engine's environment.
    fn lower_ctx(&self) -> LowerCtx<'_> {
        LowerCtx { graph: self.graph(), tables: &self.tables }
    }
}

/// Lowers `query` into a [`QueryPlan`] under `semantics`, cost-based
/// when `ctx` supplies graph statistics, running the abstract
/// interpreter for the facts — the entry point for callers holding
/// only a parsed query.
pub(crate) fn lower_query(
    query: &Query,
    semantics: PathSemantics,
    ctx: Option<&LowerCtx<'_>>,
) -> QueryPlan {
    let facts = crate::lint::compute_facts(query, &accum::UserAccumRegistry::new());
    lower_query_with(query, semantics, ctx, &facts)
}

/// [`lower_query`] over facts the caller already holds. `facts` must be
/// the abstract interpreter's result for this same query (they are
/// indexed by block id); they depend only on the AST, so a prepared
/// statement computes them once and passes them to every re-plan.
fn lower_query_with(
    query: &Query,
    semantics: PathSemantics,
    ctx: Option<&LowerCtx<'_>>,
    facts: &QueryFacts,
) -> QueryPlan {
    let mut root = PlanNode::new(
        "query",
        format!("QUERY {} [{:?} semantics]", query.name, semantics),
    );
    let mut variants = vec![semantics];
    named_semantics(&query.body, &mut |s| {
        if !variants.contains(&s) {
            variants.push(s);
        }
    });
    let empty = Schema::default();
    let mut st = LowerState {
        ctx,
        schema: ctx.map_or(&empty, |c| c.graph.schema()),
        params: &query.params,
        variants,
        blocks: Vec::new(),
        vset_est: FxHashMap::default(),
        loop_vars: Vec::new(),
        facts,
    };
    lower_stmts(&query.body, semantics, &mut st, &mut root.children);
    let mut primed_vaccs: Vec<String> = Vec::new();
    crate::lint::query_exprs(query, &mut |e, _| {
        e.walk(&mut |sub| {
            if let Expr::VAcc { name, prev: true, .. } = sub {
                if !primed_vaccs.contains(name) {
                    primed_vaccs.push(name.clone());
                }
            }
        })
    });
    QueryPlan {
        epoch: ctx.map_or(0, |c| c.graph.stats().epoch()),
        plan: Plan { query: query.name.clone(), semantics, root },
        variants: st.variants,
        blocks: st.blocks,
        primed_vaccs,
    }
}

/// Lowers `block` under every semantics in `st.variants`, with the same
/// parameters and vertex-set estimates, and appends the plans. Returns
/// the node and output estimate of the variant under `semantics` — the
/// one the walk reaches the block in, which EXPLAIN renders.
fn lower_block_variants(
    block: &SelectBlock,
    semantics: PathSemantics,
    st: &mut LowerState<'_, '_>,
) -> (PlanNode, f64) {
    debug_assert_eq!(block.id * st.variants.len(), st.blocks.len(), "blocks lowered in id order");
    let mut walked = None;
    let mut resolved = Resolutions::default();
    for k in 0..st.variants.len() {
        let (node, bp, est) = lower_block(block, st.variants[k], st, &mut resolved);
        if bp.semantics == semantics {
            walked = Some((node, est));
        }
        st.blocks.push(Arc::new(bp));
    }
    walked.expect("the walk's semantics is one of the variants")
}

fn lower_stmts(
    stmts: &[Stmt],
    mut semantics: PathSemantics,
    st: &mut LowerState<'_, '_>,
    out: &mut Vec<PlanNode>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::UseSemantics(s) => {
                semantics = *s;
                out.push(PlanNode::new(
                    "use-semantics",
                    format!("USE SEMANTICS -> {semantics:?}"),
                ));
            }
            Stmt::Select(block) => out.push(lower_block_variants(block, semantics, st).0),
            Stmt::VSetAssign { name, source, .. } => match source {
                VSetSource::Select(block) => {
                    out.push(PlanNode::new(
                        "vset-assign",
                        format!("{name} = <block {}>", block.id + 1),
                    ));
                    let (node, est) = lower_block_variants(block, semantics, st);
                    st.vset_est.insert(name.clone(), est);
                    out.push(node);
                }
                VSetSource::Literal(entries) => {
                    let mut node = PlanNode::new(
                        "vset-assign",
                        format!("{name} = scan {{{}}}", entries.join(", ")),
                    );
                    // Recorded without statistics too: it names a vertex set.
                    let est: f64 = entries.iter().map(|e| scan_est(e, None, st)).sum();
                    st.vset_est.insert(name.clone(), est);
                    if st.ctx.is_some() {
                        annotate(&mut node, est, est);
                    }
                    out.push(node);
                }
                VSetSource::SetOp { op, lhs, rhs } => {
                    let mut node = PlanNode::new(
                        "vset-assign",
                        format!("{name} = {lhs} {op:?} {rhs}"),
                    );
                    let (l, r) = (scan_est(lhs, None, st), scan_est(rhs, None, st));
                    let est = match op {
                        SetOp::Union => l + r,
                        SetOp::Intersect => l.min(r),
                        SetOp::Minus => l,
                    };
                    st.vset_est.insert(name.clone(), est);
                    if st.ctx.is_some() {
                        annotate(&mut node, est, l + r);
                    }
                    out.push(node);
                }
            },
            Stmt::While { body, limit, .. } => {
                let mut node = PlanNode::new(
                    "while",
                    format!(
                        "WHILE loop{}:",
                        if limit.is_some() { " (bounded)" } else { "" }
                    ),
                );
                lower_stmts(body, semantics, st, &mut node.children);
                out.push(node);
            }
            Stmt::If { then_branch, else_branch, .. } => {
                let mut node = PlanNode::new("if", "IF:");
                lower_stmts(then_branch, semantics, st, &mut node.children);
                out.push(node);
                if !else_branch.is_empty() {
                    let mut node = PlanNode::new("else", "ELSE:");
                    lower_stmts(else_branch, semantics, st, &mut node.children);
                    out.push(node);
                }
            }
            Stmt::Foreach { var, body, .. } => {
                let mut node = PlanNode::new("foreach", format!("FOREACH {var}:"));
                st.loop_vars.push(var.clone());
                lower_stmts(body, semantics, st, &mut node.children);
                st.loop_vars.pop();
                out.push(node);
            }
            _ => {}
        }
    }
}

/// Attaches `est_rows`/`est_cost` to a node (estimates are clamped to
/// non-negative and rendered as rounded integers).
fn annotate(node: &mut PlanNode, rows: f64, cost: f64) {
    node.est_rows = Some(rows.max(0.0).round() as u64);
    node.est_cost = Some(cost.max(0.0).round() as u64);
}

/// Estimated cardinality of scanning `name` (vertex type, vertex-set
/// variable, parameter, or `_`/`ANY`), narrowed to 1 when the binding
/// variable is anchored by a same-named vertex parameter (as the
/// executor pins such a scan).
fn scan_est(name: &str, var: Option<&str>, st: &LowerState<'_, '_>) -> f64 {
    let Some(ctx) = st.ctx else { return 0.0 };
    let stats = ctx.graph.stats();
    let est = if let Some(e) = st.vset_est.get(name) {
        *e
    } else if name == "_" || name.eq_ignore_ascii_case("any") {
        stats.total_vertices() as f64
    } else if let Some(vt) = ctx.graph.schema().vertex_type_id(name) {
        stats.vertex_count(vt) as f64
    } else {
        match st.params.iter().find(|p| p.name == name).map(|p| &p.ty) {
            Some(ParamType::Vertex(_)) => 1.0,
            Some(ParamType::VertexSet) => VSET_PARAM_EST,
            _ => 1.0,
        }
    };
    let anchored = var.is_some_and(|v| {
        st.params.iter().any(|p| p.name == v && matches!(p.ty, ParamType::Vertex(_)))
    });
    if anchored {
        est.min(1.0)
    } else {
        est
    }
}

/// Whether a hop target named `name` is an explicit vertex set — a
/// vertex-set variable, or a set or vertex parameter — rather than a
/// vertex type or `_`, resolved in the executor's order.
fn names_vertex_set(name: &str, st: &LowerState<'_, '_>) -> bool {
    let param = |p: &Param| {
        p.name == name && matches!(p.ty, ParamType::Vertex(_) | ParamType::VertexSet)
    };
    st.vset_est.contains_key(name)
        || st.schema.vertex_type_id(name).is_none() && st.params.iter().any(param)
}

/// Cardinality left after applying one WHERE conjunct to `card` input
/// rows. Equality is modelled as a point lookup (clamped to
/// [`EQ_POINT_ROWS`] — fractional selectivities diverge from reality as
/// the graph grows); every other predicate keeps a fixed fraction.
fn filtered_card(card: f64, e: &Expr) -> f64 {
    match e {
        Expr::Binary { op: BinOp::Eq, .. } => card.min(EQ_POINT_ROWS),
        _ => card * SEL_OTHER,
    }
}

/// Estimated adjacency fanout of one DARPE symbol: edges matched per
/// source vertex, averaged over the population the symbol can actually
/// start from (the edge type's schema-declared endpoint types), not the
/// whole graph — averaging over unrelated vertex types would dilute the
/// fanout of type-constrained edges on heterogeneous graphs.
fn symbol_fanout(sym: &Symbol, ctx: &LowerCtx<'_>) -> f64 {
    use pgraph::schema::VTypeId;
    let stats = ctx.graph.stats();
    let schema = ctx.graph.schema();
    let total_v = stats.total_vertices().max(1) as f64;
    // Population of the endpoint side a traversal starts from: the
    // schema-declared endpoint types when present, otherwise the vertex
    // types that actually carry this edge type in the loaded graph (the
    // per-type degree tables collected at `finalize()`).
    let side_pop = |declared: &[VTypeId], incoming: bool, et: ETypeId| -> f64 {
        if !declared.is_empty() {
            return declared
                .iter()
                .map(|vt| stats.vertex_count(*vt) as f64)
                .sum::<f64>()
                .max(1.0);
        }
        let mut pop = 0.0;
        for i in 0..schema.vertex_type_count() {
            let vt = VTypeId(i as u32);
            let d = if incoming {
                stats.avg_in_degree(vt, et)
            } else {
                stats.avg_out_degree(vt, et)
            };
            if d > 0.0 {
                pop += stats.vertex_count(vt) as f64;
            }
        }
        if pop > 0.0 { pop } else { total_v }
    };
    let ets: Vec<ETypeId> = match &sym.edge_type {
        Some(name) => schema.edge_type_id(name).into_iter().collect(),
        None => (0..schema.edge_type_count()).map(|i| ETypeId(i as u32)).collect(),
    };
    let mut fanout = 0.0;
    for et in ets {
        let def = schema.edge_type(et);
        let e = stats.edge_count(et) as f64;
        fanout += match (sym.dir, def.directed) {
            // An undirected edge appears in the CSR from both endpoints;
            // out-degree statistics include undirected incidence.
            (DarpeDir::Undirected, false) | (DarpeDir::Any, false) => {
                let mut vts: Vec<VTypeId> = def.from_types.clone();
                for vt in &def.to_types {
                    if !vts.contains(vt) {
                        vts.push(*vt);
                    }
                }
                2.0 * e / side_pop(&vts, false, et)
            }
            (DarpeDir::Undirected, true) => 0.0,
            (DarpeDir::Any, true) => {
                e / side_pop(&def.from_types, false, et)
                    + e / side_pop(&def.to_types, true, et)
            }
            (DarpeDir::Forward, true) => e / side_pop(&def.from_types, false, et),
            (DarpeDir::Reverse, true) => e / side_pop(&def.to_types, true, et),
            (DarpeDir::Forward | DarpeDir::Reverse, false) => 0.0,
        };
    }
    fanout
}

fn darpe_symbols<'d>(d: &'d Darpe, out: &mut Vec<&'d Symbol>) {
    match d {
        Darpe::Symbol(s) => out.push(s),
        Darpe::Concat(xs) | Darpe::Alt(xs) => {
            for x in xs {
                darpe_symbols(x, out);
            }
        }
        Darpe::Repeat { inner, .. } => darpe_symbols(inner, out),
    }
}

/// Total number of CSR entries a reachability kernel over `d` may touch
/// (the `E_sub` term of the kernel cost model): the raw matched-edge
/// count per symbol, doubled where both CSR directions are walked.
fn darpe_edge_total(d: &Darpe, ctx: &LowerCtx<'_>) -> f64 {
    let mut syms = Vec::new();
    darpe_symbols(d, &mut syms);
    let stats = ctx.graph.stats();
    let schema = ctx.graph.schema();
    let mut total = 0.0;
    for sym in syms {
        let ets: Vec<ETypeId> = match &sym.edge_type {
            Some(name) => schema.edge_type_id(name).into_iter().collect(),
            None => (0..schema.edge_type_count()).map(|i| ETypeId(i as u32)).collect(),
        };
        for et in ets {
            let e = stats.edge_count(et) as f64;
            let directed = schema.edge_type(et).directed;
            total += match (sym.dir, directed) {
                (DarpeDir::Undirected, false) | (DarpeDir::Any, false) => 2.0 * e,
                (DarpeDir::Undirected, true) => 0.0,
                (DarpeDir::Any, true) => 2.0 * e,
                (DarpeDir::Forward | DarpeDir::Reverse, true) => e,
                (DarpeDir::Forward | DarpeDir::Reverse, false) => 0.0,
            };
        }
    }
    total
}

fn expr_label(e: &Expr) -> String {
    match e {
        Expr::Binary { op, lhs, rhs } => {
            format!("{} {op:?} {}", expr_label(lhs), expr_label(rhs))
        }
        Expr::Ident(n) => n.clone(),
        Expr::Attr { base, field } => format!("{base}.{field}"),
        Expr::VAcc { var, name, .. } => format!("{var}.@{name}"),
        Expr::GAcc(n) => format!("@@{n}"),
        Expr::Str(s) => format!("'{s}'"),
        Expr::Int(i) => i.to_string(),
        Expr::Double(d) => d.to_string(),
        Expr::Call { func, .. } => format!("{func}(..)"),
        _ => "<expr>".to_string(),
    }
}

fn collect_refs<'e>(e: &'e Expr, out: &mut Vec<&'e str>) {
    e.walk(&mut |sub| match sub {
        Expr::Ident(n) | Expr::Attr { base: n, .. } | Expr::VAcc { var: n, .. } => out.push(n),
        _ => {}
    });
}

/// Whether a WHERE conjunct whose FROM-variable references are `refs`
/// names only `var` — a sargable anchor of the hop into an unbound `var`,
/// consumed by that hop rather than by a later filter.
fn names_only(refs: &[String], var: &str) -> bool {
    refs.len() == 1 && refs[0] == var
}

/// Splits an expression on top-level `AND` into conjuncts.
pub(crate) fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary { op: BinOp::And, lhs, rhs } = e {
        split_conjuncts(lhs, out);
        split_conjuncts(rhs, out);
    } else {
        out.push(e.clone());
    }
}

/// All variables the FROM clause will bind.
pub(crate) fn from_bound_vars(items: &[FromItem]) -> FxHashSet<String> {
    let mut out = FxHashSet::default();
    for item in items {
        match item {
            FromItem::Table { alias, .. } => {
                out.insert(alias.clone());
            }
            FromItem::Pattern { start, hops, .. } => {
                if let Some(v) = &start.var {
                    out.insert(v.clone());
                }
                for h in hops {
                    if let Some(v) = &h.edge_var {
                        out.insert(v.clone());
                    }
                    if let Some(v) = &h.to.var {
                        out.insert(v.clone());
                    }
                }
            }
        }
    }
    out
}

/// Cost of running one FROM item as the *outer* loop, independent of
/// the other items: its scan cardinality after item-local conjunct
/// narrowing, plus per-hop traversal terms mirroring the sequential
/// model (adjacency fanout for single symbols, `E_sub` for kernels).
fn standalone_item_cost(
    item: &FromItem,
    vars: &FxHashSet<String>,
    conjuncts: &[(Expr, Vec<String>)],
    st: &LowerState<'_, '_>,
) -> f64 {
    let ctx = st.ctx.expect("reorder gate requires statistics");
    match item {
        FromItem::Table { name, alias } => match ctx.tables.get(name.as_str()) {
            Some(t) => t.len() as f64,
            None => scan_est(name, Some(alias), st).max(1.0),
        },
        FromItem::Pattern { start, hops, .. } => {
            let mut rows = scan_est(&start.name, start.var.as_deref(), st).max(1.0);
            for (c, refs) in conjuncts {
                if !refs.is_empty() && refs.iter().all(|r| vars.contains(r)) {
                    rows = filtered_card(rows, c);
                }
            }
            let mut cost = rows;
            for hop in hops {
                let per_row = match hop.darpe.as_single_symbol() {
                    Some(sym) => symbol_fanout(sym, ctx),
                    None => darpe_edge_total(&hop.darpe, ctx),
                };
                cost += rows * per_row.max(1.0);
            }
            cost
        }
    }
}

/// Decides a cost-based execution order for the FROM items (closing the
/// reorder question PR 7 left open). Returns the permutation as indices
/// into `block.from`, or empty when the gate fails or the cheapest order
/// *is* the source order.
///
/// Output-invariance gate — every condition must hold:
/// * statistics are present and there are at least two items;
/// * items bind pairwise-disjoint variable sets (no correlated join);
/// * every WHERE conjunct references variables of at most one item — a
///   cross-item conjunct filters the *product*, and the surviving rows'
///   first-occurrence vertex order then depends on which item is outer;
/// * every output is a vertex set (table outputs are row-order
///   sensitive);
/// * there is no GROUP BY;
/// * the ACCUM clause folds [`FoldVerdict::Exact`] — reordering
///   permutes combine order, which only exact-merge combiners are
///   guaranteed not to observe bit-for-bit.
fn choose_from_order(
    block: &SelectBlock,
    conjuncts: &[(Expr, Vec<String>)],
    accum_fold: FoldVerdict,
    st: &LowerState<'_, '_>,
) -> Vec<usize> {
    if st.ctx.is_none()
        || block.from.len() < 2
        || block.group_by.is_some()
        || accum_fold != FoldVerdict::Exact
    {
        return Vec::new();
    }
    for frag in &block.outputs {
        let vertex_set = frag.items.len() == 1
            && frag.items[0].alias.is_none()
            && matches!(frag.items[0].expr, Expr::Ident(_));
        if !vertex_set {
            return Vec::new();
        }
    }
    let var_sets: Vec<FxHashSet<String>> = block
        .from
        .iter()
        .map(|item| from_bound_vars(std::slice::from_ref(item)))
        .collect();
    for (i, a) in var_sets.iter().enumerate() {
        for b in &var_sets[i + 1..] {
            if a.iter().any(|v| b.contains(v)) {
                return Vec::new();
            }
        }
    }
    for (_, refs) in conjuncts {
        if !refs.is_empty()
            && !var_sets.iter().any(|vs| refs.iter().all(|r| vs.contains(r)))
        {
            return Vec::new();
        }
    }
    let costs: Vec<f64> = block
        .from
        .iter()
        .enumerate()
        .map(|(i, item)| standalone_item_cost(item, &var_sets[i], conjuncts, st))
        .collect();
    let mut order: Vec<usize> = (0..block.from.len()).collect();
    // Stable ascending sort: ties keep source order, so a reorder only
    // happens on a *strictly* cheaper anchor.
    order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
    if order.iter().enumerate().all(|(i, &x)| i == x) {
        Vec::new()
    } else {
        order
    }
}

/// Recursively reverses a DARPE: concatenation order flips and every
/// symbol's direction adornment mirrors (`E>` ↔ `<E`, undirected and
/// wildcard-any unchanged), so the reversed expression matches exactly
/// the edge-wise reversals of the original's paths.
fn reverse_darpe(d: &Darpe) -> Darpe {
    match d {
        Darpe::Symbol(s) => Darpe::Symbol(Symbol {
            edge_type: s.edge_type.clone(),
            dir: match s.dir {
                DarpeDir::Forward => DarpeDir::Reverse,
                DarpeDir::Reverse => DarpeDir::Forward,
                other => other,
            },
        }),
        Darpe::Concat(xs) => Darpe::Concat(xs.iter().rev().map(reverse_darpe).collect()),
        Darpe::Alt(xs) => Darpe::Alt(xs.iter().map(reverse_darpe).collect()),
        Darpe::Repeat { inner, min, max } => Darpe::Repeat {
            inner: Box::new(reverse_darpe(inner)),
            min: *min,
            max: *max,
        },
    }
}

/// Builds the whole-pattern reversal of `start -(h1)- v1 ... -(hn)- end`:
/// `end -(rev hn)- ... v1 -(rev h1)- start`. Edge variables stay with
/// their hop (the traversed edge set is identical either way).
fn reversed_pattern(graph: &Option<String>, start: &VSpec, hops: &[Hop]) -> FromItem {
    let mut new_hops = Vec::with_capacity(hops.len());
    for (i, h) in hops.iter().enumerate().rev() {
        let to = if i == 0 { start.clone() } else { hops[i - 1].to.clone() };
        new_hops.push(Hop {
            darpe: reverse_darpe(&h.darpe),
            edge_var: h.edge_var.clone(),
            to,
        });
    }
    FromItem::Pattern {
        graph: graph.clone(),
        start: hops[hops.len() - 1].to.clone(),
        hops: new_hops,
    }
}

/// True when every aggregate call in `e` folds order-invariantly —
/// `count` (multiplicity sums are exact integers), `min`, `max`. A
/// float `sum`/`avg` is order-sensitive at the representation level,
/// so it blocks row-reordering rewrites.
fn exact_aggregates_only(e: &Expr) -> bool {
    let mut ok = true;
    e.walk(&mut |sub| {
        if let Expr::Call { func, args, star } = sub {
            let f = func.to_ascii_lowercase();
            let is_agg = *star
                || (args.len() == 1
                    && matches!(f.as_str(), "count" | "sum" | "avg" | "min" | "max"));
            if is_agg && !*star && !matches!(f.as_str(), "count" | "min" | "max") {
                ok = false;
            }
        }
    });
    ok
}

/// Estimated cardinality of one pattern endpoint, narrowed to a point
/// lookup when an equality conjunct references only that endpoint's
/// binding variable (mirror of the executor's sargable refinement).
fn anchored_card(
    spec: &VSpec,
    conjuncts: &[(Expr, Vec<String>)],
    st: &LowerState<'_, '_>,
) -> f64 {
    let est = scan_est(&spec.name, spec.var.as_deref(), st);
    let eq_anchored = spec.var.as_ref().is_some_and(|v| {
        conjuncts.iter().any(|(c, refs)| {
            refs.len() == 1
                && refs[0] == *v
                && matches!(c, Expr::Binary { op: BinOp::Eq, .. })
        })
    });
    if eq_anchored {
        est.min(EQ_POINT_ROWS)
    } else {
        est
    }
}

/// Hop-reordering gate (ROADMAP item 2): when a block's single FROM
/// pattern is a chain of single-edge hops whose *far* endpoint is
/// provably cheaper to anchor than its source — and every consumer of
/// the block's rows is row-order invariant — the planner substitutes
/// the reversed pattern. Returns the rewritten item plus the (forward,
/// backward) endpoint estimates when the reversal is strictly cheaper.
///
/// Row order changes under reversal, so the gate requires: aggregate-
/// only outputs with exact (`count`/`min`/`max`) aggregates, no GROUP
/// BY / HAVING / ORDER BY / LIMIT, and an order-invariant ACCUM clause
/// (any [`FoldVerdict`] but `Sequential`). POST_ACCUM is always safe — it iterates the sorted distinct
/// vertex set, a pure function of the row *multiset*. Vertex-set
/// outputs are excluded (their stored order is first-occurrence row
/// order, which PRINT and later scans observe).
fn choose_hop_reversal(
    block: &SelectBlock,
    conjuncts: &[(Expr, Vec<String>)],
    accum_order_invariant: bool,
    st: &LowerState<'_, '_>,
) -> Option<(FromItem, f64, f64)> {
    if st.ctx.is_none() || block.from.len() != 1 {
        return None;
    }
    let FromItem::Pattern { graph, start, hops } = &block.from[0] else {
        return None;
    };
    if hops.is_empty() || hops.iter().any(|h| h.darpe.as_single_symbol().is_none()) {
        return None;
    }
    if block.group_by.is_some()
        || block.having.is_some()
        || !block.order_by.is_empty()
        || block.limit.is_some()
        || !accum_order_invariant
    {
        return None;
    }
    for frag in &block.outputs {
        let all_exact_aggregates = frag
            .items
            .iter()
            .all(|i| i.expr.contains_aggregate() && exact_aggregates_only(&i.expr));
        if !all_exact_aggregates {
            return None;
        }
    }
    let end = &hops[hops.len() - 1].to;
    let fwd = anchored_card(start, conjuncts, st);
    let bwd = anchored_card(end, conjuncts, st);
    if bwd < fwd {
        Some((reversed_pattern(graph, start, hops), fwd, bwd))
    } else {
        None
    }
}

/// The binding table's columns as the match-program walk binds them:
/// named variables' columns, and the width (anonymous columns included).
#[derive(Default)]
struct Layout {
    columns: FxHashMap<String, usize>,
    width: usize,
}

impl Layout {
    /// Appends a column for `var` (anonymous when `None`).
    fn push(&mut self, var: Option<&str>) -> usize {
        if let Some(v) = var {
            self.columns.insert(v.to_string(), self.width);
        }
        self.width += 1;
        self.width - 1
    }

    /// Where a vertex variable goes: the column it holds already, else a
    /// new one.
    fn slot(&mut self, var: Option<&str>) -> VarCol {
        match var.and_then(|v| self.columns.get(v)) {
            Some(&c) => VarCol::Join(c),
            None => VarCol::New(self.push(var)),
        }
    }
}

/// What may pin a scan into `var` to one vertex: `var` itself, then the
/// other side of each live `var == p` conjunct in ascending order. The
/// first that names a vertex when the scan runs (a vertex parameter or
/// FOREACH variable) wins; the conjunct still runs after the scan. Empty
/// for an anonymous variable or one the scan joins on.
fn scan_pins(
    var: Option<&str>,
    layout: &Layout,
    live: &[bool],
    conjuncts: &[(Expr, Vec<String>)],
) -> Vec<String> {
    let Some(var) = var.filter(|v| !layout.columns.contains_key(*v)) else { return Vec::new() };
    let mut pins = vec![var.to_string()];
    for (i, (c, _)) in conjuncts.iter().enumerate() {
        if let (true, Expr::Binary { op: BinOp::Eq, lhs, rhs }) = (live[i], c) {
            match (&**lhs, &**rhs) {
                (Expr::Ident(a), Expr::Ident(b)) if a == var => pins.push(b.clone()),
                (Expr::Ident(a), Expr::Ident(b)) if b == var => pins.push(a.clone()),
                _ => {}
            }
        }
    }
    pins
}

/// The column and name of the one FROM variable a POST_ACCUM clause
/// iterates (paper Section 4.4 / real-GSQL restriction: POST_ACCUM
/// statements may reference at most one vertex alias of the FROM
/// clause), `None` when it names none, or the error it raises when it
/// names two.
fn post_accum_col(
    stmts: &[AccStmt],
    columns: &FxHashMap<String, usize>,
) -> Result<Option<(usize, String)>> {
    let mut names: Vec<&str> = Vec::new();
    for stmt in stmts {
        match stmt {
            AccStmt::VAcc { var, expr, .. } => {
                names.push(var);
                collect_refs(expr, &mut names);
            }
            AccStmt::GAcc { expr, .. } | AccStmt::LocalDecl { expr, .. } => {
                collect_refs(expr, &mut names);
            }
        }
    }
    let mut found: Option<&str> = None;
    for n in names.into_iter().filter(|n| columns.contains_key(*n)) {
        match found {
            None => found = Some(n),
            Some(f) if f == n => {}
            Some(f) => {
                return Err(Error::compile(format!(
                    "POST_ACCUM references two FROM variables (`{f}` and `{n}`); \
                     it may reference at most one vertex alias"
                )))
            }
        }
    }
    Ok(found.map(|n| (columns[n], n.to_string())))
}

/// Lowers one SELECT block: produces the renderable node, the
/// executable [`BlockPlan`], and the estimated output cardinality. Its
/// hops resolve through `resolved`, which the block's variants share.
fn lower_block(
    block: &SelectBlock,
    semantics: PathSemantics,
    st: &LowerState<'_, '_>,
    resolved: &mut Resolutions,
) -> (PlanNode, BlockPlan, f64) {
    let mut node = PlanNode::new("block", format!("BLOCK {}:", block.id + 1));
    let with_est = st.ctx.is_some();
    // Absint facts for this block. The fold verdicts are decided here,
    // once, from the gates the abstract interpreter proved (see
    // `lint/absint.rs`); everything below and the executor read them.
    let bf = st.facts.blocks.get(block.id);
    let accum_fold =
        FoldVerdict::decide(bf.is_some_and(|f| f.accum_parallel), &block.accum);
    let post_accum_fold =
        FoldVerdict::decide(bf.is_some_and(|f| f.post_accum_parallel), &block.post_accum);

    // Conjunct bookkeeping: split WHERE once, here — the executor reads
    // this exact list (by index) instead of re-splitting per run.
    let will_bind = from_bound_vars(&block.from);
    let mut conjuncts: Vec<(Expr, Vec<String>)> = Vec::new();
    if let Some(w) = &block.where_clause {
        let mut parts = Vec::new();
        split_conjuncts(w, &mut parts);
        for c in parts {
            let mut refs = Vec::new();
            collect_refs(&c, &mut refs);
            refs.retain(|r| will_bind.contains(*r));
            refs.sort_unstable();
            refs.dedup();
            let refs = refs.into_iter().map(String::from).collect();
            conjuncts.push((c, refs));
        }
    }
    // The match program: one walk over the binding steps, in FROM order,
    // decides each variable's column, which conjuncts each step makes
    // ready, which ones a hop tests on its unbound target and which are
    // left over. EXPLAIN's pushdown nodes and the executor's steps both
    // come from it. `live` marks the conjuncts no step has taken yet.
    let mut live: Vec<bool> = vec![true; conjuncts.len()];
    let mut layout = Layout::default();
    let mut steps: Vec<MatchStep> = Vec::new();
    let mut rows = 1.0f64;
    let mut cost_total = 0.0f64;
    // Per-conjunct proven constancy from the interval analysis, aligned
    // with `split_conjuncts` order (the same split used above). A proven-
    // FALSE conjunct zeroes the estimate; a proven-TRUE one keeps every
    // row instead of paying the default selectivity.
    let conj_const: &[Option<bool>] = bf.map_or(&[], |f| &f.conjunct_const);
    let conjunct_rows = |i: usize, rows: f64, c: &Expr| -> (f64, &'static str) {
        match conj_const.get(i).copied().flatten() {
            Some(false) => (0.0, " [proven false: empty]"),
            Some(true) => (rows, " [proven true: no-op]"),
            None => (filtered_card(rows, c), ""),
        }
    };
    // Takes every live conjunct whose variables are all bound, attaches
    // it to `parent` (the binding step that made it ready) as a
    // pushdown-filter child and returns the taken indices, ascending.
    let take_ready = |layout: &Layout,
                      live: &mut Vec<bool>,
                      rows: &mut f64,
                      parent: &mut PlanNode|
     -> Vec<usize> {
        let mut ready = Vec::new();
        for (i, (c, refs)) in conjuncts.iter().enumerate() {
            if !live[i] || refs.is_empty() || !refs.iter().all(|v| layout.columns.contains_key(v)) {
                continue;
            }
            live[i] = false;
            ready.push(i);
            let cost = *rows;
            let (next, note) = conjunct_rows(i, *rows, c);
            *rows = next;
            let mut f = PlanNode::new(
                "pushdown-filter",
                format!("pushdown filter: {}{note}", expr_label(c)),
            );
            if with_est {
                annotate(&mut f, *rows, cost);
            }
            parent.children.push(f);
        }
        ready
    };

    let mut from_order = choose_from_order(block, &conjuncts, accum_fold, st);
    if from_order.is_empty() {
        from_order = (0..block.from.len()).collect();
    } else {
        let order_str: Vec<String> = from_order.iter().map(|i| i.to_string()).collect();
        node.children.push(PlanNode::new(
            "from-reorder",
            format!(
                "from-reorder: cost-chosen item order [{}] (output-invariant)",
                order_str.join(", ")
            ),
        ));
    }
    // Hop reordering: reverse the whole pattern when the far endpoint
    // is the cheaper anchor and every row consumer is order-invariant.
    // The walk below then lays its steps out from the rewritten item.
    let mut rewritten: Option<FromItem> = None;
    if let Some((rev, fwd, bwd)) =
        choose_hop_reversal(block, &conjuncts, accum_fold.parallel(), st)
    {
        node.children.push(PlanNode::new(
            "hop-reorder",
            format!(
                "hop-reorder: reordered: true — reversed traversal (anchored end \
                 est {} rows < start est {} rows; result-equivalent: exact \
                 aggregates only)",
                bwd.round(),
                fwd.round()
            ),
        ));
        rewritten = Some(rev);
    }
    for &item_idx in &from_order {
        let item = match &rewritten {
            Some(rev) if item_idx == 0 => rev,
            _ => &block.from[item_idx],
        };
        // A `name:alias` item binds its alias like a start vertex with no
        // hops, from the engine's table `name` when it holds one.
        let (source, var, table, hops) = match item {
            FromItem::Table { name, alias } => (name, Some(alias), true, &[][..]),
            FromItem::Pattern { start, hops, .. } => {
                (&start.name, start.var.as_ref(), false, &hops[..])
            }
        };
        let (detail, label) = match (var, table) {
            (Some(v), true) => {
                (format!("{source} AS {v} (table or vertex set)"), format!("{source} AS {v}"))
            }
            (Some(v), false) => (format!("{source} AS {v}"), format!("{source}:{v}")),
            (None, _) => (source.clone(), source.clone()),
        };
        let mut scan = PlanNode::new("scan", format!("scan {detail}"));
        if with_est {
            let card = match st.ctx.and_then(|c| c.tables.get(source)).filter(|_| table) {
                Some(t) => t.len() as f64,
                None => scan_est(source, var.map(String::as_str), st),
            };
            rows *= card.max(1.0);
            cost_total += rows;
            annotate(&mut scan, rows, rows);
        }
        let pins = scan_pins(var.map(String::as_str), &layout, &live, &conjuncts);
        let col = layout.slot(var.map(String::as_str));
        let ready = take_ready(&layout, &mut live, &mut rows, &mut scan);
        node.children.push(scan);
        let var = var.unwrap_or(source).clone();
        steps.push(MatchStep {
            item: item_idx,
            label: format!("scan {label}"),
            op: StepOp::Scan { source: source.clone(), var, table, col, pins },
            ready,
        });
        let mut from = col.col();
        for (hop_idx, hop) in hops.iter().enumerate() {
            let to = hop.to.var.as_ref().map(|v| format!("{} AS {v}", hop.to.name));
            let to = to.unwrap_or_else(|| hop.to.name.clone());
            // A target bound before the hop is joined on.
            let joined: Option<usize> =
                hop.to.var.as_ref().and_then(|tv| layout.columns.get(tv).copied());
            let target_already_bound = joined.is_some();
            // Sargable conjuncts reference only the (not yet
            // bound) hop target: they narrow the candidate set
            // before the kernel runs.
            let sargable_idx: Vec<usize> = match &hop.to.var {
                Some(tv) if !target_already_bound => conjuncts
                    .iter()
                    .enumerate()
                    .filter(|(i, (_, refs))| live[*i] && names_only(refs, tv))
                    .map(|(i, _)| i)
                    .collect(),
                _ => Vec::new(),
            };
            // Estimated distinct-target cardinality after sargable
            // narrowing and parameter anchoring; `target_base` is the
            // unnarrowed type population.
            let target_base = scan_est(&hop.to.name, hop.to.var.as_deref(), st).max(1.0);
            let mut target_card = target_base;
            for &i in &sargable_idx {
                target_card = filtered_card(target_card, &conjuncts[i].0);
            }
            let param_bound = hop.to.var.as_ref().is_some_and(|tv| {
                st.params.iter().any(|p| p.name == *tv && matches!(p.ty, ParamType::Vertex(_)))
            });
            let loop_bound = !target_already_bound
                && hop.to.var.as_ref().is_some_and(|tv| st.loop_vars.contains(tv));
            let target_anchored = !sargable_idx.is_empty() || target_already_bound || param_bound;
            if target_already_bound {
                target_card = 1.0;
            }
            // What the executor will observe (a FOREACH variable shadows a parameter).
            let target = if target_already_bound || param_bound && !loop_bound {
                HopTarget::Bound
            } else if !sargable_idx.is_empty() || names_vertex_set(&hop.to.name, st) {
                HopTarget::Set(target_card.ceil() as usize)
            } else {
                HopTarget::Open
            };
            // An enumerative kernel may always reverse; a counting one
            // when its target side is anchored and estimated strictly
            // smaller (forward is kept on ties).
            let counting = !semantics.is_enumerative();
            let may_reverse = !counting || target_anchored && with_est && target_card < rows;
            let strategy = match hop.darpe.as_single_symbol() {
                Some(_) => HopStrategy::Adjacency,
                None => HopStrategy::Kernel { counting, may_reverse, target, loop_bound },
            };
            let hop_detail = format!("hop -({})-> {to}: {}", hop.darpe, strategy.describe());
            let mut hop_node = PlanNode::new("hop", hop_detail);
            if with_est {
                let ctx = st.ctx.unwrap();
                let (out_rows, cost) = match strategy {
                    HopStrategy::Adjacency => {
                        let sym = hop.darpe.as_single_symbol().unwrap();
                        let fanout = symbol_fanout(sym, ctx);
                        // Anchoring keeps only the narrowed fraction of
                        // the target type; an unanchored hop keeps every
                        // neighbor (the edge type already constrains the
                        // target type, so no further scaling).
                        let frac = (target_card / target_base).min(1.0);
                        (rows * fanout * frac, rows * fanout)
                    }
                    HopStrategy::Kernel { .. } => {
                        let e_sub = darpe_edge_total(&hop.darpe, ctx);
                        let reach = (target_card * REACH_FRACTION).max(1.0);
                        let backward = runs_backward(may_reverse, target);
                        let kernels = if backward { target_card.max(1.0) } else { rows };
                        (rows * reach, kernels * e_sub)
                    }
                };
                rows = out_rows;
                cost_total += cost;
                annotate(&mut hop_node, rows, cost);
            }
            // The hop consumes its sargable conjuncts.
            for &i in &sargable_idx {
                live[i] = false;
                let mut a = PlanNode::new(
                    "sargable-anchor",
                    format!("sargable anchor: {}", expr_label(&conjuncts[i].0)),
                );
                if with_est {
                    annotate(&mut a, rows, 0.0);
                }
                hop_node.children.push(a);
            }
            // The edge column comes before the target's. An edge variable
            // never joins: bound before, or named by the target too, it
            // fails the hop.
            let mut rebinds = None;
            let edge = hop.edge_var.as_ref().map(|ev| {
                if layout.columns.contains_key(ev) {
                    rebinds = Some(ev.clone());
                }
                layout.push(Some(ev))
            });
            let to_col = match joined {
                Some(c) => VarCol::Join(c),
                None => {
                    let tv = hop.to.var.as_ref();
                    if tv.is_some_and(|tv| layout.columns.contains_key(tv)) {
                        rebinds = rebinds.or_else(|| tv.cloned());
                    }
                    VarCol::New(layout.push(hop.to.var.as_deref()))
                }
            };
            let ready = take_ready(&layout, &mut live, &mut rows, &mut hop_node);
            node.children.push(hop_node);
            steps.push(MatchStep {
                item: item_idx,
                label: format!("hop -({})-> {}", hop.darpe, vspec_label(&hop.to)),
                op: StepOp::Hop(HopStep {
                    hop: hop_idx,
                    from,
                    edge,
                    to: to_col,
                    to_source: hop.to.name.clone(),
                    to_var: hop.to.var.clone(),
                    targets: sargable_idx.iter().rev().copied().collect(),
                    run: resolved.run((item_idx, hop_idx), &hop.darpe, may_reverse, st.schema),
                    rebinds,
                }),
                ready,
            });
            from = to_col.col();
        }
    }
    let mut residual = Vec::new();
    for (i, (c, _)) in conjuncts.iter().enumerate() {
        if !live[i] {
            continue;
        }
        residual.push(i);
        let (next, note) = conjunct_rows(i, rows, c);
        let mut f = PlanNode::new(
            "residual-filter",
            format!("residual filter: {}{note}", expr_label(c)),
        );
        if with_est {
            let cost = rows;
            rows = next;
            annotate(&mut f, rows, cost);
        }
        node.children.push(f);
    }
    // The fold verdicts, as EXPLAIN phrases (pinned by the goldens):
    // clauses that need the abstract interpreter's `=` reasoning say
    // "proven", so plans show *why* they run parallel.
    if !block.accum.is_empty() {
        let strategy = match accum_fold {
            FoldVerdict::Exact => "morsel-parallel exact-merge fold",
            FoldVerdict::Proven => "morsel-parallel proven fold (absint)",
            FoldVerdict::Sequential => "sequential emission fold",
        };
        let mut a = PlanNode::new(
            "accum",
            format!(
                "ACCUM: {} statement(s), snapshot Map/Reduce, {strategy}",
                block.accum.len()
            ),
        );
        if with_est {
            annotate(&mut a, rows, rows * block.accum.len() as f64);
        }
        node.children.push(a);
    }
    if !block.post_accum.is_empty() {
        let strategy = match post_accum_fold {
            FoldVerdict::Exact => "morsel-parallel fold",
            FoldVerdict::Proven => "morsel-parallel proven apply (absint)",
            FoldVerdict::Sequential => "sequential per-vertex apply",
        };
        let mut a = PlanNode::new(
            "post-accum",
            format!("POST_ACCUM: {} statement(s), {strategy}", block.post_accum.len()),
        );
        if with_est {
            annotate(&mut a, rows, rows * block.post_accum.len() as f64);
        }
        node.children.push(a);
    }
    if let Some(g) = &block.group_by {
        node.children.push(PlanNode::new(
            "group-by",
            format!("GROUP BY: {} grouping set(s)", g.sets.len()),
        ));
    }
    for frag in &block.outputs {
        let kind = if frag.items.len() == 1
            && frag.items[0].alias.is_none()
            && matches!(frag.items[0].expr, Expr::Ident(_))
        {
            "vertex set"
        } else if frag.items.iter().any(|i| i.expr.contains_aggregate()) {
            "aggregated table"
        } else {
            "projected table"
        };
        let mut o = PlanNode::new(
            "output",
            format!(
                "output{}: {kind}",
                frag.into.as_ref().map(|n| format!(" INTO {n}")).unwrap_or_default()
            ),
        );
        if with_est {
            annotate(&mut o, rows, rows);
        }
        node.children.push(o);
    }
    if with_est {
        annotate(&mut node, rows, cost_total);
    }
    (
        node,
        BlockPlan {
            semantics,
            post_accum_col: post_accum_col(&block.post_accum, &layout.columns),
            tractable: crate::tractable::classify(block, semantics),
            conjuncts,
            steps,
            residual,
            columns: layout.columns,
            accum_fold,
            accum_snapshot: crate::lint::own_target_reads(&block.accum)
                .into_iter()
                .map(|(_, global, name)| (global, name.to_string()))
                .collect(),
            post_accum_fold,
        },
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::stdlib;
    use pgraph::generators::diamond_chain;

    fn ctx_tables() -> FxHashMap<String, Table> {
        FxHashMap::default()
    }

    /// The FROM items in the order the match program scans them.
    fn scan_order(bp: &BlockPlan) -> Vec<usize> {
        bp.steps.iter().filter(|s| matches!(s.op, StepOp::Scan { .. })).map(|s| s.item).collect()
    }

    /// What FROM item `item`'s hop steps run, in hop order.
    fn hop_runs(bp: &BlockPlan, item: usize) -> Vec<&HopRun> {
        bp.steps
            .iter()
            .filter(|s| s.item == item)
            .filter_map(|s| match &s.op {
                StepOp::Hop(h) => Some(&h.run),
                _ => None,
            })
            .collect()
    }

    /// A kernel hop's automata.
    fn automata(run: &HopRun) -> &Automata {
        match run {
            HopRun::Kernel(Ok(a)) => a,
            other => panic!("expected a resolved kernel hop, got {other:?}"),
        }
    }

    /// The match program lays columns out in bind order (an edge before
    /// its target), joins a variable bound earlier, runs each conjunct
    /// once — at the step that binds its last variable, at the hop whose
    /// unbound target it alone names (last conjunct first), or as a
    /// residual — and records the FROM errors instead of raising them.
    #[test]
    fn the_match_program_lays_out_columns_and_schedules_every_conjunct_once() {
        let q = parse_query(
            "CREATE QUERY m (vertex p) {
               SumAccum<int> @n;
               S = SELECT t FROM V:s -(E>:e)- V:t -(E>)- V -(E>)- V:s
                   WHERE s == p AND t.x > 1 AND e.w > 0 AND 1 < 2 AND t.x < 9
                   POST_ACCUM t.@n += 1;
               T = SELECT s FROM V:s -(E>:s)- V:t POST_ACCUM s.@n += 1, t.@n += 1;
             }",
        )
        .unwrap();
        let plan = lower_query(&q, PathSemantics::AllShortestPaths, None);
        let bp = plan.block_plan(0, PathSemantics::AllShortestPaths).unwrap();
        let cols: Vec<(&str, usize)> =
            ["s", "e", "t"].iter().map(|v| (*v, bp.columns[*v])).collect();
        assert_eq!(cols, [("s", 0), ("e", 1), ("t", 2)]);
        assert_eq!(bp.columns.len(), 3, "the anonymous vertex has a column but no name");
        let ready: Vec<&[usize]> = bp.steps.iter().map(|s| s.ready.as_slice()).collect();
        assert_eq!(ready, [&[0usize][..], &[2], &[], &[]]);
        assert_eq!(bp.residual, [3]);
        match &bp.steps[0].op {
            StepOp::Scan { col, pins, .. } => {
                assert_eq!(*col, VarCol::New(0));
                assert_eq!(pins, &["s", "p"]);
            }
            other => panic!("expected a scan, got {other:?}"),
        }
        let hops: Vec<&HopStep> = bp.steps[1..]
            .iter()
            .map(|s| match &s.op {
                StepOp::Hop(h) => h,
                other => panic!("expected a hop, got {other:?}"),
            })
            .collect();
        assert_eq!((hops[0].from, hops[0].edge, hops[0].to), (0, Some(1), VarCol::New(2)));
        assert_eq!(hops[0].targets, [4, 1], "target conjuncts, last first");
        assert_eq!((hops[1].from, hops[1].to), (2, VarCol::New(3)));
        assert_eq!((hops[2].from, hops[2].to), (3, VarCol::Join(0)));
        assert!(hops.iter().all(|h| h.rebinds.is_none()));
        assert_eq!(bp.post_accum_col, Ok(Some((2, "t".to_string()))));

        let bp = plan.block_plan(1, PathSemantics::AllShortestPaths).unwrap();
        let StepOp::Hop(h) = &bp.steps[1].op else { panic!("expected a hop") };
        assert_eq!(h.rebinds.as_deref(), Some("s"));
        let err = bp.post_accum_col.clone().unwrap_err();
        assert!(err.to_string().contains("two FROM variables"), "{err}");
    }

    #[test]
    fn statless_lowering_matches_graphless_explain_shape() {
        let q = parse_query(&stdlib::qn("V", "E")).unwrap();
        let plan = lower_query(&q, PathSemantics::AllShortestPaths, None);
        assert_eq!(plan.epoch, 0);
        let text = plan.plan.render();
        assert!(!text.contains("est_rows="), "{text}");
        // Qn's single SELECT block is covered by an executable block plan.
        assert_eq!(plan.blocks.len(), 1);
        assert!(plan.block_plan(0, PathSemantics::AllShortestPaths).is_some());
    }

    #[test]
    fn stats_lowering_annotates_estimates() {
        let (g, _) = diamond_chain(12);
        let tables = ctx_tables();
        let ctx = LowerCtx { graph: &g, tables: &tables };
        let q = parse_query(&stdlib::qn("V", "E")).unwrap();
        let plan = lower_query(&q, PathSemantics::AllShortestPaths, Some(&ctx));
        assert_eq!(plan.epoch, g.stats().epoch());
        let text = plan.plan.render();
        assert!(text.contains("est_rows="), "{text}");
        assert!(text.contains("est_cost="), "{text}");
        // The anchored source scan estimates a handful of rows, not the
        // whole vertex population.
        assert!(text.contains("SDMC counting kernel"), "{text}");
    }

    #[test]
    fn counting_kernel_flips_backward_when_target_is_cheaper() {
        // No source filter: every vertex is a source. The sargable
        // target anchor narrows targets to a point lookup — strictly
        // cheaper, so the counting kernel may reverse, and the rule for
        // a target set decides its direction.
        let (g, _) = diamond_chain(12);
        let tables = ctx_tables();
        let ctx = LowerCtx { graph: &g, tables: &tables };
        let q = parse_query(
            "CREATE QUERY allpairs (STRING tgtName) {
               SumAccum<int> @@n;
               T = SELECT t FROM V:s -(E>*)- V:t WHERE t.name == tgtName ACCUM @@n += 1;
               PRINT @@n;
             }",
        )
        .unwrap();
        let plan = lower_query(&q, PathSemantics::AllShortestPaths, Some(&ctx));
        let text = plan.plan.render();
        assert!(
            text.contains(
                "SDMC counting kernel, backward from each target when the target set has \
                 at most 32 vertices, else forward"
            ),
            "{text}"
        );
        // Without statistics the same query keeps the forward default.
        let plain = lower_query(&q, PathSemantics::AllShortestPaths, None);
        assert!(
            plain.plan.render().contains("SDMC counting kernel, forward"),
            "{}",
            plain.plan.render()
        );
    }

    #[test]
    fn anchored_qn_keeps_forward_on_tie() {
        // Qn anchors both endpoints: one estimated source, ~one
        // estimated target. Ties keep the forward kernel.
        let (g, _) = diamond_chain(12);
        let tables = ctx_tables();
        let ctx = LowerCtx { graph: &g, tables: &tables };
        let q = parse_query(&stdlib::qn("V", "E")).unwrap();
        let plan = lower_query(&q, PathSemantics::AllShortestPaths, Some(&ctx));
        let text = plan.plan.render();
        assert!(text.contains("SDMC counting kernel, forward"), "{text}");
    }

    /// The one direction rule over every target and `may_reverse`, with
    /// the target-set boundary, and the phrase EXPLAIN composes from it.
    #[test]
    fn one_rule_decides_a_kernel_hops_direction_and_its_phrase() {
        use HopTarget::{Bound, Open, Set};
        let set_rule = "backward from each target when the target set has at most 32 vertices, \
                        else forward";
        let cases = [
            (true, Bound, true, "backward from anchored target"),
            (true, Set(1), true, set_rule),
            (true, Set(32), true, set_rule),
            (true, Set(33), false, set_rule),
            (true, Open, false, "forward"),
            (false, Bound, false, "forward"),
            (false, Set(1), false, "forward"),
            (false, Set(32), false, "forward"),
            (false, Set(33), false, "forward"),
            (false, Open, false, "forward"),
        ];
        for (may_reverse, target, backward, dir) in cases {
            assert_eq!(runs_backward(may_reverse, target), backward, "{may_reverse} {target:?}");
            for (counting, kernel) in [
                (true, "SDMC counting kernel, {} (polynomial, Thm 6.1)"),
                (false, "enumerative kernel, {} (EXPONENTIAL)"),
            ] {
                let phrase = |loop_bound| {
                    HopStrategy::Kernel { counting, may_reverse, target, loop_bound }.describe()
                };
                assert_eq!(phrase(false), kernel.replace("{}", dir));
                let unseen = match may_reverse {
                    true => format!(
                        "backward from anchored target when a FOREACH variable binds it to a \
                         vertex, else {dir}"
                    ),
                    false => dir.to_string(),
                };
                assert_eq!(phrase(true), kernel.replace("{}", &unseen));
            }
        }
        assert_eq!(HopStrategy::Adjacency.describe(), "adjacency scan");
        // Lowering sees a FOREACH variable's name, not its value; and a
        // literal vertex set is a set without statistics too.
        let q = parse_query(
            "CREATE QUERY l () { SetAccum<vertex> @@ts; T = {V.*};
               FOREACH t IN @@ts DO S = SELECT t FROM V:s -(E>*)- V:t; END;
               R = SELECT t FROM V:s -(E>*)- T:t; }",
        )
        .unwrap();
        let text = lower_query(&q, PathSemantics::NonRepeatedEdge, None).plan.render();
        let phrase = "V AS t: enumerative kernel, backward from anchored target when a FOREACH \
                      variable binds it to a vertex, else forward (EXPONENTIAL)";
        assert!(text.contains(phrase), "{text}");
        assert!(text.contains(&format!("T AS t: enumerative kernel, {set_rule} (")), "{text}");
    }

    #[test]
    fn block_plans_index_by_block_id_and_carry_strategies() {
        let (g, _) = diamond_chain(12);
        let tables = ctx_tables();
        let ctx = LowerCtx { graph: &g, tables: &tables };
        let q = parse_query(&stdlib::qn("V", "E")).unwrap();
        let plan = lower_query(&q, PathSemantics::NonRepeatedEdge, Some(&ctx));
        // No USE SEMANTICS: exactly one plan per block.
        assert_eq!(plan.variants, [PathSemantics::NonRepeatedEdge]);
        assert_eq!(plan.blocks.len(), 1);
        assert!(
            plan.plan.render().contains("enumerative kernel, backward from each target when"),
            "{}",
            plan.plan.render()
        );
        let mut seen_backward = false;
        for stmt in &q.body {
            let block = match stmt {
                Stmt::Select(b) => b,
                Stmt::VSetAssign { source: VSetSource::Select(b), .. } => b.as_ref(),
                _ => continue,
            };
            let bp = plan
                .block_plan(block.id, PathSemantics::NonRepeatedEdge)
                .expect("block plan present");
            assert_eq!(bp.semantics, PathSemantics::NonRepeatedEdge);
            for (i, item) in block.from.iter().enumerate() {
                let runs = hop_runs(bp, i);
                if let FromItem::Pattern { hops, .. } = item {
                    assert_eq!(runs.len(), hops.len(), "one strategy per hop");
                }
                seen_backward |= runs.iter().any(|r| automata(r).backward.is_some());
            }
        }
        assert!(seen_backward, "qn's anchored target should enumerate backward");
    }

    /// A block is lowered under every semantics the query can be in when
    /// it reaches the block, so an IF-guarded `USE SEMANTICS` finds its
    /// plan at run time; EXPLAIN renders the walk's variant only.
    #[test]
    fn blocks_are_lowered_under_every_semantics_the_query_can_reach_them_in() {
        let guarded = parse_query(
            "CREATE QUERY g (INT flag) {
               SumAccum<int> @hits;
               IF flag == 1 THEN
                 USE SEMANTICS 'shortest_one';
               END;
               R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
               PRINT R.size();
             }",
        )
        .unwrap();
        let (g, _) = diamond_chain(12);
        let tables = ctx_tables();
        let ctx = LowerCtx { graph: &g, tables: &tables };
        let plan = lower_query(&guarded, PathSemantics::AllShortestPaths, Some(&ctx));
        assert_eq!(plan.variants, [PathSemantics::AllShortestPaths, PathSemantics::ShortestOne]);
        assert_eq!(plan.blocks.len(), 2);
        for s in [PathSemantics::AllShortestPaths, PathSemantics::ShortestOne] {
            let bp = plan.block_plan(0, s).unwrap_or_else(|| panic!("no plan under {s:?}"));
            assert_eq!(bp.semantics, s);
            let runs = hop_runs(bp, 0);
            assert_eq!(runs.len(), 1);
            assert!(automata(runs[0]).backward.is_none(), "counting forward: no reversal");
        }
        assert!(plan.block_plan(0, PathSemantics::NonRepeatedEdge).is_none());
        assert_eq!(plan.plan.render().matches("BLOCK ").count(), 1);
    }

    /// Two disjoint FROM items, both filters single-item, vertex-set
    /// output, exact-merge ACCUM: the anchored point-lookup scan is
    /// strictly cheaper than the kernel pattern, so it runs first.
    #[test]
    fn from_reorder_moves_cheaper_item_first() {
        let (g, _) = diamond_chain(12);
        let tables = ctx_tables();
        let ctx = LowerCtx { graph: &g, tables: &tables };
        let q = parse_query(
            "CREATE QUERY two (STRING aName) {
               SumAccum<int> @@n;
               S = SELECT s FROM V:s -(E>*)- V:t, V:a
                   WHERE a.name == aName
                   ACCUM @@n += 1;
               PRINT @@n;
             }",
        )
        .unwrap();
        let plan = lower_query(&q, PathSemantics::AllShortestPaths, Some(&ctx));
        let block = match &q.body[1] {
            Stmt::VSetAssign { source: VSetSource::Select(b), .. } => b.as_ref(),
            other => panic!("unexpected stmt {other:?}"),
        };
        let bp = plan.block_plan(block.id, PathSemantics::AllShortestPaths).unwrap();
        assert_eq!(scan_order(bp), [1, 0], "point-lookup scan anchors first");
        let text = plan.plan.render();
        assert!(text.contains("from-reorder"), "{text}");
        // Graph-less lowering never reorders (no statistics).
        let plain = lower_query(&q, PathSemantics::AllShortestPaths, None);
        let bp = plain.block_plan(block.id, PathSemantics::AllShortestPaths).unwrap();
        assert_eq!(scan_order(bp), [0, 1]);
    }

    /// A cross-item conjunct makes first-occurrence order depend on
    /// which item is outer, so the gate must refuse to reorder.
    #[test]
    fn from_reorder_refuses_cross_item_conjuncts_and_inexact_accums() {
        let (g, _) = diamond_chain(12);
        let tables = ctx_tables();
        let ctx = LowerCtx { graph: &g, tables: &tables };
        let cross = parse_query(
            "CREATE QUERY two (STRING aName) {
               SumAccum<int> @@n;
               S = SELECT s FROM V:s -(E>*)- V:t, V:a
                   WHERE a.name == s.name
                   ACCUM @@n += 1;
               PRINT @@n;
             }",
        )
        .unwrap();
        let plan = lower_query(&cross, PathSemantics::AllShortestPaths, Some(&ctx));
        let block = match &cross.body[1] {
            Stmt::VSetAssign { source: VSetSource::Select(b), .. } => b.as_ref(),
            other => panic!("unexpected stmt {other:?}"),
        };
        let bp = plan.block_plan(block.id, PathSemantics::AllShortestPaths).unwrap();
        assert_eq!(scan_order(bp), [0, 1]);
        // ListAccum is order-dependent: combine order would show through.
        let inexact = parse_query(
            "CREATE QUERY two (STRING aName) {
               ListAccum<int> @@l;
               S = SELECT s FROM V:s -(E>*)- V:t, V:a
                   WHERE a.name == aName
                   ACCUM @@l += 1;
               PRINT @@l;
             }",
        )
        .unwrap();
        let plan = lower_query(&inexact, PathSemantics::AllShortestPaths, Some(&ctx));
        let block = match &inexact.body[1] {
            Stmt::VSetAssign { source: VSetSource::Select(b), .. } => b.as_ref(),
            other => panic!("unexpected stmt {other:?}"),
        };
        let bp = plan.block_plan(block.id, PathSemantics::AllShortestPaths).unwrap();
        assert_eq!(scan_order(bp), [0, 1]);
    }

    /// Each hop is resolved against the schema once per lowering: the
    /// block's semantics variants share one automaton (and one reversal,
    /// built for the variants that may run backward). A resolution error
    /// is recorded in the step, and lowering succeeds.
    #[test]
    fn hops_resolve_once_per_lowering_and_record_their_errors() {
        let (g, _) = diamond_chain(12);
        let tables = ctx_tables();
        let ctx = LowerCtx { graph: &g, tables: &tables };
        let q = parse_query(
            "CREATE QUERY r (INT flag) {
               SumAccum<int> @@n;
               IF flag == 1 THEN
                 USE SEMANTICS 'non_repeated_edge';
               END;
               IF flag == 2 THEN
                 USE SEMANTICS 'non_repeated_vertex';
               END;
               R = SELECT t FROM V:s -(E>*1..3)- V:t -(E>)- V:u ACCUM @@n += 1;
               S = SELECT t FROM V:s -(Nope>)- V:t -(Nope>*)- V:u;
               PRINT @@n;
             }",
        )
        .unwrap();
        let plan = lower_query(&q, PathSemantics::AllShortestPaths, Some(&ctx));
        let variants = [
            PathSemantics::AllShortestPaths,
            PathSemantics::NonRepeatedEdge,
            PathSemantics::NonRepeatedVertex,
        ];
        let runs: Vec<Vec<&HopRun>> =
            variants.iter().map(|&s| hop_runs(plan.block_plan(0, s).unwrap(), 0)).collect();
        let counting = automata(runs[0][0]);
        assert!(counting.backward.is_none(), "counting forward: no reversal");
        let reversal = automata(runs[1][0]).backward.as_ref().expect("enumeration may reverse");
        for r in &runs[1..] {
            let enumerating = automata(r[0]);
            assert!(Arc::ptr_eq(&counting.forward, &enumerating.forward));
            assert!(Arc::ptr_eq(reversal, enumerating.backward.as_ref().unwrap()));
            assert!(matches!(r[1], HopRun::Adjacency(Ok(_))));
        }
        for s in variants {
            let runs = hop_runs(plan.block_plan(1, s).unwrap(), 0);
            for run in runs {
                let err = match run {
                    HopRun::Adjacency(Err(e)) | HopRun::Kernel(Err(e)) => e,
                    other => panic!("expected a recorded error, got {other:?}"),
                };
                assert_eq!(err.kind(), crate::ErrorKind::Compile);
                assert_eq!(err.to_string(), "compile error: unknown edge type `Nope`");
            }
        }
    }
}
