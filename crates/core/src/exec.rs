//! The GSQL interpreter: engine, runtime state, statement execution, and
//! the SELECT-block pipeline (FROM matching → WHERE → ACCUM Map/Reduce →
//! POST_ACCUM → multi-output SELECT).

use crate::ast::*;
use crate::error::{Error, Result};
use crate::eval::{
    truthy, BExpr, BStmt, BTarget, Binder, Binding, Bindings, Env, Eval, Frame, Group, GroupNames,
    Program, Row, Scope, VAccStore, Vars, VertexRow,
};
use crate::governor::{Budget, CancelHandle, QueryGuard, ResourceReport};
use crate::morsel::{
    dispatch, even_runs, MorselBuilder, MorselTable, Morsels, DEFAULT_MORSEL_SIZE,
};
use crate::plan::{
    bound_twice, runs_backward, BlockPlan, FoldVerdict, HopRun, HopStep, HopTarget, QueryPlan, StepOp, VarCol,
};
use crate::profile::{OpKey, Profile, Profiler, Span, SpanExtra};
use crate::semantics::{KernelPool, MatchStats, PathSemantics, ReachMap};
use crate::table::Table;
use accum::{Accum, AccumType, Input, UserAccumRegistry};
use pgraph::bigcount::BigCount;
use pgraph::fxhash::{FxHashMap, FxHashSet};
use pgraph::graph::{AdjEntry, Graph, VertexId};
use pgraph::mutate::MutationOp;
use pgraph::schema::{AttrDef, ETypeId, VTypeId};
use pgraph::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cap on literal row expansion when a non-aggregate projection meets a
/// multiplicity > 1 (outside the compressed representation).
const ROW_EXPANSION_CAP: u64 = 1 << 20;

/// Threshold below which morsel-driven operators (ACCUM Map phase,
/// WHERE residuals, group-by key evaluation) stay sequential even when
/// parallelism is enabled.
const PARALLEL_THRESHOLD: usize = 512;

/// `GSQL_MORSEL_SIZE` is read once per process, like `GSQL_PARALLELISM`;
/// [`Engine::with_morsel_size`] still wins. Primarily a test/benchmark
/// knob for stressing morsel-boundary behavior.
fn env_morsel_size() -> usize {
    static ENV_MORSEL_SIZE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *ENV_MORSEL_SIZE.get_or_init(|| {
        std::env::var("GSQL_MORSEL_SIZE")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(DEFAULT_MORSEL_SIZE)
    })
}

/// `GSQL_PARALLELISM` is read once per process: engine construction sits
/// on a server's per-request hot path, and the environment cannot change
/// under a running process we'd want to react to.
fn env_parallelism() -> usize {
    static ENV_PARALLELISM: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *ENV_PARALLELISM.get_or_init(|| {
        std::env::var("GSQL_PARALLELISM")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// The query engine: a graph, optional relational tables, a user-accum
/// registry, and evaluation knobs.
pub struct Engine<'g> {
    graph: &'g Graph,
    pub(crate) tables: FxHashMap<String, Table>,
    registry: UserAccumRegistry,
    semantics: PathSemantics,
    /// Resource envelope enforced across the whole execution stack
    /// (deadline, row/path/memory/iteration caps).
    budget: Budget,
    /// Shared cancellation flag; clone via [`Engine::cancel_handle`] to
    /// stop a running query from another thread.
    cancel: CancelHandle,
    /// Map-phase threads (1 = sequential).
    parallelism: usize,
    /// Rows per morsel for the vectorized operators (ACCUM/POST_ACCUM,
    /// filters, group-by/projection evaluation).
    morsel_size: usize,
}

impl<'g> Engine<'g> {
    /// Engine with default settings: all-shortest-paths counting
    /// semantics, sequential execution — unless the `GSQL_PARALLELISM`
    /// environment variable names a thread count, which becomes the
    /// default (an explicit [`Engine::with_parallelism`] still wins).
    /// CI uses the variable to run the whole suite threaded.
    pub fn new(graph: &'g Graph) -> Self {
        let parallelism = env_parallelism();
        Engine {
            graph,
            tables: FxHashMap::default(),
            registry: UserAccumRegistry::new(),
            semantics: PathSemantics::AllShortestPaths,
            budget: Budget::default(),
            cancel: CancelHandle::new(),
            parallelism,
            morsel_size: env_morsel_size(),
        }
    }

    /// Sets the pattern legality semantics.
    pub fn with_semantics(mut self, s: PathSemantics) -> Self {
        self.semantics = s;
        self
    }

    /// Registers a relational input table (joinable in FROM, Example 1).
    pub fn with_table(mut self, table: Table) -> Self {
        self.tables.insert(table.name.clone(), table);
        self
    }

    /// Caps enumerative kernels at `budget` materialized paths (a budget
    /// of 0 means *zero paths allowed*: the first materialization trips).
    pub fn with_enum_budget(mut self, budget: u64) -> Self {
        self.budget.max_paths = Some(budget);
        self
    }

    /// Installs a full resource [`Budget`] (deadline, row/path/memory/
    /// iteration caps) enforced at every execution loop head.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The active resource budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// A handle that cancels the currently running (and any future) query
    /// from another thread; `reset()` re-arms the engine.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// Enables parallel Map-phase execution on `n` threads.
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// Sets the rows-per-morsel chunk size for vectorized execution
    /// (default [`DEFAULT_MORSEL_SIZE`], env-overridable via
    /// `GSQL_MORSEL_SIZE`). Output is byte-identical at any morsel size;
    /// only the work-distribution granularity — and the
    /// `morsels_dispatched` counter — changes.
    pub fn with_morsel_size(mut self, n: usize) -> Self {
        self.morsel_size = n.max(1);
        self
    }

    /// Runs the static analyzer ([`crate::lint`]) over a parsed query
    /// under this engine's ambient path semantics and user-accumulator
    /// registry, without executing anything.
    pub fn check(&self, q: &crate::ast::Query) -> Vec<crate::lint::Diagnostic> {
        crate::lint::lint_query_with(q, self.semantics, &self.registry)
    }

    /// Mutable access to the user-defined accumulator registry.
    pub fn registry_mut(&mut self) -> &mut UserAccumRegistry {
        &mut self.registry
    }

    /// The graph this engine queries.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The engine-default path semantics (overridable per query via
    /// `USE SEMANTICS`).
    pub fn semantics(&self) -> PathSemantics {
        self.semantics
    }

    /// Parses and runs a query in one step.
    pub fn run_text(&self, src: &str, args: &[(&str, Value)]) -> Result<QueryOutput> {
        let q = crate::parser::parse_query(src)?;
        self.run(&q, args)
    }

    /// Runs a [`crate::PreparedQuery`] (parsed once, executed many
    /// times). Unlike `run(prepared.query(), args)`, the prepared
    /// handle's cached optimized [`QueryPlan`] is reused across
    /// executions (and re-lowered only when the graph is re-finalized
    /// or the engine semantics change), so arbitrarily many bindings
    /// are served by one plan.
    pub fn run_prepared(
        &self,
        prepared: &crate::prepared::PreparedQuery,
        args: &[(&str, Value)],
    ) -> Result<QueryOutput> {
        self.run_prepared_with(prepared, args, false).map(|(out, _)| out)
    }

    /// [`Engine::run_prepared`] with optional profiling — the serving
    /// hot path: plan-cache lookup, then execution over the cached IR.
    pub fn run_prepared_with(
        &self,
        prepared: &crate::prepared::PreparedQuery,
        args: &[(&str, Value)],
        profile: bool,
    ) -> Result<(QueryOutput, Option<Profile>)> {
        let plan = self.prepared_plan(prepared);
        self.run_planned(prepared.query(), args, profile, &plan)
    }

    /// Runs a parsed query with named arguments.
    ///
    /// Execution is wrapped in the resource governor: the engine's
    /// [`Budget`] is enforced at every loop head, cancellation via
    /// [`Engine::cancel_handle`] is observed, and panics anywhere in the
    /// interpreter (including user-defined accumulators) are contained
    /// and surfaced as [`crate::ErrorKind::WorkerPanic`] — the engine
    /// stays usable afterwards.
    pub fn run(&self, query: &Query, args: &[(&str, Value)]) -> Result<QueryOutput> {
        self.run_with(query, args, false).map(|(out, _)| out)
    }

    /// Runs a parsed query with per-operator profiling enabled and
    /// returns the results alongside the measured [`Profile`]. The query
    /// executes through the identical pipeline as [`Engine::run`] —
    /// results are byte-identical to an unprofiled run at any
    /// parallelism; only operator-boundary measurements are added.
    pub fn run_profiled(
        &self,
        query: &Query,
        args: &[(&str, Value)],
    ) -> Result<(QueryOutput, Profile)> {
        self.run_with(query, args, true)
            .map(|(out, prof)| (out, prof.expect("profiled run produces a profile")))
    }

    /// [`Engine::run`] / [`Engine::run_profiled`] in one entry point:
    /// `profile` selects whether operator-boundary instrumentation is
    /// active (when `false` the profiling branch costs one pointer-null
    /// check per operator).
    pub fn run_with(
        &self,
        query: &Query,
        args: &[(&str, Value)],
        profile: bool,
    ) -> Result<(QueryOutput, Option<Profile>)> {
        let plan = self.plan(query);
        self.run_planned(query, args, profile, &plan)
    }

    /// Executes `query` over an already-lowered [`QueryPlan`] — the
    /// common tail of [`Engine::run_with`] (fresh plan) and
    /// [`Engine::run_prepared_with`] (cached plan).
    fn run_planned(
        &self,
        query: &Query,
        args: &[(&str, Value)],
        profile: bool,
        plan: &QueryPlan,
    ) -> Result<(QueryOutput, Option<Profile>)> {
        let guard = QueryGuard::new(self.budget.clone(), self.cancel.clone());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_inner(query, args, &guard, profile, plan)
        }));
        match outcome {
            Ok(Ok((mut out, prof))) => {
                out.report = guard.report();
                Ok((out, prof))
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(guard.worker_panic_error(payload.as_ref())),
        }
    }

    /// Builds the query plan ([`crate::Plan`]) this engine executes
    /// `query` with, under the engine's configured semantics —
    /// cost-annotated (`est_rows`/`est_cost`) from the graph's
    /// statistics. This is the same lowering execution uses, so EXPLAIN
    /// renders the plan that actually runs.
    pub fn explain(&self, query: &Query) -> Result<crate::explain::Plan> {
        Ok(self.plan(query).plan.clone())
    }

    fn run_inner(
        &self,
        query: &Query,
        args: &[(&str, Value)],
        guard: &QueryGuard,
        profile: bool,
        plan: &QueryPlan,
    ) -> Result<(QueryOutput, Option<Profile>)> {
        let mut params: FxHashMap<String, Value> = FxHashMap::default();
        for p in &query.params {
            let arg = args
                .iter()
                .find(|(n, _)| *n == p.name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| Error::runtime(format!("missing argument `{}`", p.name)))?;
            // Light type checking; scalars coerce Int→Double.
            let arg = match (&p.ty, arg) {
                (ParamType::Vertex(_), v @ Value::Vertex(_)) => v,
                (ParamType::Vertex(_), other) => {
                    return Err(Error::runtime(format!(
                        "parameter `{}` expects a vertex, got `{other}`",
                        p.name
                    )))
                }
                (ParamType::VertexSet, v @ Value::Set(_)) => v,
                (ParamType::Scalar(pgraph::value::ValueType::Double), Value::Int(i)) => {
                    Value::Double(i as f64)
                }
                (_, v) => v,
            };
            // Every later read indexes the graph's stores (and the
            // kernels' head arrays) by vertex id, so an id outside the
            // graph is rejected here, once.
            let members = match &arg {
                Value::Set(items) => items.as_slice(),
                single => std::slice::from_ref(single),
            };
            let outside = |v: &&Value| {
                matches!(v, Value::Vertex(id) if id.0 as usize >= self.graph.vertex_count())
            };
            if let Some(bad) = members.iter().find(outside) {
                return Err(Error::runtime(format!(
                    "parameter `{}`: vertex `{bad}` is not in the graph",
                    p.name
                )));
            }
            params.insert(p.name.clone(), arg);
        }
        let mut rt = Runtime {
            eng: self,
            guard,
            plan,
            semantics: self.semantics,
            params,
            locals: FxHashMap::default(),
            vsets: FxHashMap::default(),
            vaccs: Vec::new(),
            vacc_ids: FxHashMap::default(),
            gaccs: Vec::new(),
            gacc_types: Vec::new(),
            gacc_ids: FxHashMap::default(),
            prev_vaccs: Vec::new(),
            prev_gaccs: Vec::new(),
            out_tables: BTreeMap::new(),
            prints: Vec::new(),
            returned: None,
            stats: MatchStats::default(),
            prof: profile.then(Profiler::new),
            prof_hop_cache: (0, 0),
            prof_hop_workers: Vec::new(),
            prof_op_workers: Vec::new(),
            mutations: Vec::new(),
            pending_vertices: 0,
        };
        rt.exec_stmts(&query.body)?;
        // The accumulator state is released before the profile closes, so
        // a profiled root's wall time includes freeing it.
        drop((
            std::mem::take(&mut rt.gaccs),
            std::mem::take(&mut rt.vaccs),
            std::mem::take(&mut rt.prev_vaccs),
            std::mem::take(&mut rt.prev_gaccs),
        ));
        let prof = rt.prof.take().map(|p| {
            p.finish(
                &query.name,
                self.semantics,
                self.parallelism,
                &rt.stats,
                guard.report().peak_accum_bytes,
            )
        });
        Ok((
            QueryOutput {
                tables: rt.out_tables,
                prints: rt.prints,
                returned: rt.returned,
                stats: rt.stats,
                report: ResourceReport::default(),
                mutations: rt.mutations,
            },
            prof,
        ))
    }
}

/// What `RETURN` produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ReturnValue {
    /// A scalar or collection value.
    Value(Value),
    /// A relational table.
    Table(Table),
    /// A vertex set.
    VSet(Vec<VertexId>),
}

/// The result of running a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Tables produced by `SELECT ... INTO`.
    pub tables: BTreeMap<String, Table>,
    /// `PRINT` output lines.
    pub prints: Vec<String>,
    /// `RETURN` value, if the query returned.
    pub returned: Option<ReturnValue>,
    /// Evaluation counters (how the query was executed).
    pub stats: MatchStats,
    /// Resource accounting from the governor (rows/paths/bytes/elapsed).
    pub report: ResourceReport,
    /// Mutation ops collected from INSERT/UPDATE/DELETE statements.
    ///
    /// The engine reads a **pinned snapshot** and never mutates it:
    /// mutation statements evaluate their expressions against the
    /// pre-write view (the paper's snapshot semantics, applied to
    /// isolation) and emit ops here for the graph owner — a
    /// `pgraph::LiveGraph`, the shell, or a test — to commit atomically.
    pub mutations: Vec<MutationOp>,
}

impl QueryOutput {
    /// Convenience accessor for an output table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }
}

enum Flow {
    Normal,
    Returned,
}

/// An INSERT or UPDATE value as the store will keep it: the store's own
/// type rule, [`pgraph::graph::coerce_attr`], checked before the write
/// is queued.
fn coerce_attr(v: Value, def: &AttrDef) -> Result<Value> {
    pgraph::graph::coerce_attr(v, def).map_err(|e| Error::runtime(e.to_string()))
}

/// A named vertex set. A FROM scans and probes its members, ascending
/// and each once; PRINT and RETURN show them in the order the set was
/// made, which for a SELECT's output is its output order.
#[derive(Debug, Clone)]
pub struct VertexSet {
    /// The members, ascending, each once.
    members: Arc<[VertexId]>,
    /// The output order, when it is not `members`' order.
    order: Option<Vec<VertexId>>,
}

impl VertexSet {
    /// The set of `ids`, given in any order and with any duplicates; it
    /// shows its members ascending.
    fn from_ids(ids: Vec<VertexId>) -> VertexSet {
        VertexSet { members: ascending(ids), order: None }
    }

    /// A SELECT's vertex output, distinct `ids` in output order.
    fn from_output(ids: Vec<VertexId>) -> VertexSet {
        if ids.is_sorted_by(|a, b| a < b) {
            return VertexSet::from_ids(ids);
        }
        VertexSet { members: ascending(ids.clone()), order: Some(ids) }
    }

    /// The members, ascending, each once.
    pub(crate) fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// The members in the order the set was made.
    pub(crate) fn order(&self) -> &[VertexId] {
        self.order.as_deref().unwrap_or(&self.members)
    }
}

/// `ids` sorted ascending with duplicates removed.
fn ascending(mut ids: Vec<VertexId>) -> Arc<[VertexId]> {
    ids.sort_unstable();
    ids.dedup();
    ids.into()
}

/// A resolved vertex specifier.
enum Spec {
    Any,
    Type(VTypeId),
    /// Vertex ids, ascending, each once (one for a vertex parameter): a
    /// stored set's members are shared, not copied, and membership is a
    /// binary search.
    Set(Arc<[VertexId]>),
}

impl Spec {
    fn matches(&self, graph: &Graph, v: VertexId) -> bool {
        match self {
            Spec::Any => true,
            Spec::Type(t) => graph.vertex_type_of(v) == *t,
            Spec::Set(s) => s.binary_search(&v).is_ok(),
        }
    }

    fn candidates(&self, graph: &Graph) -> Vec<VertexId> {
        match self {
            Spec::Any => graph.vertices().collect(),
            Spec::Type(t) => graph.vertices_of_type(*t).to_vec(),
            Spec::Set(s) => s.to_vec(),
        }
    }
}

/// One accumulator write produced by interpreting an ACCUM / POST_ACCUM
/// statement ([`emit`]): applied to the live stores at once, or folded
/// into a run's partial, as the clause's [`FoldVerdict`] decides. The
/// value borrows the row's registers, the graph and the bound clause
/// where it can, so an accumulator copies only what it keeps.
struct Emission<'p, 'f, 'm> {
    target: Target<'p>,
    value: Input<'f>,
    /// `true` = `+=` (combine), `false` = `=` (assign).
    combine: bool,
    /// The emitting item's multiplicity (a binding-table row's path
    /// count; 1 for POST_ACCUM's distinct vertices).
    mult: &'m BigCount,
}

/// An emission's destination: a store id, or the name of an undeclared
/// accumulator, which fails when the write is applied.
#[derive(Clone, Copy)]
enum Target<'p> {
    V { store: Option<usize>, vertex: VertexId, name: &'p str },
    G { store: Option<usize>, name: &'p str },
}

/// A declared accumulator cell: a vertex store's cell or a global.
#[derive(Clone, Copy)]
enum Cell {
    V { store: usize, vertex: VertexId },
    G { store: usize },
}

impl Target<'_> {
    fn cell(self) -> Result<Cell> {
        match self {
            Target::V { store: Some(store), vertex, .. } => Ok(Cell::V { store, vertex }),
            Target::G { store: Some(store), .. } => Ok(Cell::G { store }),
            Target::V { name, .. } => Err(Error::runtime(format!("undeclared accumulator `@{name}`"))),
            Target::G { name, .. } => {
                Err(Error::runtime(format!("undeclared accumulator `@@{name}`")))
            }
        }
    }
}

/// The one interpreter of a bound ACCUM / POST_ACCUM statement:
/// evaluates `stmt` for the item bound in `ev`. A local declaration fills
/// its slot (visible to the item's later statements) and yields nothing;
/// an accumulator write yields its [`Emission`].
fn emit<'p, 'f, 'm>(
    ev: &Eval<'p, 'f, '_>,
    stmt: &'p BStmt,
    mult: &'m BigCount,
) -> Result<Option<Emission<'p, 'f, 'm>>> {
    Ok(match stmt {
        BStmt::Local { slot, expr } => {
            ev.set_local(*slot, expr)?;
            None
        }
        BStmt::Write { target, combine, expr } => {
            let value = ev.input(expr)?;
            let target = match target {
                BTarget::V { vertex, store, name } => {
                    Target::V { store: *store, vertex: ev.vertex(vertex)?, name }
                }
                BTarget::G { store, name } => Target::G { store: *store, name },
            };
            Some(Emission { target, value, combine: *combine, mult })
        }
    })
}

/// Maps one item of a clause: resets the item's registers, evaluates its
/// statements and hands each emission to `out`.
fn map_item<'p, 'm>(
    env: Env<'p, '_>,
    prog: &'p Program,
    frame: &mut Frame<'p>,
    (bindings, mult): (Bindings<'p>, &'m BigCount),
    tables: &'p [&'p Table],
    out: &mut impl FnMut(Emission<'p, '_, 'm>) -> Result<()>,
) -> Result<()> {
    frame.reset();
    let ev = Eval { env, row: Row { bindings, tables }, regs: &prog.regs, frame, group: None };
    for stmt in &prog.stmts {
        if let Some(em) = emit(&ev, stmt, mult)? {
            out(em)?;
        }
    }
    Ok(())
}

/// Identity-seeded accumulator partials folded from one run of
/// contiguous morsels. Globals key by store id, vertex cells by
/// `(store, VertexId)`; both merge into the live stores in a
/// deterministic order — ascending run, then ascending key — via
/// [`Runtime::merge_partial`]. The `bool` in each
/// cell records whether the cell was ever written by a plain `=`
/// assignment: such cells *replace* the live state on merge instead of
/// combining into it (sound only under
/// [`FoldVerdict::Proven`](crate::plan::FoldVerdict::Proven) — see
/// `lint/absint.rs`).
#[derive(Default)]
struct AccumPartial {
    g: FxHashMap<usize, (Accum, bool)>,
    v: FxHashMap<(usize, VertexId), (Accum, bool)>,
}

impl AccumPartial {
    /// Folds one emission in. Only reached when the block plan's
    /// [`FoldVerdict`](crate::plan::FoldVerdict) is parallel, which the
    /// abstract interpreter grants only to clauses whose every target
    /// some declaration can reach; a target still undeclared when the
    /// block runs fails as it does on the sequential path. `+=` emissions
    /// combine into the cell, seeded with the identity of the store's
    /// declared type (`vaccs` / `gtypes`, by store id); `=` emissions
    /// assign and mark the cell so [`Runtime::merge_partial`] replaces
    /// rather than merges the live state.
    fn fold(
        &mut self,
        em: Emission<'_, '_, '_>,
        vaccs: &[VAccStore],
        gtypes: &[AccumType],
        registry: &UserAccumRegistry,
    ) -> Result<()> {
        use std::collections::hash_map::Entry;
        let seed = |ty: &AccumType| -> Result<(Accum, bool)> { Ok((Accum::new(ty, registry)?, false)) };
        let cell = match em.target.cell()? {
            Cell::V { store, vertex } => match self.v.entry((store, vertex)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(seed(&vaccs[store].ty)?),
            },
            Cell::G { store } => match self.g.entry(store) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(seed(&gtypes[store])?),
            },
        };
        if em.combine {
            cell.0.combine_with_multiplicity(em.value, em.mult, registry)?;
        } else {
            cell.0.assign(em.value.into_value())?;
            cell.1 = true;
        }
        Ok(())
    }
}

struct Runtime<'e, 'g> {
    eng: &'e Engine<'g>,
    /// Live resource-governor state for this execution.
    guard: &'e QueryGuard,
    /// The lowered plan this execution runs over (pushdown assignment
    /// and hop strategies are read from here, not re-derived).
    plan: &'e QueryPlan,
    /// Active path semantics (engine default, overridable per query via
    /// `USE SEMANTICS`).
    semantics: PathSemantics,
    params: FxHashMap<String, Value>,
    locals: FxHashMap<String, Value>,
    vsets: FxHashMap<String, VertexSet>,
    /// Vertex accumulator stores, by store id; `vacc_ids` names them.
    /// Only the binder looks a name up.
    vaccs: Vec<VAccStore>,
    vacc_ids: FxHashMap<String, usize>,
    /// Global accumulators, by store id; `gacc_ids` names them.
    gaccs: Vec<Accum>,
    /// Declared types of the global accumulators (the instances in
    /// `gaccs` don't retain their descriptor; a partial fold seeds its
    /// cells from it).
    gacc_types: Vec<AccumType>,
    gacc_ids: FxHashMap<String, usize>,
    /// Snapshots, taken at each block's start, of the stores the query
    /// reads primed (`v.@a'`; [`QueryPlan`] lists them) and of those the
    /// block's ACCUM reads while it writes them
    /// ([`BlockPlan`]`::accum_snapshot`), by store id.
    prev_vaccs: Vec<Option<VAccStore>>,
    /// The globals the block's ACCUM reads while it writes them,
    /// snapshotted at the block's start, by store id.
    prev_gaccs: Vec<Option<Accum>>,
    out_tables: BTreeMap<String, Table>,
    prints: Vec<String>,
    returned: Option<ReturnValue>,
    stats: MatchStats,
    /// `Some` only on profiled runs. Every operator boundary pays one
    /// `Option` discriminant check when profiling is off; all detail
    /// strings and snapshots are built only when on.
    prof: Option<Profiler>,
    /// Reach-cache (hits, misses) of the most recent Kleene hop,
    /// consumed by the enclosing hop span.
    prof_hop_cache: (u64, u64),
    /// Per-worker kernel counts of the most recent parallel fan-out,
    /// collected only when profiling.
    prof_hop_workers: Vec<u64>,
    /// Per-worker morsel counts of the most recent ACCUM/POST_ACCUM
    /// dispatch, collected only when profiling.
    prof_op_workers: Vec<u64>,
    /// Mutation ops emitted by INSERT/UPDATE/DELETE, in statement order.
    mutations: Vec<MutationOp>,
    /// Vertices inserted so far this query: `INSERT EDGE` endpoints may
    /// address them by provisional id (`graph.vertex_count() + k`).
    pending_vertices: usize,
}

impl<'e, 'g> Runtime<'e, 'g> {
    fn graph(&self) -> &'g Graph {
        self.eng.graph
    }

    /// Worker count for a morsel dispatch over `n_rows` rows: the
    /// engine's parallelism above [`PARALLEL_THRESHOLD`], else 1 — path
    /// *shape* (morsel boundaries, counters, fold order) never depends
    /// on this, only the thread count does.
    fn workers_for(&self, n_rows: usize) -> usize {
        if n_rows >= PARALLEL_THRESHOLD {
            self.eng.parallelism
        } else {
            1
        }
    }

    /// Accounts a morsel dispatch over `n_rows` rows and returns the
    /// split. The morsel count is a pure function of the row count and
    /// the configured morsel size — identical at any parallelism, so it
    /// is safe to compare across runs.
    fn note_morsels(&mut self, n_rows: usize) -> Morsels {
        let morsels = Morsels::new(n_rows, self.eng.morsel_size);
        self.stats.morsels_dispatched += morsels.count() as u64;
        self.guard.note_morsels(morsels.count() as u64);
        morsels
    }

    /// Opens a profiling span for operator `(op, key)` — a no-op
    /// returning `None` on unprofiled runs. `key` is the operator's
    /// position ([`OpKey`]), so re-executions accumulate into one
    /// profile node.
    fn prof_enter(
        &mut self,
        op: &'static str,
        key: OpKey,
        detail: impl FnOnce() -> String,
    ) -> Option<Span> {
        let stats = &self.stats;
        self.prof.as_mut().map(|p| p.enter(op, key, detail, stats))
    }

    /// Closes a span opened by [`Runtime::prof_enter`] (no-op for `None`).
    fn prof_exit(&mut self, span: Option<Span>, extra: SpanExtra) {
        if let Some(span) = span {
            if let Some(p) = self.prof.as_mut() {
                p.exit(span, &self.stats, extra);
            }
        }
    }

    /// The accumulator state bound expressions read.
    fn env(&self) -> Env<'g, '_> {
        Env {
            graph: self.eng.graph,
            vaccs: &self.vaccs,
            prev_vaccs: &self.prev_vaccs,
            gaccs: &self.gaccs,
            prev_gaccs: &self.prev_gaccs,
        }
    }

    /// What names resolve against for rows binding `vars` over FROM
    /// tables `tables`.
    fn scope<'s>(&'s self, vars: Vars<'s>, tables: &'s [&'s Table]) -> Scope<'s> {
        Scope {
            graph: self.eng.graph,
            params: &self.params,
            locals: &self.locals,
            vsets: &self.vsets,
            vacc_ids: &self.vacc_ids,
            gacc_ids: &self.gacc_ids,
            vars,
            tables,
        }
    }

    /// Binds `e` against the statement-level scope (no row).
    fn bind_once(&self, e: &Expr) -> BExpr {
        Binder::new(self.scope(Vars::None, &[])).bind(e)
    }

    /// Evaluates bound `e` against `row`.
    fn eval_in<'a>(&self, e: &'a BExpr, row: Row<'a>) -> Result<Value> {
        let frame = Frame::default();
        let ev = Eval { env: self.env(), row, regs: &[], frame: &frame, group: None };
        ev.eval(e).map(Cow::into_owned)
    }

    /// Binds and evaluates a statement-level expression (PRINT, WHILE/IF
    /// conditions, LIMIT, INSERT values, ...).
    fn eval_once(&self, e: &Expr) -> Result<Value> {
        self.eval_in(&self.bind_once(e), Row::EMPTY)
    }

    fn limit_value(&self, e: &Expr) -> Result<usize> {
        let v = self.eval_once(e)?;
        v.as_i64()
            .filter(|n| *n >= 0)
            .map(|n| n as usize)
            .ok_or_else(|| Error::type_error("non-negative integer LIMIT", &v))
    }

    // ---- statement execution --------------------------------------------

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<Flow> {
        for s in stmts {
            if let Flow::Returned = self.exec_stmt(s)? {
                return Ok(Flow::Returned);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow> {
        match stmt {
            Stmt::TupleTypedef { .. } => {}
            Stmt::AccumDecl { ty, decls } => {
                for d in decls {
                    let mut proto = Accum::new(ty, &self.eng.registry)?;
                    if let Some(init) = &d.init {
                        proto.assign(self.eval_once(init)?)?;
                    }
                    // A redeclaration replaces the store under its id.
                    if d.global {
                        match self.gacc_ids.get(&d.name) {
                            Some(&id) => {
                                self.gaccs[id] = proto;
                                self.gacc_types[id] = ty.clone();
                            }
                            None => {
                                self.gacc_ids.insert(d.name.clone(), self.gaccs.len());
                                self.gaccs.push(proto);
                                self.gacc_types.push(ty.clone());
                            }
                        }
                    } else {
                        let store = VAccStore::new(ty.clone(), proto, self.graph().vertex_count());
                        match self.vacc_ids.get(&d.name) {
                            Some(&id) => self.vaccs[id] = store,
                            None => {
                                self.vacc_ids.insert(d.name.clone(), self.vaccs.len());
                                self.vaccs.push(store);
                            }
                        }
                    }
                }
            }
            Stmt::VSetAssign { name, source, .. } => match source {
                VSetSource::Literal(entries) => {
                    let mut set = Vec::new();
                    for e in entries {
                        set.extend(self.resolve_spec(e)?.candidates(self.graph()));
                    }
                    self.vsets.insert(name.clone(), VertexSet::from_ids(set));
                }
                VSetSource::SetOp { op, lhs, rhs } => {
                    let graph = self.graph();
                    let l = self.resolve_spec(lhs)?.candidates(graph);
                    let r = self.resolve_spec(rhs)?;
                    let in_r = |v: &VertexId| r.matches(graph, *v);
                    let out: Vec<VertexId> = match op {
                        SetOp::Union => {
                            let mut v = l;
                            v.extend(r.candidates(graph));
                            v
                        }
                        SetOp::Intersect => l.into_iter().filter(in_r).collect(),
                        SetOp::Minus => l.into_iter().filter(|v| !in_r(v)).collect(),
                    };
                    self.vsets.insert(name.clone(), VertexSet::from_ids(out));
                }
                VSetSource::Select(block) => {
                    let vres = self.exec_select(block)?;
                    let vres = vres.ok_or_else(|| {
                        Error::runtime(format!(
                            "SELECT assigned to `{name}` does not produce a vertex set \
                             (its first output must be a bare pattern vertex variable)"
                        ))
                    })?;
                    self.vsets.insert(name.clone(), VertexSet::from_output(vres));
                }
            },
            Stmt::Select(block) => {
                self.exec_select(block)?;
            }
            Stmt::UseSemantics(sem) => {
                self.semantics = *sem;
            }
            Stmt::GAccAssign { name, combine, expr, .. } => {
                let v = self.eval_once(expr)?;
                let acc = self
                    .gacc_ids
                    .get(name)
                    .map(|&id| &mut self.gaccs[id])
                    .ok_or_else(|| Error::runtime(format!("undeclared accumulator `@@{name}`")))?;
                if *combine {
                    acc.combine(v, &self.eng.registry)?;
                } else {
                    acc.assign(v)?;
                }
                self.guard.note_accum_bytes(self.accum_footprint())?;
            }
            Stmt::While { cond, limit, body, id, .. } => {
                let span = self.prof_enter("while", (*id, 0), || {
                    format!(
                        "WHILE loop{}",
                        if limit.is_some() { " (bounded)" } else { "" }
                    )
                });
                let flow = self.exec_while(cond, limit.as_ref(), body);
                self.prof_exit(span, SpanExtra::default());
                return flow;
            }
            Stmt::If { cond, then_branch, else_branch } => {
                let c = self.eval_once(cond)?;
                let branch = if truthy(&c)? { then_branch } else { else_branch };
                if let Flow::Returned = self.exec_stmts(branch)? {
                    return Ok(Flow::Returned);
                }
            }
            Stmt::Foreach { var, iterable, body, id } => {
                let span = self.prof_enter("foreach", (*id, 0), || format!("FOREACH {var}"));
                let flow = self.exec_foreach(var, iterable, body);
                self.prof_exit(span, SpanExtra::default());
                return flow;
            }
            Stmt::Print { items, .. } => self.exec_print(items)?,
            Stmt::Return { expr, .. } => {
                self.returned = Some(self.eval_return(expr)?);
                return Ok(Flow::Returned);
            }
            Stmt::InsertVertex { vtype, columns, values, .. } => {
                self.exec_insert_vertex(vtype, columns, values)?;
            }
            Stmt::InsertEdge { etype, src, dst, columns, values, .. } => {
                self.exec_insert_edge(etype, src, dst, columns, values)?;
            }
            Stmt::Update { target, sets, where_clause, .. } => {
                self.exec_update(target, sets, where_clause.as_ref())?;
            }
            Stmt::Delete { target, where_clause, .. } => {
                self.exec_delete(target, where_clause.as_ref())?;
            }
        }
        Ok(Flow::Normal)
    }

    // ---- mutation statements --------------------------------------------

    /// Evaluates an INSERT value row into a full-arity attribute vector:
    /// positional when `columns` is empty, else by name with unnamed
    /// attributes defaulted.
    fn eval_attr_row(
        &mut self,
        columns: &[String],
        values: &[Expr],
        attrs: &[AttrDef],
        what: &str,
    ) -> Result<Vec<Value>> {
        let mut row: Vec<Value> = attrs.iter().map(|a| a.ty.default_value()).collect();
        if columns.is_empty() {
            if values.len() != attrs.len() {
                return Err(Error::runtime(format!(
                    "{what} declares {} attribute(s), INSERT supplies {}",
                    attrs.len(),
                    values.len()
                )));
            }
            for (i, e) in values.iter().enumerate() {
                let v = self.eval_once(e)?;
                row[i] = coerce_attr(v, &attrs[i])?;
            }
        } else {
            if columns.len() != values.len() {
                return Err(Error::runtime(format!(
                    "INSERT names {} column(s) but supplies {} value(s)",
                    columns.len(),
                    values.len()
                )));
            }
            let mut seen = vec![false; attrs.len()];
            for (c, e) in columns.iter().zip(values) {
                let idx = attrs.iter().position(|a| &a.name == c).ok_or_else(|| {
                    Error::runtime(format!("{what} has no attribute `{c}`"))
                })?;
                if seen[idx] {
                    return Err(Error::runtime(format!(
                        "attribute `{c}` appears more than once in the INSERT column list"
                    )));
                }
                seen[idx] = true;
                let v = self.eval_once(e)?;
                row[idx] = coerce_attr(v, &attrs[idx])?;
            }
        }
        Ok(row)
    }

    fn exec_insert_vertex(
        &mut self,
        vtype: &str,
        columns: &[String],
        values: &[Expr],
    ) -> Result<()> {
        let vt = self
            .graph()
            .schema()
            .vertex_type_id(vtype)
            .ok_or_else(|| Error::runtime(format!("unknown vertex type `{vtype}`")))?;
        let attrs = &self.graph().schema().vertex_type(vt).attrs;
        let row = self.eval_attr_row(columns, values, attrs, &format!("vertex type `{vtype}`"))?;
        self.mutations.push(MutationOp::AddVertex { vtype: vt, attrs: row });
        self.pending_vertices += 1;
        Ok(())
    }

    /// Resolves an INSERT EDGE endpoint: a vertex value, or an integer id
    /// — which may address a vertex inserted earlier in this query
    /// (provisional ids follow the snapshot's vertex count).
    fn endpoint_vertex(&mut self, e: &Expr) -> Result<VertexId> {
        let total = self.graph().vertex_count() + self.pending_vertices;
        match self.eval_once(e)? {
            Value::Vertex(v) if (v.0 as usize) < total => Ok(v),
            Value::Vertex(v) => Err(Error::runtime(format!(
                "endpoint vertex id {} out of range (graph + this query's inserts = {total})",
                v.0
            ))),
            Value::Int(i) if i >= 0 && (i as usize) < total => Ok(VertexId(i as u32)),
            Value::Int(i) => Err(Error::runtime(format!(
                "endpoint vertex id {i} out of range (graph + this query's inserts = {total})"
            ))),
            other => Err(Error::type_error("vertex (or integer vertex id)", &other)),
        }
    }

    fn exec_insert_edge(
        &mut self,
        etype: &str,
        src: &Expr,
        dst: &Expr,
        columns: &[String],
        values: &[Expr],
    ) -> Result<()> {
        let et = self
            .graph()
            .schema()
            .edge_type_id(etype)
            .ok_or_else(|| Error::runtime(format!("unknown edge type `{etype}`")))?;
        let s = self.endpoint_vertex(src)?;
        let d = self.endpoint_vertex(dst)?;
        let attrs = &self.graph().schema().edge_type(et).attrs;
        let row = self.eval_attr_row(columns, values, attrs, &format!("edge type `{etype}`"))?;
        self.mutations.push(MutationOp::AddEdge { etype: et, src: s, dst: d, attrs: row });
        Ok(())
    }

    /// Shared UPDATE/DELETE candidate loop: resolves the target spec,
    /// binds the target variable to each candidate vertex (snapshot
    /// order) as a one-column row, applies the optional WHERE filter, and
    /// calls `apply` for survivors.
    fn for_each_target(
        &mut self,
        target: &VSpec,
        where_clause: Option<&Expr>,
        mut apply: impl FnMut(&mut Self, VertexId) -> Result<()>,
    ) -> Result<()> {
        let candidates = self.resolve_spec(&target.name)?.candidates(self.graph());
        let var = target.var.as_deref().unwrap_or(&target.name);
        let cond = where_clause.map(|c| Binder::new(self.scope(Vars::One(var), &[])).bind(c));
        let mut one = VertexRow::new();
        for v in candidates {
            self.guard.note_visits(1, 0);
            if let Some(cond) = &cond {
                let row = Row { bindings: one.at(v), tables: &[] };
                if !truthy(&self.eval_in(cond, row)?)? {
                    continue;
                }
            }
            apply(self, v)?;
        }
        Ok(())
    }

    fn exec_update(
        &mut self,
        target: &VSpec,
        sets: &[(String, String, Expr)],
        where_clause: Option<&Expr>,
    ) -> Result<()> {
        let var = target.var.clone().unwrap_or_else(|| target.name.clone());
        for (svar, _, _) in sets {
            if svar != &var {
                return Err(Error::runtime(format!(
                    "UPDATE SET references `{svar}` but the target binds `{var}`"
                )));
            }
        }
        let mut binder = Binder::new(self.scope(Vars::One(&var), &[]));
        let values: Vec<BExpr> = sets.iter().map(|(_, _, e)| binder.bind(e)).collect();
        let mut one = VertexRow::new();
        self.for_each_target(target, where_clause, |rt, v| {
            for ((_, attr, _), value) in sets.iter().zip(&values) {
                let vt = rt.graph().vertex_type_of(v);
                let idx =
                    rt.graph().schema().vertex_attr_index(vt, attr).ok_or_else(|| {
                        Error::runtime(format!(
                            "vertex type `{}` has no attribute `{attr}`",
                            rt.graph().schema().vertex_type(vt).name
                        ))
                    })?;
                let def = &rt.graph().schema().vertex_type(vt).attrs[idx];
                let row = Row { bindings: one.at(v), tables: &[] };
                let val = coerce_attr(rt.eval_in(value, row)?, def)?;
                rt.mutations.push(MutationOp::SetVertexAttr { v, attr: idx, value: val });
            }
            Ok(())
        })
    }

    fn exec_delete(&mut self, target: &VSpec, where_clause: Option<&Expr>) -> Result<()> {
        self.for_each_target(target, where_clause, |rt, v| {
            rt.mutations.push(MutationOp::DeleteVertex { v });
            Ok(())
        })
    }

    fn exec_while(
        &mut self,
        cond: &Expr,
        limit: Option<&Expr>,
        body: &[Stmt],
    ) -> Result<Flow> {
        let max_iter = match limit {
            Some(e) => {
                let v = self.eval_once(e)?;
                let n = v.as_i64().ok_or_else(|| Error::type_error("integer LIMIT", &v))?;
                if n < 0 {
                    return Err(Error::runtime(format!(
                        "WHILE LIMIT must be non-negative, got {n}"
                    )));
                }
                n as u64
            }
            None => u64::MAX,
        };
        let mut iters = 0u64;
        while iters < max_iter {
            self.guard.tick_while()?;
            let c = self.eval_once(cond)?;
            if !truthy(&c)? {
                break;
            }
            if let Flow::Returned = self.exec_stmts(body)? {
                return Ok(Flow::Returned);
            }
            iters += 1;
        }
        Ok(Flow::Normal)
    }

    fn exec_foreach(&mut self, var: &str, iterable: &Expr, body: &[Stmt]) -> Result<Flow> {
        let it = self.eval_once(iterable)?;
        let items: Vec<Value> = match it {
            Value::List(xs) | Value::Set(xs) | Value::Tuple(xs) => xs,
            Value::Map(entries) => {
                entries.into_iter().map(|(k, v)| Value::Tuple(vec![k, v])).collect()
            }
            other => return Err(Error::type_error("iterable collection", &other)),
        };
        let shadowed = self.locals.remove(var);
        for item in items {
            self.guard.checkpoint()?;
            self.locals.insert(var.to_string(), item);
            if let Flow::Returned = self.exec_stmts(body)? {
                return Ok(Flow::Returned);
            }
        }
        match shadowed {
            Some(v) => {
                self.locals.insert(var.to_string(), v);
            }
            None => {
                self.locals.remove(var);
            }
        }
        Ok(Flow::Normal)
    }

    fn eval_return(&self, expr: &Expr) -> Result<ReturnValue> {
        if let Expr::Ident(name) = expr {
            if let Some(t) = self.out_tables.get(name) {
                return Ok(ReturnValue::Table(t.clone()));
            }
            if let Some(s) = self.vsets.get(name) {
                return Ok(ReturnValue::VSet(s.order().to_vec()));
            }
        }
        Ok(ReturnValue::Value(self.eval_once(expr)?))
    }

    fn exec_print(&mut self, items: &[PrintItem]) -> Result<()> {
        for item in items {
            match item {
                PrintItem::Expr { expr, label } => {
                    // A bare identifier naming an INTO table prints the table.
                    if let Expr::Ident(name) = expr {
                        if let Some(t) = self.out_tables.get(name) {
                            self.prints.push(t.to_string());
                            continue;
                        }
                    }
                    let v = self.eval_once(expr)?;
                    self.prints.push(format!("{label} = {v}"));
                }
                PrintItem::VSetProjection { set, items } => {
                    // The set name may also name an INTO table; prefer the
                    // vertex set, since projections use per-vertex exprs.
                    let vs = self
                        .vsets
                        .get(set)
                        .map(|s| s.order().to_vec())
                        .ok_or_else(|| Error::runtime(format!("unknown vertex set `{set}`")))?;
                    let mut binder = Binder::new(self.scope(Vars::One(set), &[]));
                    let items: Vec<BExpr> = items.iter().map(|it| binder.bind(&it.expr)).collect();
                    let mut one = VertexRow::new();
                    for v in vs {
                        let row = Row { bindings: one.at(v), tables: &[] };
                        let mut cells = Vec::with_capacity(items.len());
                        for it in &items {
                            cells.push(self.eval_in(it, row)?.to_string());
                        }
                        self.prints.push(format!("{set}: {}", cells.join(", ")));
                    }
                }
            }
        }
        Ok(())
    }

    // ---- FROM resolution --------------------------------------------------

    fn resolve_spec(&self, name: &str) -> Result<Spec> {
        if name == "_" || name.eq_ignore_ascii_case("any") {
            return Ok(Spec::Any);
        }
        if let Some(set) = self.vsets.get(name) {
            return Ok(Spec::Set(Arc::clone(&set.members)));
        }
        if let Some(t) = self.graph().schema().vertex_type_id(name) {
            return Ok(Spec::Type(t));
        }
        match self.params.get(name) {
            Some(Value::Vertex(v)) => Ok(Spec::Set(Arc::from([*v]))),
            Some(Value::Set(items)) => {
                let mut set = Vec::with_capacity(items.len());
                for it in items {
                    match it {
                        Value::Vertex(v) => set.push(*v),
                        other => {
                            return Err(Error::runtime(format!(
                                "`{name}` contains non-vertex `{other}`"
                            )))
                        }
                    }
                }
                Ok(Spec::Set(ascending(set)))
            }
            _ => Err(Error::runtime(format!(
                "`{name}` is not a vertex type, vertex set, or vertex parameter"
            ))),
        }
    }

    /// Narrows a spec by a binding variable that is pre-anchored (a
    /// vertex-valued parameter or FOREACH variable of the same name).
    fn anchor_for(&self, var: &str) -> Option<VertexId> {
        match self.locals.get(var).or_else(|| self.params.get(var)) {
            Some(Value::Vertex(v)) => Some(*v),
            _ => None,
        }
    }

    // ---- SELECT block -------------------------------------------------------

    fn exec_select(&mut self, block: &SelectBlock) -> Result<Option<Vec<VertexId>>> {
        let span = self.prof_enter("block", (block.id, 0), || {
            crate::explain::block_label(block)
        });
        let result = self.exec_select_inner(block);
        self.prof_exit(span, SpanExtra::default());
        result
    }

    fn exec_select_inner(&mut self, block: &SelectBlock) -> Result<Option<Vec<VertexId>>> {
        // The block's plan under the semantics in force. Its tractable
        // class is raised first, against the accumulators declared now.
        let plan = self.plan;
        let bp = plan.block_plan(block.id, self.semantics).ok_or_else(|| {
            Error::runtime(format!("internal error: block {} has no plan", block.id + 1))
        })?;
        bp.tractable.check(
            |n, global| match global {
                true => self.gacc_ids.get(n).map(|&id| &self.gacc_types[id]),
                false => self.vacc_ids.get(n).map(|&id| &self.vaccs[id].ty),
            },
            &self.eng.registry,
        )?;

        // 1. FROM + WHERE pushdown: build the (compressed) binding table
        // by running the block plan's match program. Each step binds its
        // variables where the plan laid them out and filters its output
        // by the conjuncts it made ready (classic selection pushdown —
        // without it the Q_n query would run the reachability kernel
        // from every vertex of the graph before filtering on `s.name`).
        let mut table_refs: Vec<&Table> = Vec::new();
        let mut rows = MorselTable::unit();
        for step in &bp.steps {
            let (op, key) = match &step.op {
                StepOp::Hop(hs) => ("hop", (step.item, hs.hop)),
                StepOp::Scan { .. } => ("scan", (step.item, 0)),
            };
            let span = self.prof_enter(op, key, || step.label.clone());
            if span.is_some() {
                self.prof_hop_cache = (0, 0);
                self.prof_hop_workers.clear();
            }
            rows = match &step.op {
                StepOp::Scan { source, var, table: true, col, .. }
                    if self.eng.tables.contains_key(source) =>
                {
                    let t = &self.eng.tables[source];
                    let VarCol::New(col) = *col else { return Err(bound_twice(var)) };
                    debug_assert_eq!(col, rows.width());
                    let tidx = table_refs.len();
                    table_refs.push(t);
                    // The product's size is known up front: it is ticked
                    // against the row budget before anything is allocated.
                    let n = product_rows(rows.len(), t.len())?;
                    self.guard.tick_rows(n as u64)?;
                    let mut b = MorselBuilder::new(&rows, 1, n);
                    for row in 0..rows.len() {
                        for r in 0..t.len() {
                            b.push(row, &[Binding::row(tidx, r)?], rows.mult(row).clone())?;
                        }
                    }
                    b.finish()
                }
                StepOp::Scan { source, var, col, pins, .. } => {
                    // Vertex scan (type / set / param named `source`).
                    let spec = self.resolve_spec(source)?;
                    self.bind_vertex(rows, *col, var, &spec, pins)?
                }
                StepOp::Hop(hs) => {
                    let to_spec = self.resolve_spec(&hs.to_source)?;
                    // Sargable pushdown: the WHERE conjuncts that name
                    // only the hop's unbound target are consumed by the
                    // hop itself (see `extend_hop`).
                    let targets: Vec<&Expr> =
                        hs.targets.iter().map(|&i| &bp.conjuncts[i].0).collect();
                    self.extend_hop(rows, hs, to_spec, &targets)?
                }
            };
            rows = self.filter_rows(rows, &step.ready, bp, &table_refs)?;
            if span.is_some() {
                let extra = SpanExtra {
                    rows: rows.len() as u64,
                    cache_hits: self.prof_hop_cache.0,
                    cache_misses: self.prof_hop_cache.1,
                    workers: std::mem::take(&mut self.prof_hop_workers),
                    ..SpanExtra::default()
                };
                self.prof_exit(span, extra);
            }
        }

        // 2. Residual WHERE conjuncts (e.g. referencing no FROM variable).
        if !bp.residual.is_empty() {
            let span = self.prof_enter("residual-filter", (0, 0), || {
                format!("residual filters ({})", bp.residual.len())
            });
            rows = self.filter_rows(rows, &bp.residual, bp, &table_refs)?;
            let n = rows.len() as u64;
            self.prof_exit(span, SpanExtra { rows: n, ..SpanExtra::default() });
        }
        self.stats.binding_rows += rows.len() as u64;

        // 3. The block-start snapshot: of the stores something reads
        // primed (`@a'`) and of those the ACCUM clause reads while it
        // writes them, not of every store.
        self.prev_vaccs = vec![None; self.vaccs.len()];
        self.prev_gaccs.clear();
        let primed = self.plan.primed_vaccs.iter().map(|n| (false, n));
        for (global, n) in primed.chain(bp.accum_snapshot.iter().map(|(g, n)| (*g, n))) {
            if global {
                if let Some(&id) = self.gacc_ids.get(n) {
                    self.prev_gaccs.resize(self.gaccs.len(), None);
                    self.prev_gaccs[id] = Some(self.gaccs[id].clone());
                }
            } else if let Some(&id) = self.vacc_ids.get(n) {
                if self.prev_vaccs[id].is_none() {
                    self.prev_vaccs[id] = Some(self.vaccs[id].clone());
                }
            }
        }

        // 4. ACCUM (Map phase + Reduce phase, snapshot semantics).
        if !block.accum.is_empty() {
            let span = self.prof_enter("accum", (0, 0), || {
                format!("ACCUM: {} statement(s)", block.accum.len())
            });
            if span.is_some() {
                self.prof_op_workers.clear();
            }
            self.run_accum(&block.accum, &rows, &table_refs, bp)?;
            let bytes = if span.is_some() { self.accum_footprint() } else { 0 };
            let extra = SpanExtra {
                accum_bytes: bytes,
                workers: std::mem::take(&mut self.prof_op_workers),
                ..SpanExtra::default()
            };
            self.prof_exit(span, extra);
        }

        // 5. POST_ACCUM.
        if !block.post_accum.is_empty() {
            let span = self.prof_enter("post-accum", (0, 0), || {
                format!("POST_ACCUM: {} statement(s)", block.post_accum.len())
            });
            if span.is_some() {
                self.prof_op_workers.clear();
            }
            self.run_post_accum(&block.post_accum, &rows, bp)?;
            let bytes = if span.is_some() { self.accum_footprint() } else { 0 };
            let extra = SpanExtra {
                accum_bytes: bytes,
                workers: std::mem::take(&mut self.prof_op_workers),
                ..SpanExtra::default()
            };
            self.prof_exit(span, extra);
        }

        // 6. Outputs.
        let mut vertex_result: Option<Vec<VertexId>> = None;
        for (frag_idx, frag) in block.outputs.iter().enumerate() {
            let span = self.prof_enter("output", (frag_idx, 0), || {
                let into = frag.into.as_ref().map(|n| format!(" INTO {n}"));
                format!("output{}", into.unwrap_or_default())
            });
            let produced;
            if let Some((var, col)) = vertex_fragment_var(frag, bp, &rows) {
                let vs = self.eval_vertex_fragment(block, var, col, &rows)?;
                produced = vs.len() as u64;
                if let Some(name) = &frag.into {
                    self.vsets.insert(name.clone(), VertexSet::from_output(vs.clone()));
                }
                if vertex_result.is_none() {
                    vertex_result = Some(vs);
                }
            } else {
                let table = self.eval_table_fragment(block, frag, bp, &rows, &table_refs)?;
                produced = table.len() as u64;
                self.out_tables.insert(table.name.clone(), table);
            }
            self.prof_exit(span, SpanExtra { rows: produced, ..SpanExtra::default() });
        }
        Ok(vertex_result)
    }

    /// Binds the target-only conjuncts of a hop into `var`, which they
    /// see as the one column of a single-vertex row.
    fn bind_target_conds(&self, var: &str, conds: &[&Expr]) -> Vec<BExpr> {
        if conds.is_empty() {
            return Vec::new();
        }
        let mut binder = Binder::new(self.scope(Vars::One(var), &[]));
        conds.iter().map(|c| binder.bind(c)).collect()
    }

    /// Whether vertex `v`, bound alone to the target variable (in `one`),
    /// satisfies every conjunct of `conds` (tested in order, stopping at
    /// the first that fails).
    fn target_passes(&self, one: &mut VertexRow, v: VertexId, conds: &[BExpr]) -> Result<bool> {
        let row = Row { bindings: one.at(v), tables: &[] };
        let frame = Frame::default();
        let ev = Eval { env: self.env(), row, regs: &[], frame: &frame, group: None };
        for c in conds {
            if !truthy(&*ev.eval(c)?)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Narrows a vertex spec to the candidates that satisfy `conds` (the
    /// target-only conjuncts of a Kleene hop into `var`), so the
    /// reachability kernel can anchor on the surviving set.
    fn refine_spec(&self, spec: Spec, var: &str, conds: &[&Expr]) -> Result<Spec> {
        if conds.is_empty() {
            return Ok(spec);
        }
        let conds = self.bind_target_conds(var, conds);
        let mut keep = Vec::new();
        let mut one = VertexRow::new();
        for v in spec.candidates(self.graph()) {
            if self.target_passes(&mut one, v, &conds)? {
                keep.push(v);
            }
        }
        Ok(Spec::Set(ascending(keep)))
    }

    /// Filters the binding table by each of `conjuncts` (indices into
    /// the block plan's conjuncts) in turn, morsel-driven: workers
    /// evaluate the predicate over contiguous row ranges and return
    /// keep-lists; survivors gather into the output table in ascending
    /// morsel order, so the result (and any error — smallest failing row
    /// wins) is byte-identical at any worker count.
    fn filter_rows(
        &mut self,
        mut rows: MorselTable,
        conjuncts: &[usize],
        bp: &BlockPlan,
        tables: &[&Table],
    ) -> Result<MorselTable> {
        for &i in conjuncts {
            let cond = Binder::new(self.scope(Vars::Columns(&bp.columns), tables))
                .bind(&bp.conjuncts[i].0);
            let morsels = self.note_morsels(rows.len());
            let workers = self.workers_for(rows.len());
            let rows_ref = &rows;
            let run = dispatch(self.guard, workers, morsels.count(), |m| {
                let frame = Frame::default();
                let mut keep: Vec<usize> = Vec::new();
                for r in morsels.range(m) {
                    let row = Row { bindings: rows_ref.bindings_at(r), tables };
                    let ev = Eval { env: self.env(), row, regs: &[], frame: &frame, group: None };
                    if truthy(&*ev.eval(&cond)?)? {
                        keep.push(r);
                    }
                }
                Ok(keep)
            })?;
            let kept = run.results.iter().map(Vec::len).sum();
            let mut b = MorselBuilder::new(&rows, 0, kept);
            for keep in &run.results {
                for &r in keep {
                    b.push(r, &[], rows.mult(r).clone())?;
                }
            }
            rows = b.finish();
        }
        Ok(rows)
    }

    /// Binds vertex variable `name` to the vertices of `spec` in a new
    /// column — only to the vertex the first pre-anchored name of `pins`
    /// holds, if one does ([`Runtime::anchor_for`]; a point read then
    /// does not slow down as its vertex type grows) — or, when its
    /// column exists, keeps the rows whose vertex there `spec` matches.
    fn bind_vertex(
        &mut self,
        rows: MorselTable,
        var: VarCol,
        name: &str,
        spec: &Spec,
        pins: &[String],
    ) -> Result<MorselTable> {
        if let VarCol::Join(col) = var {
            // Join on the existing column: one contiguous scan.
            let mut b = MorselBuilder::new(&rows, 0, rows.len());
            for (r, bind) in rows.col(col).iter().enumerate() {
                if let Binding::Vertex(v) = bind {
                    if spec.matches(self.graph(), *v) {
                        b.push(r, &[], rows.mult(r).clone())?;
                    }
                } else {
                    return Err(Error::runtime(format!("`{name}` is not a vertex variable")));
                }
            }
            return Ok(b.finish());
        }
        debug_assert_eq!(var, VarCol::New(rows.width()));
        let candidates: Vec<VertexId> = match pins.iter().find_map(|n| self.anchor_for(n)) {
            Some(v) => {
                if spec.matches(self.graph(), v) {
                    vec![v]
                } else {
                    Vec::new()
                }
            }
            None => spec.candidates(self.graph()),
        };
        // The cross product's size is known up front: it is ticked
        // against the row budget before anything is allocated.
        let n = product_rows(rows.len(), candidates.len())?;
        self.guard.tick_rows(n as u64)?;
        let mut b = MorselBuilder::new(&rows, 1, n);
        for row in 0..rows.len() {
            self.guard.checkpoint()?;
            for &v in &candidates {
                b.push(row, &[Binding::Vertex(v)], rows.mult(row).clone())?;
            }
        }
        let next = b.finish();
        self.stats.vertices_touched += next.len() as u64;
        self.guard.note_visits(next.len() as u64, 0);
        Ok(next)
    }

    /// Extends the binding table across one pattern hop, as its step
    /// `hs` lays it out.
    ///
    /// `target_conds` are the WHERE conjuncts that name only the hop's
    /// unbound target (sargable anchors). A single-edge hop tests them on
    /// each vertex it reaches, once per vertex; a Kleene hop first
    /// narrows `to_spec` to the vertices that pass them, since its kernel
    /// may anchor on that set.
    ///
    /// The adjacency scan runs exactly when the plan chose it. A kernel's
    /// direction is the plan's one rule, `runs_backward`, on the target
    /// the hop observes.
    fn extend_hop(
        &mut self,
        rows: MorselTable,
        hs: &HopStep,
        to_spec: Spec,
        target_conds: &[&Expr],
    ) -> Result<MorselTable> {
        let graph = self.graph();
        let prev_col = hs.from;
        // The target's name in errors (its type for an anonymous one).
        let to_var = hs.to_var.as_deref().unwrap_or(&hs.to_source);
        let existing_to = match hs.to {
            VarCol::Join(c) => Some(c),
            VarCol::New(_) => None,
        };
        let anchored_to = match (existing_to, &hs.to_var) {
            (None, Some(v)) => self.anchor_for(v),
            _ => None,
        };

        let automata = match &hs.run {
            HopRun::Kernel(automata) => automata,
            HopRun::Adjacency(spec) => {
                // Single-edge hop: scan the source column contiguously,
                // walk each source's typed adjacency slice, optionally
                // binding the edge variable.
                let spec = spec.clone()?;
                // The target conjuncts' verdict per reached vertex.
                let mut passes: FxHashMap<VertexId, bool> = FxHashMap::default();
                let target_conds = self.bind_target_conds(to_var, target_conds);
                let mut one: Option<VertexRow> = None;
                if let Some(var) = &hs.rebinds {
                    return Err(bound_twice(var));
                }
                let edge_col = hs.edge;
                let n_extra = edge_col.is_some() as usize + existing_to.is_none() as usize;
                // Room for every adjacency entry the hop will scan (an upper
                // bound on its output), but no more rows than the row budget
                // has left.
                let scanned: usize = (0..rows.len())
                    .map_while(|r| vertex_at(&rows, r, prev_col, to_var).ok())
                    .map(|v| hop_adjacency(graph, v, spec.etype).len())
                    .sum();
                let headroom = usize::try_from(self.guard.rows_headroom()).unwrap_or(usize::MAX);
                let mut b = MorselBuilder::new(&rows, n_extra, scanned.min(headroom));
                let mut ex: Vec<Binding> = Vec::with_capacity(2);
                let mut edges_scanned = 0u64;
                for r in 0..rows.len() {
                    let before = b.len();
                    let src = vertex_at(&rows, r, prev_col, to_var)?;
                    for a in hop_adjacency(graph, src, spec.etype) {
                        edges_scanned += 1;
                        if !spec.matches(a.etype, a.dir) {
                            continue;
                        }
                        if !to_spec.matches(graph, a.other) {
                            continue;
                        }
                        if let Some(anchor) = anchored_to {
                            if a.other != anchor {
                                continue;
                            }
                        }
                        if let Some(c) = existing_to {
                            if *rows.binding(r, c) != Binding::Vertex(a.other) {
                                continue;
                            }
                        }
                        if !target_conds.is_empty() {
                            let pass = match passes.get(&a.other) {
                                Some(&pass) => pass,
                                None => {
                                    let one = one.get_or_insert_with(VertexRow::new);
                                    let pass = self.target_passes(one, a.other, &target_conds)?;
                                    passes.insert(a.other, pass);
                                    pass
                                }
                            };
                            if !pass {
                                continue;
                            }
                        }
                        ex.clear();
                        if edge_col.is_some() {
                            ex.push(Binding::Edge(a.edge));
                        }
                        if existing_to.is_none() {
                            ex.push(Binding::Vertex(a.other));
                        }
                        b.push(r, &ex, rows.mult(r).clone())?;
                    }
                    self.guard.tick_rows((b.len() - before) as u64)?;
                }
                let next = b.finish();
                self.stats.vertices_touched += next.len() as u64;
                self.stats.edges_scanned += edges_scanned;
                self.guard.note_visits(next.len() as u64, edges_scanned);
                return Ok(next);
            }
        };

        // Kleene / composite hop: reachability kernel per distinct source,
        // producing (target, multiplicity) pairs — never paths. The target
        // conjuncts narrow the candidate set *before* the kernel runs —
        // this is what lets enumerative kernels anchor on the target
        // (Q_n's `t.name == tgtName`).
        let to_spec = self.refine_spec(to_spec, to_var, target_conds)?;
        let automata = automata.as_ref().map_err(Clone::clone)?;
        // An edge variable in Kleene scope fails the block before any step.
        debug_assert!(hs.edge.is_none() && hs.rebinds.is_none());
        // The target as the hop observes it, and the anchors a backward
        // kernel starts from (Table 1's enumeration cost then grows with
        // the target's distance, not with the graph's path population).
        let (target, anchors) = match (existing_to.is_some() || anchored_to.is_some(), &to_spec) {
            (true, _) => (HopTarget::Bound, KeyRule::Bound),
            (false, Spec::Set(s)) => (HopTarget::Set(s.len()), KeyRule::Anchors(s)),
            (false, Spec::Any | Spec::Type(_)) => (HopTarget::Open, KeyRule::Forward),
        };
        // The plan holds a reversal exactly where the kernel may reverse.
        let may_reverse = automata.backward.is_some();
        let (nfa, rule) = match (&automata.backward, runs_backward(may_reverse, target)) {
            (Some(rev), true) => (rev, anchors),
            _ => (&automata.forward, KeyRule::Forward),
        };
        let pool = KernelPool::new(graph, nfa);
        // A row's source vertex and bound target; an error is the one the
        // hop raises at that row.
        let ends = |r: usize| -> Result<(VertexId, Option<VertexId>)> {
            let src = vertex_at(&rows, r, prev_col, to_var)?;
            let bound = match (existing_to, anchored_to) {
                (Some(c), _) => match rows.binding(r, c) {
                    Binding::Vertex(v) => Some(*v),
                    _ => return Err(Error::runtime(format!("`{to_var}` is not a vertex"))),
                },
                (None, a) => a,
            };
            Ok((src, bound))
        };

        // 1. The distinct kernel keys (forward: source vertices; backward:
        // target anchors) in first-appearance row order, up to the first
        // row the hop rejects: no kernel past that row ever runs.
        let mut keys: Vec<VertexId> = Vec::new();
        let mut seen: FxHashSet<VertexId> = FxHashSet::default();
        let mut lookups = 0u64;
        for r in 0..rows.len() {
            let Ok((src, bound)) = ends(r) else { break };
            for &k in rule.keys(&src, &bound) {
                lookups += 1;
                if seen.insert(k) {
                    keys.push(k);
                }
            }
        }
        // 2. One kernel per key, through the engine's one scheduler
        // (inline on this thread with one worker).
        let maps = self.run_kernels(&keys, &pool)?;
        self.prof_hop_cache = (lookups - keys.len() as u64, keys.len() as u64);
        let reach = HopReach { graph, to_spec: &to_spec, rule, maps };

        // 3. Count each row's output rows and tick them against the row
        // budget, so an over-budget hop fails before it allocates.
        let mut total = 0usize;
        for r in 0..rows.len() {
            let (src, bound) = ends(r)?;
            let mut n = 0usize;
            reach.each_output(src, bound, |_, _| {
                n += 1;
                Ok(())
            })?;
            self.guard.tick_rows(n as u64)?;
            total += n;
        }
        // 4. Allocate every column once, at its exact length, and fill it
        // in row order: the rows and multiplicities of any parallelism.
        let mut out = MorselBuilder::new(&rows, existing_to.is_none() as usize, total);
        for r in 0..rows.len() {
            let (src, bound) = ends(r)?;
            let mult = rows.mult(r);
            reach.each_output(src, bound, |t, cnt| {
                let extra = [Binding::Vertex(t)];
                let extras = if existing_to.is_none() { &extra[..] } else { &[] };
                out.push(r, extras, mult.mul(cnt))
            })?;
        }
        Ok(out.finish())
    }

    /// Runs one reachability kernel per key through the engine's one
    /// scheduler ([`dispatch`], items = keys) and returns each key's
    /// [`ReachMap`].
    ///
    /// Determinism: each kernel counts into its own [`MatchStats`] and
    /// the counters (all sums) merge into `self.stats` in key order, so
    /// totals are the same at any worker count. The shared
    /// [`QueryGuard`] is checkpointed inside every kernel loop, so
    /// cancellation and budget exhaustion stop all workers.
    fn run_kernels(
        &mut self,
        keys: &[VertexId],
        pool: &KernelPool<'_>,
    ) -> Result<FxHashMap<VertexId, ReachMap>> {
        let (semantics, guard) = (self.semantics, self.guard);
        let run = dispatch(guard, self.eng.parallelism, keys.len(), |i| {
            let mut stats = MatchStats::default();
            let map = pool.reach(keys[i], semantics, guard, &mut stats)?;
            Ok((map, stats))
        })?;
        if self.prof.is_some() {
            // Per-worker kernel distribution for the enclosing hop span —
            // how evenly the work-stealing fan-out spread the kernels.
            // Kernels that ran on the caller's thread record none.
            let per = run.per_worker(|_| 1);
            if per.len() > 1 {
                self.prof_hop_workers = per;
            }
        }
        let mut maps = FxHashMap::default();
        maps.reserve(keys.len());
        for (key, (map, stats)) in keys.iter().zip(run.results) {
            self.stats.merge(&stats);
            maps.insert(*key, map);
        }
        Ok(maps)
    }

    // ---- ACCUM / POST_ACCUM -------------------------------------------------

    /// The one write path into the live stores: runs `write` on the
    /// accumulator an emission or a partial's cell lands in (through
    /// [`VAccStore::update`] for vertex cells, which keeps the store's
    /// byte total).
    fn write_target(
        &mut self,
        cell: Cell,
        write: impl FnOnce(&mut Accum) -> std::result::Result<(), accum::AccumError>,
    ) -> Result<()> {
        match cell {
            Cell::V { store, vertex } => Ok(self.vaccs[store].update(vertex, write)?),
            Cell::G { store } => Ok(write(&mut self.gaccs[store])?),
        }
    }

    /// Applies one emission to the live stores (the sequential Reduce).
    fn apply_emission(&mut self, em: Emission<'_, '_, '_>) -> Result<()> {
        let registry = &self.eng.registry;
        let Emission { target, value, combine, mult } = em;
        self.write_target(target.cell()?, |cell| {
            if combine {
                cell.combine_with_multiplicity(value, mult, registry)
            } else {
                cell.assign(value.into_value())
            }
        })
    }

    /// Merges one run's identity-seeded partial into the live stores:
    /// globals in ascending store order, vertex cells in ascending
    /// `(store, VertexId)` order, so the merge sequence is a pure
    /// function of the run boundaries, never of worker timing.
    ///
    /// Cells marked as assigned *replace* the live state wholesale:
    /// under the proven ACCUM gate every partial assigned the same
    /// row-invariant value, and under the proven POST_ACCUM gate the
    /// last partial's state replays the sequential suffix exactly, so
    /// replacement in ascending run order reproduces the sequential
    /// fold byte-for-byte.
    fn merge_partial(&mut self, part: AccumPartial) -> Result<()> {
        let mut globals: Vec<(usize, (Accum, bool))> = part.g.into_iter().collect();
        globals.sort_by_key(|(store, _)| *store);
        let mut vcells: Vec<((usize, VertexId), (Accum, bool))> = part.v.into_iter().collect();
        vcells.sort_by_key(|(k, _)| *k);
        let cells = globals
            .into_iter()
            .map(|(store, c)| (Cell::G { store }, c))
            .chain(vcells.into_iter().map(|((store, vertex), c)| (Cell::V { store, vertex }, c)));
        let registry = &self.eng.registry;
        for (cell, (acc, assigned)) in cells {
            self.write_target(cell, |live| {
                if assigned {
                    *live = acc;
                    Ok(())
                } else {
                    live.merge(acc, registry)
                }
            })?;
        }
        Ok(())
    }

    /// Runs one bound accumulator clause over the items `morsels`
    /// splits — the single implementation behind ACCUM (items are
    /// binding-table rows) and POST_ACCUM (items are the distinct
    /// vertices of one column). `bind(i)` yields item `i`'s bindings and
    /// multiplicity; every statement goes through [`emit`] with the
    /// item's registers in a [`Frame`], and the clause's verdict alone
    /// decides how the emissions reach the live stores.
    fn run_clause<'r>(
        &mut self,
        prog: &Program,
        morsels: Morsels,
        tables: &[&Table],
        bind: impl Fn(usize) -> (Bindings<'r>, &'r BigCount) + Sync,
        fold: FoldVerdict,
    ) -> Result<()> {
        if !fold.parallel() {
            // The row-order fold, in place on the caller's thread: each
            // write lands before the next statement runs.
            let mut frame = Frame::new(prog);
            for i in 0..morsels.items {
                self.guard.checkpoint()?;
                let (bindings, mult) = bind(i);
                frame.reset();
                for stmt in &prog.stmts {
                    // The evaluator is rebuilt per statement: the
                    // previous statement's write is already live.
                    let row = Row { bindings, tables };
                    let ev =
                        Eval { env: self.env(), row, regs: &prog.regs, frame: &frame, group: None };
                    if let Some(em) = emit(&ev, stmt, mult)? {
                        self.apply_emission(em)?;
                    }
                }
            }
            if self.prof.is_some() && morsels.count() > 0 {
                self.prof_op_workers = vec![morsels.count() as u64];
            }
            return self.guard.note_accum_bytes(self.accum_footprint());
        }

        // One partial per worker: the morsels split into contiguous runs,
        // each run folds its morsels in order into one partial, and the
        // partials merge in ascending run order. The live stores are not
        // written while workers run, so every item maps against the
        // pre-clause state. Exact-merge combiners are associative at the
        // representation level and proven assigns replay, so this
        // regrouping of the sequential item-order fold is byte-identical
        // to it at any parallelism and any morsel size.
        let guard = self.guard;
        let env = self.env();
        let workers = self.workers_for(morsels.items);
        let registry = &self.eng.registry;
        let (vaccs, gtypes) = (&self.vaccs, &self.gacc_types);
        let runs = even_runs(morsels.count(), workers);
        let run = dispatch(guard, workers, runs.len(), |r| {
            let mut frame = Frame::new(prog);
            let mut part = AccumPartial::default();
            for m in runs[r].clone() {
                guard.checkpoint()?;
                for i in morsels.range(m) {
                    guard.checkpoint()?;
                    map_item(env, prog, &mut frame, bind(i), tables, &mut |em| {
                        part.fold(em, vaccs, gtypes, registry)
                    })?;
                }
            }
            Ok(part)
        })?;
        if self.prof.is_some() {
            // PROFILE counts morsels per worker, not runs.
            self.prof_op_workers = run.per_worker(|r| runs[r].len() as u64);
        }
        for part in run.results {
            self.merge_partial(part)?;
        }
        self.guard.note_accum_bytes(self.accum_footprint())
    }

    /// ACCUM: one Map over the binding-table rows, then the Reduce the
    /// plan's verdict allows. The clause's reads of its own targets bind
    /// to the block-start snapshot, so every row sees the pre-clause
    /// state whichever Reduce runs.
    fn run_accum(
        &mut self,
        stmts: &[AccStmt],
        rows: &MorselTable,
        tables: &[&Table],
        bp: &BlockPlan,
    ) -> Result<()> {
        self.stats.acc_executions += rows.len() as u64;
        let scope = self.scope(Vars::Columns(&bp.columns), tables);
        let prog = Binder::clause(scope, &bp.accum_snapshot, stmts);
        let morsels = self.note_morsels(rows.len());
        let bind = |r| (rows.bindings_at(r), rows.mult(r));
        self.run_clause(&prog, morsels, tables, bind, bp.accum_fold)
    }

    /// Estimated heap footprint of all live accumulator state, in bytes —
    /// O(stores): every accumulator and store keeps its own total.
    fn accum_footprint(&self) -> u64 {
        let globals: u64 = self.gaccs.iter().map(|a| a.estimated_bytes() as u64).sum();
        globals + self.vaccs.iter().map(VAccStore::estimated_bytes).sum::<u64>()
    }

    /// POST_ACCUM: the clause runs once per distinct vertex of the one
    /// FROM variable it references, in ascending vertex order — or once,
    /// bound to nothing, when it references none and any row matched.
    fn run_post_accum(
        &mut self,
        stmts: &[AccStmt],
        rows: &MorselTable,
        bp: &BlockPlan,
    ) -> Result<()> {
        let one = BigCount::one();
        let Some((col, var)) = bp.post_accum_col.as_ref().map_err(Error::clone)? else {
            let once = Morsels::new(usize::from(!rows.is_empty()), 1);
            let bind = |_| (Bindings::EMPTY, &one);
            let prog = Binder::clause(self.scope(Vars::None, &[]), &[], stmts);
            return self.run_clause(&prog, once, &[], bind, bp.post_accum_fold);
        };
        let mut vertices: Vec<VertexId> = rows
            .col(*col)
            .iter()
            .filter_map(|b| match b {
                Binding::Vertex(x) => Some(*x),
                _ => None,
            })
            .collect();
        vertices.sort();
        vertices.dedup();
        // One column of the distinct vertices: row `i` binds the `i`th.
        let vertices: [Vec<Binding>; 1] = [vertices.into_iter().map(Binding::Vertex).collect()];
        let morsels = self.note_morsels(vertices[0].len());
        let prog = Binder::clause(self.scope(Vars::One(var), &[]), &[], stmts);
        let bind = |i: usize| (Bindings::new(&vertices, i), &one);
        self.run_clause(&prog, morsels, &[], bind, bp.post_accum_fold)
    }

    // ---- outputs ----------------------------------------------------------------

    /// A vertex fragment's output: the distinct vertices of variable
    /// `var` (column `col`) in first-occurrence row order, then ORDER BY
    /// and LIMIT.
    fn eval_vertex_fragment(
        &mut self,
        block: &SelectBlock,
        var: &str,
        col: usize,
        rows: &MorselTable,
    ) -> Result<Vec<VertexId>> {
        let mut seen = FxHashSet::default();
        let mut vs: Vec<VertexId> = Vec::new();
        for b in rows.col(col) {
            if let Binding::Vertex(v) = *b {
                if seen.insert(v) {
                    vs.push(v);
                }
            }
        }
        // ORDER BY over the vertex variable.
        if !block.order_by.is_empty() {
            let mut binder = Binder::new(self.scope(Vars::One(var), &[]));
            let order: Vec<BExpr> = block.order_by.iter().map(|o| binder.bind(&o.expr)).collect();
            let mut keyed: Vec<(Vec<Value>, VertexId)> = Vec::with_capacity(vs.len());
            let mut one = VertexRow::new();
            for v in vs {
                let row = Row { bindings: one.at(v), tables: &[] };
                let mut keys = Vec::with_capacity(order.len());
                for o in &order {
                    keys.push(self.eval_in(o, row)?);
                }
                keyed.push((keys, v));
            }
            sort_by_order_keys(&mut keyed, &block.order_by);
            vs = keyed.into_iter().map(|(_, v)| v).collect();
        }
        if let Some(limit) = &block.limit {
            vs.truncate(self.limit_value(limit)?);
        }
        Ok(vs)
    }

    fn eval_table_fragment(
        &mut self,
        block: &SelectBlock,
        frag: &OutputFragment,
        bp: &BlockPlan,
        rows: &MorselTable,
        tables: &[&Table],
    ) -> Result<Table> {
        let name = frag.into.clone().unwrap_or_else(|| "RESULT".to_string());
        let columns: Vec<String> = frag
            .items
            .iter()
            .enumerate()
            .map(|(i, it)| it.alias.clone().unwrap_or_else(|| column_label(&it.expr, i)))
            .collect();
        let mut out = Table::new(name, columns);

        let grouped = block.group_by.is_some()
            || frag.items.iter().any(|i| i.expr.contains_aggregate());
        if grouped {
            self.eval_grouped(block, frag, bp, rows, tables, &mut out)?;
        } else {
            // Plain projection (bag semantics: rows carry multiplicities).
            // Cell and ORDER-BY-key evaluation runs morsel-parallel over
            // the columnar table; multiplicity expansion, DISTINCT, sort
            // and LIMIT stay sequential in ascending row order.
            let mut binder = Binder::new(self.scope(Vars::Columns(&bp.columns), tables));
            let items: Vec<BExpr> = frag.items.iter().map(|it| binder.bind(&it.expr)).collect();
            let order: Vec<BExpr> = block.order_by.iter().map(|o| binder.bind(&o.expr)).collect();
            let morsels = self.note_morsels(rows.len());
            let workers = self.workers_for(rows.len());
            let guard = self.guard;
            let run = dispatch(guard, workers, morsels.count(), |m| {
                let frame = Frame::default();
                let range = morsels.range(m);
                let mut out: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(range.len());
                for r in range {
                    let row = Row { bindings: rows.bindings_at(r), tables };
                    let ev = Eval { env: self.env(), row, regs: &[], frame: &frame, group: None };
                    let cells = eval_all(&ev, &items)?;
                    out.push((eval_all(&ev, &order)?, cells));
                }
                Ok(out)
            })?;
            let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
            for (r, (keys, cells)) in run.results.into_iter().flatten().enumerate() {
                let copies = if frag.distinct {
                    1
                } else {
                    rows.mult(r).to_u64().filter(|m| *m <= ROW_EXPANSION_CAP).ok_or_else(|| {
                        Error::runtime(
                            "non-aggregate projection over a binding with huge multiplicity; \
                             aggregate it or use an enumerative semantics",
                        )
                    })?
                };
                // The last copy takes the evaluated row itself.
                for _ in 1..copies {
                    keyed.push((keys.clone(), cells.clone()));
                }
                if copies > 0 {
                    keyed.push((keys, cells));
                }
            }
            self.emit_rows(block, frag.distinct, keyed, &mut out)?;
        }
        Ok(out)
    }

    /// The tail every table fragment ends in: `(order keys, cells)` rows
    /// through DISTINCT (on the cells), ORDER BY and LIMIT into `out`.
    fn emit_rows(
        &self,
        block: &SelectBlock,
        distinct: bool,
        mut keyed: Vec<(Vec<Value>, Vec<Value>)>,
        out: &mut Table,
    ) -> Result<()> {
        if distinct {
            let mut seen = std::collections::BTreeSet::new();
            keyed.retain(|(_, cells)| seen.insert(cells.clone()));
        }
        if !block.order_by.is_empty() {
            sort_by_order_keys(&mut keyed, &block.order_by);
        }
        if let Some(limit) = &block.limit {
            keyed.truncate(self.limit_value(limit)?);
        }
        for (_, cells) in keyed {
            out.push(cells);
        }
        Ok(())
    }

    /// Grouped evaluation: grouping sets × aggregate computation.
    fn eval_grouped(
        &mut self,
        block: &SelectBlock,
        frag: &OutputFragment,
        bp: &BlockPlan,
        rows: &MorselTable,
        tables: &[&Table],
        out: &mut Table,
    ) -> Result<()> {
        let default_gb = GroupBy { keys: Vec::new(), sets: vec![Vec::new()] };
        let gb = block.group_by.as_ref().unwrap_or(&default_gb);

        // Collect every aggregate sub-expression appearing in outputs,
        // HAVING and ORDER BY, and which aggregate each is.
        let mut agg_exprs: Vec<Expr> = Vec::new();
        let mut kinds: Vec<Aggregate> = Vec::new();
        {
            let mut collect = |e: &Expr| {
                e.walk(&mut |sub| {
                    if let Ok(Some(kind)) = sub.aggregate() {
                        if !agg_exprs.contains(sub) {
                            agg_exprs.push(sub.clone());
                            kinds.push(kind);
                        }
                    }
                });
            };
            for it in &frag.items {
                collect(&it.expr);
            }
            if let Some(h) = &block.having {
                collect(h);
            }
            for o in &block.order_by {
                collect(&o.expr);
            }
        }

        // Evaluate group keys and aggregate arguments per row once,
        // morsel-parallel over the columnar table (both are independent
        // of group membership: aggregate arguments see no group context,
        // so hoisting them out of the per-group loop is value-preserving).
        let mut binder = Binder::new(self.scope(Vars::Columns(&bp.columns), tables));
        let keys: Vec<BExpr> = gb.keys.iter().map(|k| binder.bind(k)).collect();
        // `count(*)` is `count` of a value that is never NULL: the sum of
        // the rows' multiplicities.
        let agg_args: Vec<BExpr> = agg_exprs
            .iter()
            .map(|ae| match ae {
                Expr::Call { star: false, args, .. } => binder.bind(&args[0]),
                _ => BExpr::Const(Value::Bool(true)),
            })
            .collect();
        let morsels = self.note_morsels(rows.len());
        let workers = self.workers_for(rows.len());
        let guard = self.guard;
        let run = dispatch(guard, workers, morsels.count(), |m| {
            let frame = Frame::default();
            let range = morsels.range(m);
            let mut out: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(range.len());
            for r in range {
                let row = Row { bindings: rows.bindings_at(r), tables };
                let ev = Eval { env: self.env(), row, regs: &[], frame: &frame, group: None };
                let keys = eval_all(&ev, &keys)?;
                out.push((keys, eval_all(&ev, &agg_args)?));
            }
            Ok(out)
        })?;
        let mut row_keys: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        let mut agg_vals: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        for (keys, avals) in run.results.into_iter().flatten() {
            row_keys.push(keys);
            agg_vals.push(avals);
        }

        // Outputs, HAVING and ORDER BY read aggregates and group keys
        // through slots of the current group.
        let names = GroupNames { aggs: &agg_exprs, keys: &gb.keys };
        let mut binder = Binder::grouped(self.scope(Vars::Columns(&bp.columns), tables), names);
        let having = block.having.as_ref().map(|h| binder.bind(h));
        let items: Vec<BExpr> = frag.items.iter().map(|it| binder.bind(&it.expr)).collect();
        let order: Vec<BExpr> = block.order_by.iter().map(|o| binder.bind(&o.expr)).collect();
        let mut result_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new(); // (order keys, cells)
        for set in &gb.sets {
            // Group rows by the projection of keys onto this set.
            let mut groups: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
            for (i, keys) in row_keys.iter().enumerate() {
                let k: Vec<Value> = set.iter().map(|&ki| keys[ki].clone()).collect();
                groups.entry(k).or_default().push(i);
            }
            for (_gkey, members) in groups {
                // Compute aggregates over the member rows.
                let mut agg_values: Vec<Value> = Vec::with_capacity(agg_exprs.len());
                for (pos, &kind) in kinds.iter().enumerate() {
                    agg_values.push(self.eval_aggregate(kind, pos, &members, rows, &agg_vals)?);
                }
                let rep = members[0];
                // Grouped keys → their value; ungrouped keys → NULL;
                // aggregates → computed value.
                let group = Group { aggs: &agg_values, keys: &row_keys[rep], set };
                let frame = Frame::default();
                let row = Row { bindings: rows.bindings_at(rep), tables };
                let ev = Eval { env: self.env(), row, regs: &[], frame: &frame, group: Some(&group) };
                if let Some(h) = &having {
                    if !truthy(&*ev.eval(h)?)? {
                        continue;
                    }
                }
                let cells = eval_all(&ev, &items)?;
                result_rows.push((eval_all(&ev, &order)?, cells));
            }
        }
        self.emit_rows(block, frag.distinct, result_rows, out)
    }

    /// Computes one aggregate over a group, multiplicity-weighted, from
    /// the per-row argument values pre-evaluated during the morsel pass
    /// (`agg_vals[row][pos]`).
    fn eval_aggregate(
        &self,
        kind: Aggregate,
        pos: usize,
        members: &[usize],
        rows: &MorselTable,
        agg_vals: &[Vec<Value>],
    ) -> Result<Value> {
        let mut count = BigCount::zero();
        let mut sum = 0.0f64;
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for &i in members {
            let v = agg_vals[i][pos].clone();
            if matches!(v, Value::Null) {
                continue;
            }
            count.add_assign(rows.mult(i));
            match kind {
                Aggregate::Sum | Aggregate::Avg => {
                    let x = v.as_f64().ok_or_else(|| Error::type_error("numeric", &v))?;
                    sum += x * rows.mult(i).to_f64();
                }
                Aggregate::Min if min.as_ref().is_none_or(|m| v < *m) => min = Some(v),
                Aggregate::Max if max.as_ref().is_none_or(|m| v > *m) => max = Some(v),
                _ => {}
            }
        }
        Ok(match kind {
            Aggregate::CountStar | Aggregate::Count => count
                .to_i64()
                .map(Value::Int)
                .unwrap_or_else(|| Value::from(count.to_string())),
            Aggregate::Sum => Value::Double(sum),
            Aggregate::Avg if count.is_zero() => Value::Null,
            Aggregate::Avg => Value::Double(sum / count.to_f64()),
            Aggregate::Min => min.unwrap_or(Value::Null),
            Aggregate::Max => max.unwrap_or(Value::Null),
        })
    }
}

// ---- helpers -------------------------------------------------------------

/// Which kernels a Kleene hop runs: forward from each row's source, or
/// backward from each row's bound target or from every target anchor.
#[derive(Clone, Copy)]
enum KeyRule<'a> {
    Forward,
    Bound,
    /// The (spec-refined) target set, ascending.
    Anchors(&'a [VertexId]),
}

impl<'a> KeyRule<'a> {
    /// The kernel keys a row with source `src` and bound target `bound`
    /// reads.
    fn keys<'k>(self, src: &'k VertexId, bound: &'k Option<VertexId>) -> &'k [VertexId]
    where
        'a: 'k,
    {
        match self {
            KeyRule::Forward => std::slice::from_ref(src),
            KeyRule::Bound => bound.as_slice(),
            KeyRule::Anchors(ts) => ts,
        }
    }
}

/// One Kleene hop's kernel results, and how a binding row reads its
/// output rows from them.
struct HopReach<'a> {
    graph: &'a Graph,
    to_spec: &'a Spec,
    rule: KeyRule<'a>,
    maps: FxHashMap<VertexId, ReachMap>,
}

impl HopReach<'_> {
    /// Calls `f(target, paths)` once per output row of a row with source
    /// `src` and bound target `bound`, in output order: ascending target
    /// forward, anchor order backward.
    fn each_output(
        &self,
        src: VertexId,
        bound: Option<VertexId>,
        mut f: impl FnMut(VertexId, &BigCount) -> Result<()>,
    ) -> Result<()> {
        let keep = |t: VertexId| self.to_spec.matches(self.graph, t);
        if !matches!(self.rule, KeyRule::Forward) {
            for &t in self.rule.keys(&src, &bound) {
                if let Some((_, cnt)) = self.maps[&t].get(&src) {
                    if keep(t) {
                        f(t, cnt)?;
                    }
                }
            }
            return Ok(());
        }
        let m = &self.maps[&src];
        match bound {
            Some(t) => {
                if let Some((_, cnt)) = m.get(&t) {
                    if keep(t) {
                        f(t, cnt)?;
                    }
                }
            }
            None => {
                for (t, (_, cnt)) in m {
                    if keep(*t) {
                        f(*t, cnt)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The adjacency entries of `v` a single-edge hop over edge type `etype`
/// can cross: that type's slice of the typed CSR, or every entry for the
/// wildcard (`None`). Either way in adjacency order.
fn hop_adjacency(graph: &Graph, v: VertexId, etype: Option<ETypeId>) -> &[AdjEntry] {
    match etype {
        Some(t) => graph.adjacency_of_type(v, t),
        None => graph.adjacency(v),
    }
}

/// Rows of the cross product of a `rows`-row binding table with
/// `per_row` bindings per row.
fn product_rows(rows: usize, per_row: usize) -> Result<usize> {
    rows.checked_mul(per_row).ok_or_else(|| {
        Error::runtime(format!("a {rows} × {per_row} binding-table cross product overflows"))
    })
}

fn vertex_at(rows: &MorselTable, row: usize, col: usize, ctx: &str) -> Result<VertexId> {
    match rows.binding(row, col) {
        Binding::Vertex(v) => Ok(*v),
        _ => Err(Error::runtime(format!("pattern source for `{ctx}` is not a vertex"))),
    }
}

/// A fragment is a *vertex fragment* iff it is a single un-aliased bare
/// identifier bound to a vertex column; returns the variable and its
/// column.
fn vertex_fragment_var<'f>(
    frag: &'f OutputFragment,
    bp: &BlockPlan,
    rows: &MorselTable,
) -> Option<(&'f str, usize)> {
    if frag.items.len() != 1 || frag.items[0].alias.is_some() {
        return None;
    }
    let Expr::Ident(name) = &frag.items[0].expr else { return None };
    let col = *bp.columns.get(name)?;
    if rows.is_empty() {
        return Some((name, col)); // empty result set: vacuously a vertex set
    }
    // Inspect any row to confirm the column holds vertices (all rows of a
    // column share a binding kind).
    matches!(rows.col(col).first(), Some(Binding::Vertex(_))).then_some((name, col))
}

fn column_label(e: &Expr, i: usize) -> String {
    match e {
        Expr::Ident(s) => s.clone(),
        Expr::Attr { base, field } => format!("{base}.{field}"),
        Expr::VAcc { var, name, .. } => format!("{var}.@{name}"),
        Expr::GAcc(name) => format!("@@{name}"),
        Expr::Call { func, .. } => func.clone(),
        _ => format!("col{i}"),
    }
}

/// Evaluates each of `es` to an owned value, in a vector of exactly
/// `es.len()` slots (output rows are kept until the block's table is built).
fn eval_all<'a>(ev: &Eval<'a, '_, '_>, es: &'a [BExpr]) -> Result<Vec<Value>> {
    ev.eval_each(es, Cow::into_owned)
}

/// Sorts `(keys, payload)` pairs by the ORDER BY specification using the
/// total order on `Value`.
fn sort_by_order_keys<T>(items: &mut [(Vec<Value>, T)], order: &[OrderItem]) {
    items.sort_by(|(a, _), (b, _)| {
        for (i, o) in order.iter().enumerate() {
            let c = a[i].cmp(&b[i]);
            let c = if o.desc { c.reverse() } else { c };
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });
}
