//! Expression binding and evaluation.
//!
//! An expression runs in two steps. [`Binder::bind`] lowers an [`Expr`]
//! once per block execution into a [`BExpr`] whose leaves are slots, so
//! every name is resolved there and nowhere else, with the precedence
//! ACCUM local > binding-row variable > statement local (`FOREACH`) >
//! query parameter > vertex set:
//!
//! * a row column index ([`BExpr::Col`]) — the column the block's plan
//!   laid the variable out in ([`Vars`]) — or an ACCUM-local slot
//!   ([`BExpr::Local`]);
//! * a constant for parameters, statement locals and vertex sets, which
//!   cannot change within a block;
//! * an accumulator store id — `v.@a` reads the live store, `v.@a'` the
//!   snapshot taken at the start of the current query block (paper
//!   Section 5, PageRank's previous-iteration score);
//! * an attribute with a per-vertex-type (and per-edge-type, per-table)
//!   index table, a builtin enum, a resolved edge type for `outdegree`;
//! * an aggregate or group-key slot in grouped SELECT output.
//!
//! A name the binder cannot resolve becomes a [`BExpr::Fail`] leaf that
//! raises the runtime error when, and only when, it is evaluated.
//!
//! [`Eval::eval`] then evaluates the bound tree against one row with no
//! name lookups, reading its columns through [`Bindings`], the one view
//! of a binding-table row. Inside an ACCUM or POST_ACCUM clause the
//! binder also numbers values ([`Binder::clause`]): structurally
//! identical subtrees share a register, computed at its first use in a
//! row and reused for the rest of that row.

use crate::ast::{AccStmt, BinOp, Expr, UnOp};
use crate::datetime;
use crate::error::{Error, Result};
use crate::exec::VertexSet;
use crate::table::Table;
use accum::{Accum, AccumType, Input};
use pgraph::fxhash::FxHashMap;
use pgraph::graph::{EdgeId, Graph, VertexId};
use pgraph::schema::ETypeId;
use pgraph::value::Value;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::fmt::Write;
use std::sync::Arc;

/// What a FROM-clause variable is bound to in one binding-table row.
///
/// Eight bytes, the width of one binding-table cell: a tag, and a
/// vertex id, an edge id or a `(u16 table, u32 row)` pair. A table
/// binding is made only through [`Binding::row`], which refuses an index
/// that does not fit instead of truncating it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Binding {
    /// A bound vertex.
    Vertex(VertexId),
    /// A bound edge.
    Edge(EdgeId),
    /// Row `row` of FROM table number `table` (index into the evaluated
    /// block's table list).
    Row {
        /// Index into the evaluated block's table list.
        table: u16,
        /// Row index within that table.
        row: u32,
    },
}

impl Binding {
    /// The binding of row `row` of FROM table number `table`, or an
    /// error when either index is too large for a binding cell.
    pub fn row(table: usize, row: usize) -> Result<Binding> {
        let too_many = |what: &str, n: usize| {
            Error::runtime(format!("{what} {n} does not fit a binding-table cell"))
        };
        Ok(Binding::Row {
            table: u16::try_from(table).map_err(|_| too_many("FROM table number", table))?,
            row: u32::try_from(row).map_err(|_| too_many("table row", row))?,
        })
    }

    /// The value a binding denotes when used as a whole (comparisons,
    /// projections).
    pub fn to_value(&self, tables: &[&Table]) -> Value {
        match *self {
            Binding::Vertex(v) => Value::Vertex(v),
            Binding::Edge(e) => Value::Edge(e),
            Binding::Row { table, row } => {
                Value::Tuple(tables[usize::from(table)].rows[row as usize].clone())
            }
        }
    }
}

/// Per-vertex accumulator storage for one declared `@name`. A store
/// holds only the cells a query touched: a zero-initialised index of one
/// `u32` per vertex points into a vector of the populated cells, so an
/// untouched vertex costs 4 bytes and reads the prototype.
#[derive(Debug, Clone)]
pub struct VAccStore {
    /// Declared accumulator type.
    pub ty: AccumType,
    /// The freshly-initialized instance vertices start from (includes the
    /// declaration initializer, e.g. `SumAccum<float> @score = 1`).
    pub prototype: Accum,
    /// Per `VertexId`: 0 while untouched, else 1 + the cell's position in
    /// `cells`.
    index: Vec<u32>,
    /// The touched cells, in first-touch order (never iterated: a walk
    /// over the cells would go through `index`, in vertex order).
    cells: Vec<Accum>,
    /// Running [`Accum::estimated_bytes`] total of the populated cells,
    /// kept by [`VAccStore::update`], the store's only write path.
    cell_bytes: u64,
}

impl VAccStore {
    /// A store for `vertices` vertices, every cell at `prototype`.
    pub(crate) fn new(ty: AccumType, prototype: Accum, vertices: usize) -> Self {
        VAccStore { ty, prototype, index: vec![0; vertices], cells: Vec::new(), cell_bytes: 0 }
    }

    /// The accumulator at `v` (the prototype if untouched).
    pub(crate) fn accum_at(&self, v: VertexId) -> &Accum {
        match self.index.get(v.0 as usize) {
            Some(&slot) if slot > 0 => &self.cells[slot as usize - 1],
            _ => &self.prototype,
        }
    }

    /// Read the current value at `v` (prototype value if untouched).
    pub fn value_at(&self, v: VertexId) -> Value {
        self.accum_at(v).value()
    }

    /// Runs `f` on `v`'s accumulator, materializing it from the prototype
    /// first, and keeps the store's byte total in step.
    pub(crate) fn update<R>(&mut self, v: VertexId, f: impl FnOnce(&mut Accum) -> R) -> R {
        let idx = v.0 as usize;
        if idx >= self.index.len() {
            self.index.resize(idx + 1, 0);
        }
        if self.index[idx] == 0 {
            // Charge the clone, not the prototype: a clone drops any spare
            // capacity the prototype's buffers had.
            let cell = self.prototype.clone();
            self.cell_bytes += cell.estimated_bytes() as u64;
            self.cells.push(cell);
            self.index[idx] =
                u32::try_from(self.cells.len()).expect("a store holds at most one cell per vertex");
        }
        let cell = &mut self.cells[self.index[idx] as usize - 1];
        let before = cell.estimated_bytes() as u64;
        let out = f(cell);
        self.cell_bytes = self.cell_bytes - before + cell.estimated_bytes() as u64;
        out
    }

    /// Estimated footprint of the store — prototype plus populated cells
    /// — in O(1). The index is not charged.
    pub(crate) fn estimated_bytes(&self) -> u64 {
        self.prototype.estimated_bytes() as u64 + self.cell_bytes
    }
}

/// One row of a column-major binding table: row `row` across `cols`,
/// addressed without materializing the row. A block's rows are views
/// into its [`MorselTable`](crate::morsel::MorselTable); a row made for
/// one vertex (a hop's target test, UPDATE/DELETE WHERE, `PRINT S[...]`,
/// a vertex fragment's ORDER BY, POST_ACCUM) is a row of a one-column
/// table its operator builds once (a `VertexRow`, or a column of every
/// vertex it visits).
#[derive(Clone, Copy)]
pub struct Bindings<'a> {
    /// The table's columns (all the same length).
    cols: &'a [Vec<Binding>],
    /// The row this view addresses.
    row: usize,
}

impl<'a> Bindings<'a> {
    /// No bindings: statement-level expressions.
    pub const EMPTY: Bindings<'static> = Bindings { cols: &[], row: 0 };

    /// Row `row` of the column-major table `cols`.
    pub fn new(cols: &'a [Vec<Binding>], row: usize) -> Self {
        Bindings { cols, row }
    }

    /// The binding at column `idx`, if the table has that column.
    pub fn get(&self, idx: usize) -> Option<&'a Binding> {
        self.cols.get(idx).map(|c| &c[self.row])
    }
}

/// A one-row, one-column binding table an operator builds once and
/// rebinds to each vertex it evaluates alone.
pub(crate) struct VertexRow(Vec<Vec<Binding>>);

impl VertexRow {
    pub(crate) fn new() -> Self {
        VertexRow(vec![vec![Binding::Vertex(VertexId(0))]])
    }

    /// The row binding column 0 to `v`.
    pub(crate) fn at(&mut self, v: VertexId) -> Bindings<'_> {
        self.0[0][0] = Binding::Vertex(v);
        Bindings::new(&self.0, 0)
    }
}

/// One row under evaluation: its bindings and the FROM tables that
/// [`Binding::Row`] entries index.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    /// The row's bindings.
    pub bindings: Bindings<'a>,
    /// FROM-clause tables referenced by `Binding::Row`.
    pub tables: &'a [&'a Table],
}

impl Row<'_> {
    /// No bindings: statement-level expressions.
    pub const EMPTY: Row<'static> = Row { bindings: Bindings::EMPTY, tables: &[] };
}

/// The accumulator state a bound expression reads, indexed by the store
/// ids the binder resolved.
#[derive(Clone, Copy)]
pub struct Env<'a, 's> {
    /// The graph queried.
    pub graph: &'a Graph,
    /// Live vertex accumulator stores (`v.@a`), by store id.
    pub vaccs: &'s [VAccStore],
    /// Block-start snapshots of the stores the query reads primed
    /// (`v.@a'`) and of those the block's ACCUM reads while it writes
    /// them, by store id (`None` for the others).
    pub prev_vaccs: &'s [Option<VAccStore>],
    /// Live global accumulators (`@@a`), by store id.
    pub gaccs: &'s [Accum],
    /// Block-start snapshots of the globals the block's ACCUM reads
    /// while it writes them, by store id (`None` for the others).
    pub prev_gaccs: &'s [Option<Accum>],
}

impl<'s> Env<'_, 's> {
    /// Vertex store `id`, live or its block-start snapshot.
    fn vacc(&self, id: usize, prev: bool) -> Option<&'s VAccStore> {
        match prev {
            false => self.vaccs.get(id),
            true => self.prev_vaccs.get(id).and_then(Option::as_ref),
        }
    }

    /// Global `id`, live or its block-start snapshot.
    fn gacc(&self, id: usize, prev: bool) -> Option<&'s Accum> {
        match prev {
            false => self.gaccs.get(id),
            true => self.prev_gaccs.get(id).and_then(Option::as_ref),
        }
    }
}

/// A vertex an expression names through a variable, resolved like
/// `v.@a`, `v.attr` and `v.outdegree()` resolve it: a row column, else a
/// statement local or parameter holding a vertex. ACCUM locals are not
/// consulted.
#[derive(Debug, Clone)]
pub enum VSrc {
    /// Row column `col`, bound to variable `var`.
    Col {
        /// Column index.
        col: usize,
        /// The variable, for error messages.
        var: String,
    },
    /// A local or parameter holding this vertex.
    Fixed(VertexId),
    /// Nothing holds a vertex under this name.
    Unbound(String),
}

/// `base.field`: the base and the field's position per vertex type, edge
/// type and FROM table.
#[derive(Clone)]
pub struct AttrRef {
    base: VSrc,
    field: String,
    /// The field's position per vertex type, then per edge type
    /// ([`pgraph::schema::Schema::attr_positions`]; `None`: no type has it).
    types: Option<Arc<[Option<u32>]>>,
    /// Where the edge-type entries of `types` start.
    edges_at: usize,
    /// The field's column per FROM table.
    tables: Box<[Option<u32>]>,
}

/// The position tables follow from the field name, so the name stands
/// for them (this is also the value-numbering key).
impl std::fmt::Debug for AttrRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}.{}", self.base, self.field)
    }
}

/// The edge-type argument of `outdegree`/`indegree`/`degree`.
#[derive(Debug, Clone)]
pub enum EdgeArg {
    /// No argument: every edge type.
    Any,
    /// A literal or block-constant name, resolved at bind time.
    Type(ETypeId),
    /// A block-constant argument that fails when evaluated.
    Bad(Error),
    /// A row-dependent name, looked up per evaluation.
    Dyn(Box<BExpr>),
}

/// Which degree a vertex-degree method counts.
#[derive(Debug, Clone, Copy)]
pub enum Degree {
    /// `outdegree`.
    Out,
    /// `indegree`.
    In,
    /// `degree`.
    All,
}

/// The accumulator behind `.size()`, read without building its value.
#[derive(Debug, Clone)]
pub enum AccSize {
    /// `@@a.size()`.
    G {
        /// Store id.
        store: usize,
        /// Reads the block-start snapshot.
        prev: bool,
    },
    /// `v.@a.size()` / `v.@a'.size()`.
    V {
        /// The vertex.
        vertex: VSrc,
        /// Store id.
        store: usize,
        /// Reads the pre-block snapshot.
        prev: bool,
    },
}

/// A collection method, by name.
#[derive(Debug, Clone, Copy)]
pub enum Method {
    /// `.size()`.
    Size,
    /// `.contains(x)`.
    Contains,
    /// `.get(k)`.
    Get,
    /// Anything else: an error on evaluation.
    Other,
}

/// A scalar builtin function, by name (matched case-insensitively).
#[derive(Debug, Clone, PartialEq)]
pub enum Builtin {
    /// `log` / `ln`.
    Ln,
    /// `log2`.
    Log2,
    /// `log10`.
    Log10,
    /// `exp`.
    Exp,
    /// `sqrt`.
    Sqrt,
    /// `abs`.
    Abs,
    /// `floor`.
    Floor,
    /// `ceil`.
    Ceil,
    /// `round`.
    Round,
    /// `pow`.
    Pow,
    /// Two-argument `min`.
    Min,
    /// Two-argument `max`.
    Max,
    /// `float` / `double`.
    Float,
    /// `int`.
    Int,
    /// `str` / `to_string`.
    Str,
    /// `lower`.
    Lower,
    /// `upper`.
    Upper,
    /// `length`.
    Length,
    /// `argmax`.
    ArgMax,
    /// `argmin`.
    ArgMin,
    /// `coalesce`.
    Coalesce,
    /// `year`.
    Year,
    /// `month`.
    Month,
    /// `day`.
    Day,
    /// `to_datetime`.
    ToDatetime,
    /// Not a builtin (the lower-cased name): an error once the arguments
    /// are evaluated.
    Unknown(String),
}

impl Builtin {
    fn parse(lower: &str) -> Builtin {
        match lower {
            "log" | "ln" => Builtin::Ln,
            "log2" => Builtin::Log2,
            "log10" => Builtin::Log10,
            "exp" => Builtin::Exp,
            "sqrt" => Builtin::Sqrt,
            "abs" => Builtin::Abs,
            "floor" => Builtin::Floor,
            "ceil" => Builtin::Ceil,
            "round" => Builtin::Round,
            "pow" => Builtin::Pow,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "float" | "double" => Builtin::Float,
            "int" => Builtin::Int,
            "str" | "to_string" => Builtin::Str,
            "lower" => Builtin::Lower,
            "upper" => Builtin::Upper,
            "length" => Builtin::Length,
            "argmax" => Builtin::ArgMax,
            "argmin" => Builtin::ArgMin,
            "coalesce" => Builtin::Coalesce,
            "year" => Builtin::Year,
            "month" => Builtin::Month,
            "day" => Builtin::Day,
            "to_datetime" => Builtin::ToDatetime,
            other => Builtin::Unknown(other.to_string()),
        }
    }
}

/// A bound expression: an [`Expr`] with every name resolved to a slot.
#[derive(Debug, Clone)]
pub enum BExpr {
    /// A value fixed for the whole block: a literal, a parameter, a
    /// statement local, a vertex set.
    Const(Value),
    /// The current row's column.
    Col(usize),
    /// An ACCUM-local slot (one per declaration).
    Local(usize),
    /// A value-numbered register of the clause ([`Program::regs`]).
    Reg(usize),
    /// `base.field`.
    Attr(Box<AttrRef>),
    /// `v.@name` / `v.@name'`.
    VAcc {
        /// The vertex.
        vertex: VSrc,
        /// Store id (`None`: undeclared).
        store: Option<usize>,
        /// Reads the pre-block snapshot.
        prev: bool,
        /// The accumulator, for error messages.
        name: String,
    },
    /// `@@name`.
    GAcc {
        /// Store id (`None`: undeclared).
        store: Option<usize>,
        /// Reads the block-start snapshot.
        prev: bool,
        /// The accumulator, for error messages.
        name: String,
    },
    /// A builtin call; `func` is the name as written.
    Call {
        /// The builtin.
        f: Builtin,
        /// The name as written, for error messages.
        func: String,
        /// Arguments.
        args: Vec<BExpr>,
    },
    /// `v.outdegree(..)`, `v.indegree(..)`, `v.degree()`.
    Degree {
        /// Which degree.
        kind: Degree,
        /// The vertex.
        vertex: VSrc,
        /// The edge type counted.
        etype: EdgeArg,
    },
    /// `v.type()`.
    VType(VSrc),
    /// `v.id()`.
    VId(VSrc),
    /// `.size()` of an accumulator: its length when it has one, else the
    /// `fallback` method call on its value.
    AccSize {
        /// The accumulator.
        acc: AccSize,
        /// The general `.size()` call.
        fallback: Box<BExpr>,
    },
    /// A collection method on a value.
    Method {
        /// Which method.
        method: Method,
        /// The name as written, for error messages.
        name: String,
        /// Receiver.
        base: Box<BExpr>,
        /// Arguments.
        args: Vec<BExpr>,
    },
    /// Unary operator.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<BExpr>,
    },
    /// Binary operator.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<BExpr>,
        /// Right operand.
        rhs: Box<BExpr>,
    },
    /// A tuple: `(a, b)` or `(k1, k2 -> a1)` (keys, then values).
    Tuple(Vec<BExpr>),
    /// `CASE WHEN .. THEN .. ELSE .. END`.
    Case {
        /// `(condition, result)` pairs, tried in order.
        branches: Vec<(BExpr, BExpr)>,
        /// `ELSE` result (NULL when absent).
        default: Option<Box<BExpr>>,
    },
    /// Grouped output: aggregate number `i` of the group.
    Agg(usize),
    /// Grouped output: group key `i` (NULL outside the current grouping
    /// set).
    GroupKey(usize),
    /// A name the binder could not resolve: raises when evaluated.
    Fail(Error),
}

impl BExpr {
    fn for_each_child(&mut self, f: &mut impl FnMut(&mut BExpr)) {
        match self {
            BExpr::Call { args, .. } | BExpr::Tuple(args) => args.iter_mut().for_each(f),
            BExpr::Method { base, args, .. } => {
                f(base);
                args.iter_mut().for_each(f);
            }
            BExpr::AccSize { fallback: e, .. }
            | BExpr::Degree { etype: EdgeArg::Dyn(e), .. }
            | BExpr::Unary { expr: e, .. } => f(e),
            BExpr::Binary { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            BExpr::Case { branches, default } => {
                for (c, v) in branches {
                    f(c);
                    f(v);
                }
                if let Some(d) = default {
                    f(d);
                }
            }
            _ => {}
        }
    }
}

/// One ACCUM / POST_ACCUM statement, bound.
#[derive(Debug)]
pub enum BStmt {
    /// `x = e`: binds ACCUM-local slot `slot` for the item's later
    /// statements.
    Local {
        /// The slot.
        slot: usize,
        /// Its value.
        expr: BExpr,
    },
    /// `v.@a (+)= e` / `@@a (+)= e`.
    Write {
        /// Where the write lands.
        target: BTarget,
        /// `true` for `+=`.
        combine: bool,
        /// The written value.
        expr: BExpr,
    },
}

/// An accumulator write's destination, resolved to a store id.
#[derive(Debug)]
pub enum BTarget {
    /// `v.@name`.
    V {
        /// The vertex.
        vertex: VSrc,
        /// Store id (`None`: undeclared).
        store: Option<usize>,
        /// The accumulator, for error messages.
        name: String,
    },
    /// `@@name`.
    G {
        /// Store id (`None`: undeclared).
        store: Option<usize>,
        /// The accumulator, for error messages.
        name: String,
    },
}

/// A bound ACCUM / POST_ACCUM clause: its statements and the registers
/// they share.
#[derive(Debug, Default)]
pub struct Program {
    /// The statements, in order.
    pub stmts: Vec<BStmt>,
    /// Register definitions: each defines a subtree that occurs more
    /// than once in the clause; it references only lower registers.
    pub regs: Vec<BExpr>,
    /// Number of ACCUM-local slots.
    pub locals: usize,
}

/// The binding-row variables a [`Scope`] resolves, and their columns.
#[derive(Clone, Copy)]
pub enum Vars<'s> {
    /// None: statement-level expressions.
    None,
    /// One variable, in column 0 of a row made for one vertex.
    One(&'s str),
    /// A block's FROM variables by column, as its plan laid them out.
    Columns(&'s FxHashMap<String, usize>),
}

impl Vars<'_> {
    /// The column holding `name`, if it is a row variable.
    fn col(self, name: &str) -> Option<usize> {
        match self {
            Vars::None => None,
            Vars::One(var) => (var == name).then_some(0),
            Vars::Columns(cols) => cols.get(name).copied(),
        }
    }
}

/// What names resolve against while binding.
#[derive(Clone, Copy)]
pub struct Scope<'s> {
    /// The graph queried (schema lookups).
    pub graph: &'s Graph,
    /// Query parameters.
    pub params: &'s FxHashMap<String, Value>,
    /// Statement locals (`FOREACH` variables).
    pub locals: &'s FxHashMap<String, Value>,
    /// Named vertex sets.
    pub vsets: &'s FxHashMap<String, VertexSet>,
    /// Vertex accumulator name → store id.
    pub vacc_ids: &'s FxHashMap<String, usize>,
    /// Global accumulator name → store id.
    pub gacc_ids: &'s FxHashMap<String, usize>,
    /// Binding-row variables.
    pub vars: Vars<'s>,
    /// FROM tables, in `Binding::Row` order.
    pub tables: &'s [&'s Table],
}

/// Grouped SELECT output binding: expressions equal to one of `aggs`
/// become [`BExpr::Agg`], then those equal to one of `keys`
/// [`BExpr::GroupKey`].
#[derive(Clone, Copy)]
pub struct GroupNames<'s> {
    /// The aggregate calls, by position.
    pub aggs: &'s [Expr],
    /// The GROUP BY keys, by position.
    pub keys: &'s [Expr],
}

/// Value numbering of one clause: every non-leaf subtree becomes a
/// register keyed by its shape over its children's registers; accumulator
/// reads are keyed with the number of writes to that accumulator earlier
/// in the clause, so a read after a write never reuses a read before it.
#[derive(Default)]
struct Numbering {
    regs: Vec<BExpr>,
    index: FxHashMap<String, usize>,
    writes: FxHashMap<(bool, String), u32>,
}

/// Lowers expressions to [`BExpr`]s against a [`Scope`].
pub struct Binder<'s> {
    scope: Scope<'s>,
    /// The accumulators whose unprimed reads bind to the block-start
    /// snapshot, as `(global, name)`.
    snapshot: &'s [(bool, String)],
    group: Option<GroupNames<'s>>,
    acc_locals: FxHashMap<String, usize>,
    numbering: Option<Numbering>,
}

impl<'s> Binder<'s> {
    /// A binder over `scope`.
    pub fn new(scope: Scope<'s>) -> Self {
        Binder { scope, snapshot: &[], group: None, acc_locals: FxHashMap::default(), numbering: None }
    }

    /// A binder for grouped SELECT output over `scope`.
    pub fn grouped(scope: Scope<'s>, group: GroupNames<'s>) -> Self {
        Binder { group: Some(group), ..Binder::new(scope) }
    }

    /// Binds an ACCUM / POST_ACCUM clause, numbering its values when some
    /// subexpression occurs twice. Every unprimed read of an accumulator
    /// in `snapshot` (`(global, name)`) reads the block-start snapshot.
    pub fn clause(scope: Scope<'s>, snapshot: &'s [(bool, String)], stmts: &[AccStmt]) -> Program {
        let numbering = repeats_a_subexpression(stmts).then(Numbering::default);
        let mut b = Binder { snapshot, numbering, ..Binder::new(scope) };
        let mut locals = 0;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(match stmt {
                AccStmt::LocalDecl { name, expr } => {
                    let expr = b.bind(expr);
                    b.acc_locals.insert(name.clone(), locals);
                    locals += 1;
                    BStmt::Local { slot: locals - 1, expr }
                }
                AccStmt::VAcc { var, name, combine, expr } => {
                    let expr = b.bind(expr);
                    let target = BTarget::V {
                        vertex: b.vsrc(var),
                        store: b.scope.vacc_ids.get(name).copied(),
                        name: name.clone(),
                    };
                    b.note_write(false, name);
                    BStmt::Write { target, combine: *combine, expr }
                }
                AccStmt::GAcc { name, combine, expr } => {
                    let expr = b.bind(expr);
                    let target =
                        BTarget::G { store: b.scope.gacc_ids.get(name).copied(), name: name.clone() };
                    b.note_write(true, name);
                    BStmt::Write { target, combine: *combine, expr }
                }
            });
        }
        let regs = b.numbering.take().map(|n| n.regs).unwrap_or_default();
        inline_single_uses(Program { stmts: out, regs, locals })
    }

    fn note_write(&mut self, global: bool, name: &str) {
        if let Some(n) = &mut self.numbering {
            *n.writes.entry((global, name.to_string())).or_default() += 1;
        }
    }

    /// Binds `e`. Never fails: an unresolvable name becomes a
    /// [`BExpr::Fail`] leaf.
    pub fn bind(&mut self, e: &Expr) -> BExpr {
        if let Some(g) = self.group {
            if let Some(pos) = g.aggs.iter().position(|a| a == e) {
                return BExpr::Agg(pos);
            }
            if let Some(pos) = g.keys.iter().position(|k| k == e) {
                return BExpr::GroupKey(pos);
            }
        }
        let (bound, acc_read) = match e {
            Expr::Null => (BExpr::Const(Value::Null), None),
            Expr::Int(v) => (BExpr::Const(Value::Int(*v)), None),
            Expr::Double(v) => (BExpr::Const(Value::Double(*v)), None),
            Expr::Str(s) => (BExpr::Const(Value::from(s.as_str())), None),
            Expr::Bool(b) => (BExpr::Const(Value::Bool(*b)), None),
            Expr::Ident(name) => (self.ident(name), None),
            Expr::Attr { base, field } => (self.attr(base, field), None),
            Expr::VAcc { var, name, prev } => (
                BExpr::VAcc {
                    vertex: self.vsrc(var),
                    store: self.scope.vacc_ids.get(name).copied(),
                    prev: *prev || self.snapshotted(false, name),
                    name: name.clone(),
                },
                Some((false, name)),
            ),
            Expr::GAcc(name) => (
                BExpr::GAcc {
                    store: self.scope.gacc_ids.get(name).copied(),
                    prev: self.snapshotted(true, name),
                    name: name.clone(),
                },
                Some((true, name)),
            ),
            Expr::Call { func, args, .. } => (self.call(e, func, args), None),
            Expr::Method { base, method, args } => (self.method(base, method, args), None),
            Expr::Unary { op, expr } => {
                (BExpr::Unary { op: *op, expr: Box::new(self.bind(expr)) }, None)
            }
            Expr::Binary { op, lhs, rhs } => (
                BExpr::Binary { op: *op, lhs: Box::new(self.bind(lhs)), rhs: Box::new(self.bind(rhs)) },
                None,
            ),
            Expr::ArrowTuple { keys, vals } => {
                (BExpr::Tuple(keys.iter().chain(vals).map(|x| self.bind(x)).collect()), None)
            }
            Expr::Tuple(items) => (BExpr::Tuple(items.iter().map(|x| self.bind(x)).collect()), None),
            Expr::Case { branches, default } => (
                BExpr::Case {
                    branches: branches.iter().map(|(c, v)| (self.bind(c), self.bind(v))).collect(),
                    default: default.as_ref().map(|d| Box::new(self.bind(d))),
                },
                None,
            ),
        };
        self.number(bound, acc_read)
    }

    /// Under value numbering, replaces a non-leaf node by the register of
    /// its shape, allocating the register on first sight.
    fn number(&mut self, e: BExpr, acc_read: Option<(bool, &String)>) -> BExpr {
        let Some(n) = &mut self.numbering else { return e };
        if matches!(e, BExpr::Const(_) | BExpr::Col(_) | BExpr::Local(_) | BExpr::Reg(_)) {
            return e;
        }
        // The key is the node's shape over its children's registers; an
        // accumulator read also carries the writes before it.
        let mut key = format!("{e:?}");
        if let Some((global, name)) = acc_read {
            let version = n.writes.get(&(global, name.clone())).copied().unwrap_or(0);
            let _ = write!(key, "#{version}");
        }
        let next = n.regs.len();
        let reg = *n.index.entry(key).or_insert(next);
        if reg == next {
            n.regs.push(e);
        }
        BExpr::Reg(reg)
    }

    /// Whether unprimed reads of this accumulator bind to the snapshot.
    fn snapshotted(&self, global: bool, name: &str) -> bool {
        self.snapshot.iter().any(|(g, n)| *g == global && n == name)
    }

    fn ident(&self, name: &str) -> BExpr {
        if let Some(&slot) = self.acc_locals.get(name) {
            return BExpr::Local(slot);
        }
        if let Some(col) = self.scope.vars.col(name) {
            return BExpr::Col(col);
        }
        if let Some(v) = self.scope.locals.get(name).or_else(|| self.scope.params.get(name)) {
            return BExpr::Const(v.clone());
        }
        if let Some(set) = self.scope.vsets.get(name) {
            let members = set.members().iter().map(|v| Value::Vertex(*v)).collect();
            return BExpr::Const(Value::new_set(members));
        }
        BExpr::Fail(Error::runtime(format!("unknown identifier `{name}`")))
    }

    /// Resolves a variable that must denote a vertex (`v.@acc`, `v.attr`
    /// on vertices, `v.outdegree()`, ...).
    fn vsrc(&self, var: &str) -> VSrc {
        if let Some(col) = self.scope.vars.col(var) {
            return VSrc::Col { col, var: var.to_string() };
        }
        if let Some(Value::Vertex(v)) = self.scope.locals.get(var) {
            return VSrc::Fixed(*v);
        }
        match self.scope.params.get(var) {
            Some(Value::Vertex(v)) => VSrc::Fixed(*v),
            _ => VSrc::Unbound(var.to_string()),
        }
    }

    fn attr(&self, base: &str, field: &str) -> BExpr {
        let schema = self.scope.graph.schema();
        BExpr::Attr(Box::new(AttrRef {
            base: self.vsrc(base),
            field: field.to_string(),
            types: schema.attr_positions(field).cloned(),
            edges_at: schema.vertex_type_count(),
            tables: self.scope.tables.iter().map(|t| t.column_index(field).map(|i| i as u32)).collect(),
        }))
    }

    fn call(&mut self, call: &Expr, func: &str, args: &[Expr]) -> BExpr {
        match call.aggregate() {
            Ok(None) => {}
            Ok(Some(_)) => {
                return BExpr::Fail(Error::runtime(format!(
                    "aggregate `{func}` used outside SELECT/HAVING/ORDER BY context"
                )))
            }
            Err(e) => return BExpr::Fail(e),
        }
        BExpr::Call {
            f: Builtin::parse(&func.to_ascii_lowercase()),
            func: func.to_string(),
            args: args.iter().map(|a| self.bind(a)).collect(),
        }
    }

    fn method(&mut self, base: &Expr, method: &str, args: &[Expr]) -> BExpr {
        let m = method.to_ascii_lowercase();
        // Vertex methods work on the *variable* so they can reach the graph.
        if let Expr::Ident(var) = base {
            let kind = match m.as_str() {
                "outdegree" => Some(Degree::Out),
                "indegree" => Some(Degree::In),
                "degree" => Some(Degree::All),
                _ => None,
            };
            if let Some(kind) = kind {
                let etype = match args.first() {
                    None => EdgeArg::Any,
                    Some(Expr::Str(s)) => self.edge_type(&Value::from(s.as_str())),
                    Some(e) => match self.bind(e) {
                        BExpr::Const(v) => self.edge_type(&v),
                        e => EdgeArg::Dyn(Box::new(e)),
                    },
                };
                return BExpr::Degree { kind, vertex: self.vsrc(var), etype };
            }
            match m.as_str() {
                "type" => return BExpr::VType(self.vsrc(var)),
                "id" => return BExpr::VId(self.vsrc(var)),
                _ => {}
            }
        }
        let kind = match m.as_str() {
            "size" => Method::Size,
            "contains" => Method::Contains,
            "get" => Method::Get,
            _ => Method::Other,
        };
        // `.size()` of a collection accumulator reads its length instead
        // of building its value.
        let acc = match (kind, base) {
            (Method::Size, Expr::GAcc(name)) => self
                .scope
                .gacc_ids
                .get(name)
                .map(|&store| AccSize::G { store, prev: self.snapshotted(true, name) }),
            (Method::Size, Expr::VAcc { var, name, prev }) => {
                self.scope.vacc_ids.get(name).map(|&store| AccSize::V {
                    vertex: self.vsrc(var),
                    store,
                    prev: *prev || self.snapshotted(false, name),
                })
            }
            _ => None,
        };
        let call = BExpr::Method {
            method: kind,
            name: method.to_string(),
            base: Box::new(self.bind(base)),
            args: args.iter().map(|a| self.bind(a)).collect(),
        };
        match acc {
            Some(acc) => BExpr::AccSize { acc, fallback: Box::new(self.number(call, None)) },
            None => call,
        }
    }

    /// A block-constant edge-type argument, resolved now.
    fn edge_type(&self, v: &Value) -> EdgeArg {
        match v.as_str() {
            None => EdgeArg::Bad(Error::type_error("string", v)),
            Some(name) => match self.scope.graph.schema().edge_type_id(name) {
                Some(t) => EdgeArg::Type(t),
                None => EdgeArg::Bad(Error::runtime(format!("unknown edge type `{name}`"))),
            },
        }
    }
}

/// Whether two of the clause's non-literal subexpressions are equal as
/// written — the cheap test that numbering can share anything (equal
/// text may still bind apart, as around an ACCUM-local redeclaration,
/// which numbering itself tells apart).
fn repeats_a_subexpression(stmts: &[AccStmt]) -> bool {
    let mut subs: Vec<&Expr> = Vec::new();
    for stmt in stmts {
        let (AccStmt::LocalDecl { expr, .. } | AccStmt::VAcc { expr, .. } | AccStmt::GAcc { expr, .. }) =
            stmt;
        expr.walk(&mut |e| {
            if !matches!(e, Expr::Null | Expr::Int(_) | Expr::Double(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Ident(_)) {
                subs.push(e);
            }
        });
    }
    subs.iter().enumerate().any(|(i, a)| subs[i + 1..].iter().any(|b| a == b))
}

/// Inlines every register referenced once: a register is worth its slot
/// only when a row reads it twice.
fn inline_single_uses(mut p: Program) -> Program {
    fn count(e: &mut BExpr, uses: &mut [u32]) {
        if let BExpr::Reg(i) = e {
            uses[*i] += 1;
        }
        e.for_each_child(&mut |c| count(c, uses));
    }
    fn rewrite(e: &mut BExpr, defs: &mut [Option<BExpr>], renumber: &[Option<usize>]) {
        if let BExpr::Reg(i) = *e {
            match renumber[i] {
                Some(j) => *e = BExpr::Reg(j),
                None => *e = defs[i].take().expect("a single-use register is inlined once"),
            }
            return;
        }
        e.for_each_child(&mut |c| rewrite(c, defs, renumber));
    }
    let mut uses = vec![0u32; p.regs.len()];
    for r in &mut p.regs {
        count(r, &mut uses);
    }
    for s in &mut p.stmts {
        let (BStmt::Local { expr, .. } | BStmt::Write { expr, .. }) = s;
        count(expr, &mut uses);
    }
    let mut kept = 0;
    let renumber: Vec<Option<usize>> = uses
        .iter()
        .map(|&u| {
            (u > 1).then(|| {
                kept += 1;
                kept - 1
            })
        })
        .collect();
    // Definitions reference only lower registers, so rewriting in
    // ascending order leaves every inlined child ready for its one user.
    let mut defs: Vec<Option<BExpr>> = Vec::with_capacity(p.regs.len());
    for mut r in std::mem::take(&mut p.regs) {
        rewrite(&mut r, &mut defs, &renumber);
        defs.push(Some(r));
    }
    for s in &mut p.stmts {
        let (BStmt::Local { expr, .. } | BStmt::Write { expr, .. }) = s;
        rewrite(expr, &mut defs, &renumber);
    }
    p.regs = renumber
        .iter()
        .zip(defs)
        .filter_map(|(r, d)| r.and(d))
        .collect();
    p
}

/// One item's ACCUM-local slots and registers, reset between items.
#[derive(Default)]
pub struct Frame<'a> {
    locals: Vec<OnceCell<Cow<'a, Value>>>,
    regs: Vec<OnceCell<Cow<'a, Value>>>,
}

impl<'a> Frame<'a> {
    /// Empty slots for `p`.
    pub fn new(p: &Program) -> Self {
        Frame {
            locals: (0..p.locals).map(|_| OnceCell::new()).collect(),
            regs: (0..p.regs.len()).map(|_| OnceCell::new()).collect(),
        }
    }

    /// Forgets the previous item's values.
    pub fn reset(&mut self) {
        self.locals.iter_mut().for_each(|c| drop(c.take()));
        self.regs.iter_mut().for_each(|c| drop(c.take()));
    }
}

/// Grouped output context: the current group's aggregates and its
/// representative row's keys.
pub struct Group<'g> {
    /// Aggregate values, by [`BExpr::Agg`] position.
    pub aggs: &'g [Value],
    /// The representative row's GROUP BY key values.
    pub keys: &'g [Value],
    /// The key positions of the current grouping set.
    pub set: &'g [usize],
}

/// Evaluates bound expressions against one row.
pub struct Eval<'a, 'f, 's> {
    /// Graph and accumulator stores.
    pub env: Env<'a, 's>,
    /// The row.
    pub row: Row<'a>,
    /// The clause's register definitions (empty outside clauses).
    pub regs: &'a [BExpr],
    /// The item's slots.
    pub frame: &'f Frame<'a>,
    /// The group, in grouped output.
    pub group: Option<&'f Group<'f>>,
}

impl<'a: 'f, 'f> Eval<'a, 'f, '_> {
    /// Evaluates `e`. The result borrows the graph, the bound tree or a
    /// register where it can.
    #[inline]
    pub fn eval(&self, e: &'a BExpr) -> Result<Cow<'f, Value>> {
        // Leaves read in place; only inner nodes take the full walk.
        match e {
            BExpr::Const(v) => Ok(Cow::Borrowed(v)),
            BExpr::Reg(i) => self.reg(*i),
            BExpr::Local(slot) => match self.frame.locals[*slot].get() {
                Some(v) => Ok(Cow::Borrowed(&**v)),
                None => Err(Error::runtime("ACCUM local read before its declaration")),
            },
            e => self.eval_node(e),
        }
    }

    #[inline(never)]
    fn eval_node(&self, e: &'a BExpr) -> Result<Cow<'f, Value>> {
        Ok(match e {
            BExpr::Const(_) | BExpr::Reg(_) | BExpr::Local(_) => self.eval(e)?,
            BExpr::Col(col) => Cow::Owned(self.binding(*col)?.to_value(self.row.tables)),
            BExpr::Attr(a) => self.attr(a)?,
            BExpr::VAcc { vertex, store, prev, name } => {
                let v = self.vertex(vertex)?;
                let store = store
                    .and_then(|id| self.env.vacc(id, *prev))
                    .ok_or_else(|| Error::runtime(format!("undeclared accumulator `@{name}`")))?;
                Cow::Owned(store.value_at(v))
            }
            BExpr::GAcc { store, prev, name } => {
                let acc = store
                    .and_then(|id| self.env.gacc(id, *prev))
                    .ok_or_else(|| Error::runtime(format!("undeclared accumulator `@@{name}`")))?;
                Cow::Owned(acc.value())
            }
            BExpr::Call { f, func, args } => Cow::Owned(match args.as_slice() {
                [a] => call(f, func, std::slice::from_ref(&self.eval(a)?))?,
                args => {
                    let vals = self.eval_each(args, |v| v)?;
                    call(f, func, &vals)?
                }
            }),
            BExpr::Degree { kind, vertex, etype } => {
                let v = self.vertex(vertex)?;
                let etype = match etype {
                    EdgeArg::Any => None,
                    EdgeArg::Type(t) => Some(*t),
                    EdgeArg::Bad(err) => return Err(err.clone()),
                    EdgeArg::Dyn(e) => {
                        let name = self.eval(e)?;
                        let name = str_arg(&name)?;
                        Some(self.env.graph.schema().edge_type_id(name).ok_or_else(|| {
                            Error::runtime(format!("unknown edge type `{name}`"))
                        })?)
                    }
                };
                let g = self.env.graph;
                let d = match kind {
                    Degree::Out => g.outdegree(v, etype),
                    Degree::In => g.indegree(v, etype),
                    Degree::All => g.degree(v),
                };
                Cow::Owned(Value::Int(d as i64))
            }
            BExpr::VType(vertex) => {
                let v = self.vertex(vertex)?;
                let g = self.env.graph;
                Cow::Owned(Value::Str(g.schema().vertex_type(g.vertex_type_of(v)).name.clone()))
            }
            BExpr::VId(vertex) => Cow::Owned(Value::Int(self.vertex(vertex)?.0 as i64)),
            BExpr::AccSize { acc, fallback } => {
                let acc = match acc {
                    AccSize::G { store, prev } => self.env.gacc(*store, *prev),
                    AccSize::V { vertex, store, prev } => {
                        match self.env.vacc(*store, *prev) {
                            Some(store) => Some(store.accum_at(self.vertex(vertex)?)),
                            None => None,
                        }
                    }
                };
                match acc.and_then(Accum::size) {
                    Some(n) => Cow::Owned(Value::Int(n as i64)),
                    None => self.eval(fallback)?,
                }
            }
            BExpr::Method { method, name, base, args } => {
                Cow::Owned(self.method(*method, name, base, args)?)
            }
            BExpr::Unary { op, expr } => {
                let v = self.eval(expr)?;
                Cow::Owned(match (op, &*v) {
                    (UnOp::Neg, Value::Int(i)) => Value::Int(-i),
                    (UnOp::Neg, Value::Double(d)) => Value::Double(-d),
                    (UnOp::Neg, other) => return Err(Error::type_error("numeric", other)),
                    (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    (UnOp::Not, other) => return Err(Error::type_error("boolean", other)),
                })
            }
            BExpr::Binary { op, lhs, rhs } => Cow::Owned(self.binary(*op, lhs, rhs)?),
            BExpr::Tuple(items) => {
                // Never fewer than four slots — the capacity a heap's
                // first row block of the same arity gets — so a heap
                // candidate built per row and freed after it recycles
                // the allocator size class the kept rows grow into. An
                // exact three-slot candidate cost `Q_gs` ~4 000 minor
                // page faults per run: glibc returned the freed state
                // to the OS after every run (EXPERIMENTS E19).
                let mut fields = Vec::with_capacity(items.len().max(4));
                for e in items {
                    fields.push(self.eval(e)?.into_owned());
                }
                Cow::Owned(Value::Tuple(fields))
            }
            BExpr::Case { branches, default } => {
                for (cond, val) in branches {
                    if truthy(&*self.eval(cond)?)? {
                        return self.eval(val);
                    }
                }
                match default {
                    Some(d) => self.eval(d)?,
                    None => Cow::Owned(Value::Null),
                }
            }
            BExpr::Agg(pos) => Cow::Borrowed(&self.grouped()?.aggs[*pos]),
            BExpr::GroupKey(pos) => {
                let g = self.grouped()?;
                if g.set.contains(pos) {
                    Cow::Borrowed(&g.keys[*pos])
                } else {
                    Cow::Owned(Value::Null)
                }
            }
            BExpr::Fail(err) => return Err(err.clone()),
        })
    }

    /// Evaluates an accumulator input: a top-level tuple stays field by
    /// field, so a group or map probes it without building it.
    pub fn input(&self, e: &'a BExpr) -> Result<Input<'f>> {
        match e {
            BExpr::Tuple(items) => Ok(Input::Tuple(self.eval_each(items, |v| v)?)),
            e => Ok(Input::Value(self.eval(e)?)),
        }
    }

    /// Evaluates each of `es`, mapped through `f`, into a vector allocated
    /// once at its final size. Collecting through `Result` would start at
    /// four slots and regrow — three allocations for a 14-field emission.
    pub(crate) fn eval_each<T>(
        &self,
        es: &'a [BExpr],
        f: impl Fn(Cow<'f, Value>) -> T,
    ) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(es.len());
        for e in es {
            out.push(f(self.eval(e)?));
        }
        Ok(out)
    }

    /// Evaluates `e` into a value that outlives the row's registers:
    /// borrowed only from the graph or the bound tree.
    fn detached(&self, e: &'a BExpr) -> Result<Cow<'a, Value>> {
        Ok(match e {
            BExpr::Const(v) => Cow::Borrowed(v),
            BExpr::Attr(a) => self.attr(a)?,
            e => Cow::Owned(self.eval(e)?.into_owned()),
        })
    }

    /// Binds ACCUM-local `slot` to the value of `e` for this item.
    pub fn set_local(&self, slot: usize, e: &'a BExpr) -> Result<()> {
        let v = self.detached(e)?;
        // A slot is declared once per item; the frame was reset before it.
        let _ = self.frame.locals[slot].set(v);
        Ok(())
    }

    /// Register `i`: computed at its first use in the row, then reused.
    #[inline]
    fn reg(&self, i: usize) -> Result<Cow<'f, Value>> {
        let v = match self.frame.regs[i].get() {
            Some(v) => v,
            None => self.fill(i)?,
        };
        Ok(Cow::Borrowed(&**v))
    }

    #[inline(never)]
    fn fill(&self, i: usize) -> Result<&'f Cow<'a, Value>> {
        let regs = self.regs;
        let v = self.detached(&regs[i])?;
        let cell = &self.frame.regs[i];
        let _ = cell.set(v);
        Ok(cell.get().expect("register just set"))
    }

    fn grouped(&self) -> Result<&'f Group<'f>> {
        self.group.ok_or_else(|| Error::runtime("aggregate read outside grouped output"))
    }

    fn binding(&self, col: usize) -> Result<&'a Binding> {
        self.row
            .bindings
            .get(col)
            .ok_or_else(|| Error::runtime("variable referenced outside a binding row"))
    }

    /// The vertex `src` denotes in this row.
    pub fn vertex(&self, src: &VSrc) -> Result<VertexId> {
        match src {
            VSrc::Col { col, var } => match self.binding(*col)? {
                Binding::Vertex(v) => Ok(*v),
                _ => Err(Error::runtime(format!("variable `{var}` is not a vertex"))),
            },
            VSrc::Fixed(v) => Ok(*v),
            VSrc::Unbound(var) => Err(Error::runtime(format!("`{var}` is not bound to a vertex"))),
        }
    }

    fn attr(&self, a: &'a AttrRef) -> Result<Cow<'a, Value>> {
        let g = self.env.graph;
        let at = |tab: &[Option<u32>], i: usize| tab.get(i).copied().flatten().map(|i| i as usize);
        let types = a.types.as_deref().unwrap_or_default();
        let vertex_attr = |v: VertexId| -> Result<Cow<'a, Value>> {
            let vt = g.vertex_type_of(v);
            match at(&types[..a.edges_at.min(types.len())], vt.0 as usize) {
                Some(i) => Ok(g.vertex_attr(v, i)),
                None => Err(Error::runtime(format!(
                    "vertex type `{}` has no attribute `{}`",
                    g.schema().vertex_type(vt).name,
                    a.field
                ))),
            }
        };
        match &a.base {
            VSrc::Col { col, var } => match *self.binding(*col)? {
                Binding::Vertex(v) => vertex_attr(v),
                Binding::Edge(e) => match at(&types[a.edges_at.min(types.len())..], g.edge_type_of(e).0 as usize) {
                    Some(i) => Ok(g.edge_attr(e, i)),
                    None => Err(Error::runtime(format!("edge has no attribute `{}`", a.field))),
                },
                Binding::Row { table, row } => {
                    let table = usize::from(table);
                    let t = *self.row.tables.get(table).ok_or_else(|| {
                        Error::runtime(format!(
                            "`{var}` is a table binding with no backing table in scope"
                        ))
                    })?;
                    match at(&a.tables, table) {
                        Some(i) => Ok(Cow::Borrowed(&t.rows[row as usize][i])),
                        None => Err(Error::runtime(format!(
                            "table `{}` has no column `{}`",
                            t.name, a.field
                        ))),
                    }
                }
            },
            src => vertex_attr(self.vertex(src)?),
        }
    }

    fn method(&self, m: Method, name: &str, base: &'a BExpr, args: &'a [BExpr]) -> Result<Value> {
        let b = self.eval(base)?;
        match (m, &*b) {
            (Method::Size, Value::List(xs) | Value::Set(xs) | Value::Tuple(xs)) => {
                Ok(Value::Int(xs.len() as i64))
            }
            (Method::Size, Value::Map(xs)) => Ok(Value::Int(xs.len() as i64)),
            (Method::Size, Value::Str(s)) => Ok(Value::Int(s.chars().count() as i64)),
            (Method::Contains, Value::List(xs) | Value::Set(xs)) => {
                let needle = self.eval(&args[0])?;
                Ok(Value::Bool(xs.contains(&needle)))
            }
            (Method::Get, Value::Map(entries)) => {
                let key = self.eval(&args[0])?;
                Ok(entries
                    .iter()
                    .find(|(k, _)| *k == *key)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Value::Null))
            }
            (_, b) => Err(Error::runtime(format!("unknown method `{name}` on `{b}`"))),
        }
    }

    fn binary(&self, op: BinOp, lhs: &'a BExpr, rhs: &'a BExpr) -> Result<Value> {
        // Short-circuit logicals.
        match op {
            BinOp::And => {
                if !truthy(&*self.eval(lhs)?)? {
                    return Ok(Value::Bool(false));
                }
                return Ok(Value::Bool(truthy(&*self.eval(rhs)?)?));
            }
            BinOp::Or => {
                if truthy(&*self.eval(lhs)?)? {
                    return Ok(Value::Bool(true));
                }
                return Ok(Value::Bool(truthy(&*self.eval(rhs)?)?));
            }
            _ => {}
        }
        let (l, r) = (self.eval(lhs)?, self.eval(rhs)?);
        let (l, r) = (&*l, &*r);
        match op {
            BinOp::Add => match (l, r) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
                (Value::Str(a), b) => Ok(Value::from(format!("{a}{b}"))),
                (a, Value::Str(b)) => Ok(Value::from(format!("{a}{b}"))),
                _ => numeric_op(l, r, |a, b| a + b),
            },
            BinOp::Sub => match (l, r) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
                _ => numeric_op(l, r, |a, b| a - b),
            },
            BinOp::Mul => match (l, r) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
                _ => numeric_op(l, r, |a, b| a * b),
            },
            BinOp::Div => match (l, r) {
                (Value::Int(_), Value::Int(0)) => Err(Error::runtime("integer division by zero")),
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a / b)),
                _ => numeric_op(l, r, |a, b| a / b),
            },
            BinOp::Mod => match (l, r) {
                (Value::Int(_), Value::Int(0)) => Err(Error::runtime("modulo by zero")),
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.rem_euclid(*b))),
                _ => numeric_op(l, r, |a, b| a.rem_euclid(b)),
            },
            BinOp::Eq => Ok(Value::Bool(l == r)),
            BinOp::Ne => Ok(Value::Bool(l != r)),
            BinOp::Lt => Ok(Value::Bool(l.cmp(r) == Ordering::Less)),
            BinOp::Le => Ok(Value::Bool(l.cmp(r) != Ordering::Greater)),
            BinOp::Gt => Ok(Value::Bool(l.cmp(r) == Ordering::Greater)),
            BinOp::Ge => Ok(Value::Bool(l.cmp(r) != Ordering::Less)),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}

/// Applies builtin `f` (written `func`) to its evaluated arguments.
fn call(f: &Builtin, func: &str, vals: &[Cow<'_, Value>]) -> Result<Value> {
    let num = |v: &Value| -> Result<f64> { v.as_f64().ok_or_else(|| Error::type_error("numeric", v)) };
    let arity = |n: usize| -> Result<()> {
        if vals.len() == n {
            Ok(())
        } else {
            Err(Error::runtime(format!("`{func}` expects {n} argument(s), got {}", vals.len())))
        }
    };
    let unary = |g: fn(f64) -> f64| -> Result<Value> {
        arity(1)?;
        Ok(Value::Double(g(num(&vals[0])?)))
    };
    match f {
        Builtin::Ln => unary(f64::ln),
        Builtin::Log2 => unary(f64::log2),
        Builtin::Log10 => unary(f64::log10),
        Builtin::Exp => unary(f64::exp),
        Builtin::Sqrt => unary(f64::sqrt),
        Builtin::Floor => unary(f64::floor),
        Builtin::Ceil => unary(f64::ceil),
        Builtin::Round => unary(f64::round),
        Builtin::Float => unary(|x| x),
        Builtin::Abs => {
            arity(1)?;
            match &*vals[0] {
                Value::Int(i) => Ok(Value::Int(i.abs())),
                other => Ok(Value::Double(num(other)?.abs())),
            }
        }
        Builtin::Pow => {
            arity(2)?;
            Ok(Value::Double(num(&vals[0])?.powf(num(&vals[1])?)))
        }
        // Scalar two-argument min/max (one-argument forms are aggregates).
        Builtin::Min => {
            arity(2)?;
            Ok(if vals[0] <= vals[1] { vals[0].clone() } else { vals[1].clone() }.into_owned())
        }
        Builtin::Max => {
            arity(2)?;
            Ok(if vals[0] >= vals[1] { vals[0].clone() } else { vals[1].clone() }.into_owned())
        }
        Builtin::Int => {
            arity(1)?;
            vals[0].as_i64().map(Value::Int).ok_or_else(|| Error::type_error("integer-convertible", &vals[0]))
        }
        Builtin::Str => {
            arity(1)?;
            Ok(Value::from(vals[0].to_string()))
        }
        Builtin::Lower => {
            arity(1)?;
            Ok(Value::from(str_arg(&vals[0])?.to_lowercase()))
        }
        Builtin::Upper => {
            arity(1)?;
            Ok(Value::from(str_arg(&vals[0])?.to_uppercase()))
        }
        Builtin::Length => {
            arity(1)?;
            Ok(Value::Int(str_arg(&vals[0])?.chars().count() as i64))
        }
        // argmax/argmin over a map value: the key with the extreme value
        // (ties break to the smallest key). NULL on empty maps.
        Builtin::ArgMax | Builtin::ArgMin => {
            arity(1)?;
            match &*vals[0] {
                Value::Map(entries) => {
                    let mut best: Option<(&Value, &Value)> = None;
                    for (k, v) in entries {
                        let better = match &best {
                            None => true,
                            Some((_, bv)) => {
                                if *f == Builtin::ArgMax {
                                    v > bv
                                } else {
                                    v < bv
                                }
                            }
                        };
                        if better {
                            best = Some((k, v));
                        }
                    }
                    Ok(best.map(|(k, _)| k.clone()).unwrap_or(Value::Null))
                }
                other => Err(Error::type_error("map", other)),
            }
        }
        Builtin::Coalesce => Ok(vals
            .iter()
            .find(|v| !matches!(***v, Value::Null))
            .map(|v| (**v).clone())
            .unwrap_or(Value::Null)),
        Builtin::Year => {
            arity(1)?;
            Ok(Value::Int(datetime::year(dt_arg(&vals[0])?)))
        }
        Builtin::Month => {
            arity(1)?;
            Ok(Value::Int(datetime::month(dt_arg(&vals[0])?)))
        }
        Builtin::Day => {
            arity(1)?;
            Ok(Value::Int(datetime::day(dt_arg(&vals[0])?)))
        }
        Builtin::ToDatetime => {
            arity(3)?;
            let y = vals[0].as_i64().ok_or_else(|| Error::type_error("int", &vals[0]))?;
            let m = vals[1].as_i64().ok_or_else(|| Error::type_error("int", &vals[1]))?;
            let d = vals[2].as_i64().ok_or_else(|| Error::type_error("int", &vals[2]))?;
            // Range-check before the u32 narrowing: a negative Int would
            // otherwise wrap to a huge month/day and flow into the epoch
            // math unvalidated.
            if !(1..=12).contains(&m) {
                return Err(Error::runtime(format!(
                    "to_datetime: month out of range: {m} (expected 1..=12)"
                )));
            }
            if !(1..=31).contains(&d) {
                return Err(Error::runtime(format!(
                    "to_datetime: day out of range: {d} (expected 1..=31)"
                )));
            }
            Ok(Value::DateTime(datetime::to_epoch(y, m as u32, d as u32)))
        }
        Builtin::Unknown(name) => Err(Error::runtime(format!("unknown function `{name}`"))),
    }
}

fn str_arg(v: &Value) -> Result<&str> {
    v.as_str().ok_or_else(|| Error::type_error("string", v))
}

fn dt_arg(v: &Value) -> Result<i64> {
    match v {
        Value::DateTime(t) | Value::Int(t) => Ok(*t),
        other => Err(Error::type_error("datetime", other)),
    }
}

fn numeric_op(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    let a = l.as_f64().ok_or_else(|| Error::type_error("numeric", l))?;
    let b = r.as_f64().ok_or_else(|| Error::type_error("numeric", r))?;
    Ok(Value::Double(f(a, b)))
}

/// Boolean coercion for WHERE / WHILE / IF conditions.
pub fn truthy(v: &Value) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(Error::type_error("boolean condition", other)),
    }
}
