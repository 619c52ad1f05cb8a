//! Expression evaluation.
//!
//! GSQL expressions are evaluated against an [`Env`] that layers (from
//! innermost to outermost): ACCUM-local variables, the current binding
//! row, statement-level locals (`FOREACH` variables), query parameters,
//! and the accumulator stores. Vertex accumulator reads `v.@a` see the
//! live store; `v.@a'` sees the snapshot taken at the start of the
//! current query block (paper Section 5, PageRank's previous-iteration
//! score).

use crate::ast::{BinOp, Expr, UnOp};
use crate::datetime;
use crate::error::{Error, Result};
use crate::table::Table;
use accum::{Accum, AccumType, UserAccumRegistry};
use pgraph::fxhash::FxHashMap;
use pgraph::graph::{EdgeId, Graph, VertexId};
use pgraph::value::Value;
use std::cmp::Ordering;

/// What a FROM-clause variable is bound to in one binding-table row.
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
        table: usize,
        /// Row index within that table.
        row: usize,
    },
}

impl Binding {
    /// The value a binding denotes when used as a whole (comparisons,
    /// projections).
    pub fn to_value(&self, tables: &[&Table]) -> Value {
        match self {
            Binding::Vertex(v) => Value::Vertex(*v),
            Binding::Edge(e) => Value::Edge(*e),
            Binding::Row { table, row } => Value::Tuple(tables[*table].rows[*row].clone()),
        }
    }
}

/// Per-vertex accumulator storage for one declared `@name`.
#[derive(Debug, Clone)]
pub struct VAccStore {
    /// Declared accumulator type.
    pub ty: AccumType,
    /// The freshly-initialized instance vertices start from (includes the
    /// declaration initializer, e.g. `SumAccum<float> @score = 1`).
    pub prototype: Accum,
    /// Lazily-populated cells, indexed by `VertexId`.
    cells: Vec<Option<Accum>>,
    /// Running [`Accum::estimated_bytes`] total of the populated cells,
    /// kept by [`VAccStore::update`], the store's only write path.
    cell_bytes: u64,
}

impl VAccStore {
    /// A store for `vertices` vertices, every cell at `prototype`.
    pub(crate) fn new(ty: AccumType, prototype: Accum, vertices: usize) -> Self {
        VAccStore { ty, prototype, cells: vec![None; vertices], cell_bytes: 0 }
    }

    /// The accumulator at `v` (the prototype if untouched).
    pub(crate) fn accum_at(&self, v: VertexId) -> &Accum {
        self.cells.get(v.0 as usize).and_then(|c| c.as_ref()).unwrap_or(&self.prototype)
    }

    /// Read the current value at `v` (prototype value if untouched).
    pub fn value_at(&self, v: VertexId) -> Value {
        self.accum_at(v).value()
    }

    /// Runs `f` on `v`'s accumulator, materializing it from the prototype
    /// first, and keeps the store's byte total in step.
    pub(crate) fn update<R>(&mut self, v: VertexId, f: impl FnOnce(&mut Accum) -> R) -> R {
        let idx = v.0 as usize;
        if idx >= self.cells.len() {
            self.cells.resize(idx + 1, None);
        }
        let cell = self.cells[idx].get_or_insert_with(|| {
            // Charge the clone, not the prototype: a clone drops any spare
            // capacity the prototype's buffers had.
            let cell = self.prototype.clone();
            self.cell_bytes += cell.estimated_bytes() as u64;
            cell
        });
        let before = cell.estimated_bytes() as u64;
        let out = f(cell);
        self.cell_bytes = self.cell_bytes - before + cell.estimated_bytes() as u64;
        out
    }

    /// Estimated footprint of the store — prototype plus populated cells
    /// — in O(1).
    pub(crate) fn estimated_bytes(&self) -> u64 {
        self.prototype.estimated_bytes() as u64 + self.cell_bytes
    }
}

/// One row of a binding table: variable bindings plus the row's
/// multiplicity (the number of legal path combinations witnessing it —
/// the compressed representation of Appendix A).
#[derive(Debug, Clone)]
pub struct BindingRow {
    /// Variable bindings, positionally aligned with the block's variable
    /// map.
    pub bindings: Vec<Binding>,
    /// Multiplicity: number of legal path combinations witnessing this
    /// row.
    pub mult: pgraph::bigcount::BigCount,
}

/// Where a row's bindings live: a contiguous row-major slice (single
/// synthesized rows — PRINT projections, POST_ACCUM's per-vertex row,
/// spec refinement) or one row of a column-major
/// [`MorselTable`](crate::morsel::MorselTable) chunk, addressed without
/// materializing the row. Evaluation is storage-agnostic: batch
/// evaluation over a morsel reuses the scalar evaluator with a
/// `Columnar` cursor per row.
#[derive(Clone, Copy)]
pub enum Bindings<'a> {
    /// A contiguous slice holding one row's bindings.
    Row(&'a [Binding]),
    /// Row `row` across the columns of a columnar binding table.
    Columnar {
        /// The table's columns (all the same length).
        cols: &'a [Vec<Binding>],
        /// The row index this view addresses.
        row: usize,
    },
}

impl<'a> Bindings<'a> {
    /// The binding at variable position `idx`, if bound.
    pub fn get(&self, idx: usize) -> Option<&'a Binding> {
        match self {
            Bindings::Row(b) => b.get(idx),
            Bindings::Columnar { cols, row } => cols.get(idx).map(|c| &c[*row]),
        }
    }
}

/// Borrowed view of one row during evaluation.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    /// Variable name → position in `bindings`.
    pub vars: &'a FxHashMap<String, usize>,
    /// The row's bindings (row-major or columnar).
    pub bindings: Bindings<'a>,
    /// FROM-clause tables referenced by `Binding::Row`.
    pub tables: &'a [&'a Table],
}

/// Aggregate resolver used during grouped SELECT evaluation.
pub type AggResolver<'a> = &'a dyn Fn(&Expr) -> Option<Value>;

/// The evaluation environment.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    /// The graph queried.
    pub graph: &'a Graph,
    /// User-defined accumulator registry.
    pub registry: &'a UserAccumRegistry,
    /// Query parameter values.
    pub params: &'a FxHashMap<String, Value>,
    /// Statement-level locals (FOREACH variables).
    pub locals: Option<&'a FxHashMap<String, Value>>,
    /// The current binding row, if evaluating inside a block.
    pub row: Option<RowRef<'a>>,
    /// ACCUM-clause local declarations of the current acc-execution.
    pub acc_locals: Option<&'a FxHashMap<String, Value>>,
    /// Live vertex accumulator stores (`v.@a`).
    pub vaccs: &'a FxHashMap<String, VAccStore>,
    /// Pre-block snapshots (`v.@a'`) of the stores the query reads primed.
    pub prev_vaccs: &'a FxHashMap<String, VAccStore>,
    /// Live global accumulators (`@@a`).
    pub gaccs: &'a FxHashMap<String, Accum>,
    /// Named vertex sets in scope.
    pub vsets: &'a FxHashMap<String, Vec<VertexId>>,
    /// Aggregate resolver for SELECT/HAVING/ORDER BY over groups.
    pub agg: Option<AggResolver<'a>>,
}

impl<'a> Env<'a> {
    fn lookup_binding(&self, name: &str) -> Option<&'a Binding> {
        let row = self.row.as_ref()?;
        let idx = *row.vars.get(name)?;
        row.bindings.get(idx)
    }

    /// Resolves a bare identifier.
    fn ident(&self, name: &str) -> Result<Value> {
        if let Some(locals) = self.acc_locals {
            if let Some(v) = locals.get(name) {
                return Ok(v.clone());
            }
        }
        if let Some(b) = self.lookup_binding(name) {
            let tables = self
                .row
                .as_ref()
                .ok_or_else(|| {
                    Error::runtime(format!("`{name}` referenced outside a binding row"))
                })?
                .tables;
            return Ok(b.to_value(tables));
        }
        if let Some(locals) = self.locals {
            if let Some(v) = locals.get(name) {
                return Ok(v.clone());
            }
        }
        if let Some(v) = self.params.get(name) {
            return Ok(v.clone());
        }
        if let Some(set) = self.vsets.get(name) {
            return Ok(Value::new_set(set.iter().map(|v| Value::Vertex(*v)).collect()));
        }
        Err(Error::runtime(format!("unknown identifier `{name}`")))
    }
}

/// Evaluates `expr` under `env`.
pub fn eval(env: &Env, expr: &Expr) -> Result<Value> {
    if let Some(agg) = env.agg {
        if let Some(v) = agg(expr) {
            return Ok(v);
        }
    }
    match expr {
        Expr::Null => Ok(Value::Null),
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Double(v) => Ok(Value::Double(*v)),
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Ident(name) => env.ident(name),
        Expr::Attr { base, field } => eval_attr(env, base, field),
        Expr::VAcc { var, name, prev } => {
            let v = resolve_vertex(env, var)?;
            let stores = if *prev { env.prev_vaccs } else { env.vaccs };
            let store = stores
                .get(name)
                .ok_or_else(|| Error::runtime(format!("undeclared accumulator `@{name}`")))?;
            Ok(store.value_at(v))
        }
        Expr::GAcc(name) => {
            let acc = env
                .gaccs
                .get(name)
                .ok_or_else(|| Error::runtime(format!("undeclared accumulator `@@{name}`")))?;
            Ok(acc.value())
        }
        Expr::Call { func, args, star } => eval_call(env, func, args, *star),
        Expr::Method { base, method, args } => eval_method(env, base, method, args),
        Expr::Unary { op, expr } => {
            let v = eval(env, expr)?;
            match op {
                UnOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Double(d) => Ok(Value::Double(-d)),
                    other => Err(Error::type_error("numeric", &other)),
                },
                UnOp::Not => match v {
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(Error::type_error("boolean", &other)),
                },
            }
        }
        Expr::Binary { op, lhs, rhs } => eval_binary(env, *op, lhs, rhs),
        Expr::ArrowTuple { keys, vals } => {
            let mut items = Vec::with_capacity(keys.len() + vals.len());
            for e in keys.iter().chain(vals) {
                items.push(eval(env, e)?);
            }
            Ok(Value::Tuple(items))
        }
        Expr::Tuple(items) => {
            let mut out = Vec::with_capacity(items.len());
            for e in items {
                out.push(eval(env, e)?);
            }
            Ok(Value::Tuple(out))
        }
        Expr::Case { branches, default } => {
            for (cond, val) in branches {
                if truthy(&eval(env, cond)?)? {
                    return eval(env, val);
                }
            }
            match default {
                Some(d) => eval(env, d),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Resolves a variable that must denote a vertex (for `v.@acc`, `v.attr`
/// on vertices, `v.outdegree()`, ...).
pub fn resolve_vertex(env: &Env, var: &str) -> Result<VertexId> {
    if let Some(b) = env.lookup_binding(var) {
        if let Binding::Vertex(v) = b {
            return Ok(*v);
        }
        return Err(Error::runtime(format!("variable `{var}` is not a vertex")));
    }
    if let Some(locals) = env.locals {
        if let Some(Value::Vertex(v)) = locals.get(var) {
            return Ok(*v);
        }
    }
    match env.params.get(var) {
        Some(Value::Vertex(v)) => Ok(*v),
        _ => Err(Error::runtime(format!("`{var}` is not bound to a vertex"))),
    }
}

fn eval_attr(env: &Env, base: &str, field: &str) -> Result<Value> {
    // FOREACH variable or parameter holding a vertex also supports `.attr`.
    if let Some(b) = env.lookup_binding(base) {
        return match b {
            Binding::Vertex(v) => env
                .graph
                .vertex_attr_by_name(*v, field)
                .cloned()
                .ok_or_else(|| attr_error(env.graph, *v, field)),
            Binding::Edge(e) => env
                .graph
                .edge_attr_by_name(*e, field)
                .cloned()
                .ok_or_else(|| Error::runtime(format!("edge has no attribute `{field}`"))),
            Binding::Row { table, row } => {
                let t = *env
                    .row
                    .as_ref()
                    .and_then(|r| r.tables.get(*table))
                    .ok_or_else(|| {
                        Error::runtime(format!(
                            "`{base}` is a table binding with no backing table in scope"
                        ))
                    })?;
                let idx = t
                    .column_index(field)
                    .ok_or_else(|| Error::runtime(format!("table `{}` has no column `{field}`", t.name)))?;
                Ok(t.rows[*row][idx].clone())
            }
        };
    }
    // Fall back to locals / params that hold a vertex.
    let v = resolve_vertex(env, base)?;
    env.graph
        .vertex_attr_by_name(v, field)
        .cloned()
        .ok_or_else(|| attr_error(env.graph, v, field))
}

fn attr_error(graph: &Graph, v: VertexId, field: &str) -> Error {
    let ty = graph.schema().vertex_type(graph.vertex_type_of(v));
    Error::runtime(format!("vertex type `{}` has no attribute `{field}`", ty.name))
}

/// `name` lower-cased (ASCII) into `buf` — builtin function and method
/// names match case-insensitively without allocating per call. Names
/// longer than the buffer, which no builtin is, lower-case on the heap.
pub(crate) fn ascii_lower<'b>(name: &str, buf: &'b mut [u8; 16]) -> std::borrow::Cow<'b, str> {
    match buf.get_mut(..name.len()) {
        Some(out) => {
            out.copy_from_slice(name.as_bytes());
            out.make_ascii_lowercase();
            std::borrow::Cow::Borrowed(
                std::str::from_utf8(out).expect("ASCII lower-casing keeps UTF-8 valid"),
            )
        }
        None => std::borrow::Cow::Owned(name.to_ascii_lowercase()),
    }
}

fn eval_call(env: &Env, func: &str, args: &[Expr], star: bool) -> Result<Value> {
    let mut buf = [0u8; 16];
    let f = ascii_lower(func, &mut buf);
    let f = f.as_ref();
    let is_aggregate = star
        || matches!(f, "count" | "sum" | "avg")
        || (args.len() == 1 && matches!(f, "min" | "max"));
    if is_aggregate {
        return Err(Error::runtime(format!(
            "aggregate `{func}` used outside SELECT/HAVING/ORDER BY context"
        )));
    }
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval(env, a)?);
    }
    let num = |v: &Value| -> Result<f64> {
        v.as_f64().ok_or_else(|| Error::type_error("numeric", v))
    };
    let arity = |n: usize| -> Result<()> {
        if vals.len() == n {
            Ok(())
        } else {
            Err(Error::runtime(format!("`{func}` expects {n} argument(s), got {}", vals.len())))
        }
    };
    match f {
        "log" | "ln" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?.ln()))
        }
        "log2" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?.log2()))
        }
        "log10" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?.log10()))
        }
        "exp" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?.exp()))
        }
        "sqrt" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?.sqrt()))
        }
        "abs" => {
            arity(1)?;
            match &vals[0] {
                Value::Int(i) => Ok(Value::Int(i.abs())),
                other => Ok(Value::Double(num(other)?.abs())),
            }
        }
        "floor" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?.floor()))
        }
        "ceil" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?.ceil()))
        }
        "round" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?.round()))
        }
        "pow" => {
            arity(2)?;
            Ok(Value::Double(num(&vals[0])?.powf(num(&vals[1])?)))
        }
        // Scalar two-argument min/max (one-argument forms are aggregates).
        "min" => {
            arity(2)?;
            Ok(if vals[0] <= vals[1] { vals[0].clone() } else { vals[1].clone() })
        }
        "max" => {
            arity(2)?;
            Ok(if vals[0] >= vals[1] { vals[0].clone() } else { vals[1].clone() })
        }
        "float" | "double" => {
            arity(1)?;
            Ok(Value::Double(num(&vals[0])?))
        }
        "int" => {
            arity(1)?;
            vals[0]
                .as_i64()
                .map(Value::Int)
                .ok_or_else(|| Error::type_error("integer-convertible", &vals[0]))
        }
        "str" | "to_string" => {
            arity(1)?;
            Ok(Value::Str(vals[0].to_string()))
        }
        "lower" => {
            arity(1)?;
            Ok(Value::Str(str_arg(&vals[0])?.to_lowercase()))
        }
        "upper" => {
            arity(1)?;
            Ok(Value::Str(str_arg(&vals[0])?.to_uppercase()))
        }
        "length" => {
            arity(1)?;
            Ok(Value::Int(str_arg(&vals[0])?.chars().count() as i64))
        }
        // argmax/argmin over a map value: the key with the extreme value
        // (ties break to the smallest key). NULL on empty maps.
        "argmax" | "argmin" => {
            arity(1)?;
            match &vals[0] {
                Value::Map(entries) => {
                    let mut best: Option<(&Value, &Value)> = None;
                    for (k, v) in entries {
                        let better = match &best {
                            None => true,
                            Some((_, bv)) => {
                                if f == "argmax" {
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
        "coalesce" => {
            for v in &vals {
                if !matches!(v, Value::Null) {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        "year" => {
            arity(1)?;
            Ok(Value::Int(datetime::year(dt_arg(&vals[0])?)))
        }
        "month" => {
            arity(1)?;
            Ok(Value::Int(datetime::month(dt_arg(&vals[0])?)))
        }
        "day" => {
            arity(1)?;
            Ok(Value::Int(datetime::day(dt_arg(&vals[0])?)))
        }
        "to_datetime" => {
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
        other => Err(Error::runtime(format!("unknown function `{other}`"))),
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

fn eval_method(env: &Env, base: &Expr, method: &str, args: &[Expr]) -> Result<Value> {
    let mut buf = [0u8; 16];
    let m = ascii_lower(method, &mut buf);
    let m = m.as_ref();
    // Vertex methods work on the *variable* so we can reach the graph.
    if let Expr::Ident(var) = base {
        match m {
            "outdegree" | "indegree" | "degree" => {
                let v = resolve_vertex(env, var)?;
                let etype = match args.first() {
                    None => None,
                    Some(e) => {
                        // A literal edge-type name is borrowed, not
                        // evaluated into a fresh string per row.
                        let evaluated;
                        let name = match e {
                            Expr::Str(s) => s.as_str(),
                            e => {
                                evaluated = eval(env, e)?;
                                str_arg(&evaluated)?
                            }
                        };
                        Some(env.graph.schema().edge_type_id(name).ok_or_else(|| {
                            Error::runtime(format!("unknown edge type `{name}`"))
                        })?)
                    }
                };
                let d = match m {
                    "outdegree" => env.graph.outdegree(v, etype),
                    "indegree" => env.graph.indegree(v, etype),
                    _ => env.graph.degree(v),
                };
                return Ok(Value::Int(d as i64));
            }
            "type" => {
                let v = resolve_vertex(env, var)?;
                let t = env.graph.schema().vertex_type(env.graph.vertex_type_of(v));
                return Ok(Value::Str(t.name.clone()));
            }
            "id" => {
                let v = resolve_vertex(env, var)?;
                return Ok(Value::Int(v.0 as i64));
            }
            _ => {}
        }
    }
    // `.size()` of a collection accumulator reads its length instead of
    // building its value.
    if m == "size" {
        let acc = match base {
            Expr::GAcc(name) => env.gaccs.get(name),
            Expr::VAcc { var, name, prev } => {
                let stores = if *prev { env.prev_vaccs } else { env.vaccs };
                match stores.get(name) {
                    Some(store) => Some(store.accum_at(resolve_vertex(env, var)?)),
                    None => None,
                }
            }
            _ => None,
        };
        if let Some(n) = acc.and_then(Accum::size) {
            return Ok(Value::Int(n as i64));
        }
    }
    // Collection methods evaluate the base as a value.
    let b = eval(env, base)?;
    match (m, &b) {
        ("size", Value::List(xs)) | ("size", Value::Set(xs)) | ("size", Value::Tuple(xs)) => {
            Ok(Value::Int(xs.len() as i64))
        }
        ("size", Value::Map(xs)) => Ok(Value::Int(xs.len() as i64)),
        ("size", Value::Str(s)) => Ok(Value::Int(s.chars().count() as i64)),
        ("contains", Value::List(xs)) | ("contains", Value::Set(xs)) => {
            let needle = eval(env, &args[0])?;
            Ok(Value::Bool(xs.contains(&needle)))
        }
        ("get", Value::Map(entries)) => {
            let key = eval(env, &args[0])?;
            Ok(entries
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null))
        }
        _ => Err(Error::runtime(format!("unknown method `{method}` on `{b}`"))),
    }
}

fn eval_binary(env: &Env, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value> {
    // Short-circuit logicals.
    match op {
        BinOp::And => {
            let l = truthy(&eval(env, lhs)?)?;
            if !l {
                return Ok(Value::Bool(false));
            }
            return Ok(Value::Bool(truthy(&eval(env, rhs)?)?));
        }
        BinOp::Or => {
            let l = truthy(&eval(env, lhs)?)?;
            if l {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(truthy(&eval(env, rhs)?)?));
        }
        _ => {}
    }
    let l = eval(env, lhs)?;
    let r = eval(env, rhs)?;
    match op {
        BinOp::Add => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (Value::Str(a), b) => Ok(Value::Str(format!("{a}{b}"))),
            (a, Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
            _ => numeric_op(&l, &r, |a, b| a + b),
        },
        BinOp::Sub => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            _ => numeric_op(&l, &r, |a, b| a - b),
        },
        BinOp::Mul => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            _ => numeric_op(&l, &r, |a, b| a * b),
        },
        BinOp::Div => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(Error::runtime("integer division by zero"))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            _ => numeric_op(&l, &r, |a, b| a / b),
        },
        BinOp::Mod => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(Error::runtime("modulo by zero"))
                } else {
                    Ok(Value::Int(a.rem_euclid(*b)))
                }
            }
            _ => numeric_op(&l, &r, |a, b| a.rem_euclid(b)),
        },
        BinOp::Eq => Ok(Value::Bool(l == r)),
        BinOp::Ne => Ok(Value::Bool(l != r)),
        BinOp::Lt => Ok(Value::Bool(l.cmp(&r) == Ordering::Less)),
        BinOp::Le => Ok(Value::Bool(l.cmp(&r) != Ordering::Greater)),
        BinOp::Gt => Ok(Value::Bool(l.cmp(&r) == Ordering::Greater)),
        BinOp::Ge => Ok(Value::Bool(l.cmp(&r) != Ordering::Less)),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
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
