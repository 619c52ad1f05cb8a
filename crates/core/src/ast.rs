//! GSQL abstract syntax.

use crate::error::{Error, Result};
use accum::AccumType;
use pgraph::value::ValueType;

/// A source position (1-based line/column) attached to the AST nodes
/// the linter anchors diagnostics to.
///
/// Spans compare **equal to every other span** so that AST equality in
/// tests stays structural: two parses of semantically identical text
/// are `==` even when whitespace shifts positions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// 1-based source line (0 = unknown).
    pub line: usize,
    /// 1-based source column (0 = unknown).
    pub col: usize,
}

impl Span {
    /// Builds a span from a known position.
    pub fn at(line: usize, col: usize) -> Span {
        Span { line, col }
    }

    /// True when the span carries a real position.
    pub fn is_known(&self) -> bool {
        self.line > 0
    }
}

impl PartialEq for Span {
    fn eq(&self, _other: &Span) -> bool {
        true
    }
}

impl Eq for Span {}

/// A parsed `CREATE QUERY`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Query name (`CREATE QUERY <name>`).
    pub name: String,
    /// Declared parameters, in order.
    pub params: Vec<Param>,
    /// `FOR GRAPH g` — informational in this engine (one graph per
    /// [`crate::Engine`]), but parsed and kept.
    pub graph: Option<String>,
    /// Statements of the query body.
    pub body: Vec<Stmt>,
}

/// A query parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: ParamType,
}

/// Parameter types.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamType {
    /// A scalar (`INT`, `STRING`, ...).
    Scalar(ValueType),
    /// `VERTEX` or `VERTEX<Type>`.
    Vertex(Option<String>),
    /// `SET<VERTEX>` — a set of vertices.
    VertexSet,
}

/// A statement in a query body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `SumAccum<float> @a = 1, @@b;`
    AccumDecl {
        /// Declared accumulator type.
        ty: AccumType,
        /// One or more declarators sharing that type.
        decls: Vec<AccumDecl>,
    },
    /// `TYPEDEF TUPLE<f1 INT, f2 STRING> Name;`
    TupleTypedef {
        /// Tuple type name.
        name: String,
        /// Field names and types, in order.
        fields: Vec<(String, ValueType)>,
    },
    /// `S = SELECT ...;` or `AllV = {Page.*};`
    VSetAssign {
        /// Target vertex-set variable.
        name: String,
        /// Right-hand side.
        source: VSetSource,
        /// Source position of the assignment target.
        span: Span,
    },
    /// A bare `SELECT` block used for its side effects / INTO tables.
    Select(Box<SelectBlock>),
    /// `@@a = e;` / `@@a += e;` at statement level.
    GAccAssign {
        /// Global accumulator name (without `@@`).
        name: String,
        /// `true` for `+=` (combine), `false` for `=` (assign).
        combine: bool,
        /// Right-hand side.
        expr: Expr,
        /// Source position of the `@@` target.
        span: Span,
    },
    /// `USE SEMANTICS 'non_repeated_edge';` — the per-query matching-
    /// semantics selection the paper announces as planned syntax
    /// (Section 6.1, "syntactic sugar for specifying semantic
    /// alternatives"). Affects subsequent SELECT blocks.
    UseSemantics(crate::semantics::PathSemantics),
    /// `WHILE cond [LIMIT n] DO ... END;`
    While {
        /// Loop condition, re-evaluated before each iteration.
        cond: Expr,
        /// Optional `LIMIT` iteration cap.
        limit: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source position of the `WHILE` keyword.
        span: Span,
        /// Dense position among the query's loops (`WHILE` and
        /// `FOREACH`), in source order; stamped by the parser.
        id: usize,
    },
    /// `IF cond THEN ... [ELSE ...] END;`
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements run when the condition is true.
        then_branch: Vec<Stmt>,
        /// Statements run otherwise (empty when no `ELSE`).
        else_branch: Vec<Stmt>,
    },
    /// `FOREACH var IN iterable DO ... END;`
    Foreach {
        /// Loop variable.
        var: String,
        /// Collection expression iterated over.
        iterable: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Dense position among the query's loops, like
        /// [`Stmt::While`]'s.
        id: usize,
    },
    /// `PRINT e1, e2, ...;`
    Print {
        /// Printed items, in order.
        items: Vec<PrintItem>,
        /// Source position of the `PRINT` keyword.
        span: Span,
    },
    /// `RETURN e;`
    Return {
        /// Returned expression.
        expr: Expr,
        /// Source position of the `RETURN` keyword.
        span: Span,
    },
    /// `INSERT VERTEX Type [(attr, ...)] VALUES (e, ...);` — omitted
    /// attributes take their type defaults; with no column list the
    /// values are positional over the declared attributes.
    InsertVertex {
        /// Vertex type name.
        vtype: String,
        /// Named columns (empty = positional over all attributes).
        columns: Vec<String>,
        /// Value expressions, evaluated against the pre-write snapshot.
        values: Vec<Expr>,
        /// Source position of the `INSERT` keyword.
        span: Span,
    },
    /// `INSERT EDGE Type FROM e1 TO e2 [[(attr, ...)] VALUES (e, ...)];`
    /// Endpoint expressions must evaluate to a vertex, or to an integer
    /// id (which may address a vertex inserted earlier in this query).
    InsertEdge {
        /// Edge type name.
        etype: String,
        /// Source endpoint expression.
        src: Expr,
        /// Target endpoint expression.
        dst: Expr,
        /// Named columns (empty = positional).
        columns: Vec<String>,
        /// Attribute value expressions.
        values: Vec<Expr>,
        /// Source position of the `INSERT` keyword.
        span: Span,
    },
    /// `UPDATE VType:v SET v.attr = e, ... [WHERE cond];`
    Update {
        /// Candidate vertices (type, set variable, parameter, or ANY).
        target: VSpec,
        /// `(var, attr, expr)` assignments applied per matching vertex.
        sets: Vec<(String, String, Expr)>,
        /// Optional row filter, evaluated per candidate vertex.
        where_clause: Option<Expr>,
        /// Source position of the `UPDATE` keyword.
        span: Span,
    },
    /// `DELETE FROM VType:v [WHERE cond];` — deletes matching vertices
    /// and (transitively) their incident edges.
    Delete {
        /// Candidate vertices.
        target: VSpec,
        /// Optional row filter; **absent means full wipe** (lint M001).
        where_clause: Option<Expr>,
        /// Source position of the `DELETE` keyword.
        span: Span,
    },
}

/// One accumulator declarator.
#[derive(Debug, Clone, PartialEq)]
pub struct AccumDecl {
    /// `true` for `@@global`, `false` for per-vertex `@local`.
    pub global: bool,
    /// Accumulator name without the `@`/`@@` sigil.
    pub name: String,
    /// Optional declaration initializer.
    pub init: Option<Expr>,
    /// Source position of the declarator.
    pub span: Span,
}

/// Source of a vertex-set assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum VSetSource {
    /// `{Page.*, Person.*}` — all vertices of the listed types
    /// (`{_}`/`{ANY}` = every vertex). An entry may also name a vertex
    /// parameter (singleton set).
    Literal(Vec<String>),
    /// The vertices produced by a SELECT block.
    Select(Box<SelectBlock>),
    /// `A UNION B` / `A INTERSECT B` / `A MINUS B` over vertex sets.
    SetOp {
        /// Which set operation.
        op: SetOp,
        /// Left operand (vertex-set variable).
        lhs: String,
        /// Right operand (vertex-set variable).
        rhs: String,
    },
}

/// Vertex-set algebra operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `UNION`.
    Union,
    /// `INTERSECT`.
    Intersect,
    /// `MINUS`.
    Minus,
}

/// A `SELECT` query block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectBlock {
    /// SELECT-clause output fragments (multi-output SELECT has several).
    pub outputs: Vec<OutputFragment>,
    /// FROM-clause items (patterns and/or tables).
    pub from: Vec<FromItem>,
    /// Optional `WHERE` predicate over binding rows.
    pub where_clause: Option<Expr>,
    /// `ACCUM` statements (Map phase, per binding row).
    pub accum: Vec<AccStmt>,
    /// `POST-ACCUM` statements (per distinct bound vertex).
    pub post_accum: Vec<AccStmt>,
    /// Optional `GROUP BY` clause.
    pub group_by: Option<GroupBy>,
    /// Optional `HAVING` predicate over groups.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderItem>,
    /// Optional `LIMIT` row count.
    pub limit: Option<Expr>,
    /// Source position of the `SELECT` keyword.
    pub span: Span,
    /// Dense position among the query's SELECT blocks, in source order;
    /// stamped by the parser. Plans, analysis facts and profile nodes
    /// index by it.
    pub id: usize,
}

/// One output fragment of a (multi-output) SELECT clause.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputFragment {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projected columns.
    pub items: Vec<SelectItem>,
    /// Optional `INTO table` target.
    pub into: Option<String>,
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// Projected expression.
    pub expr: Expr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key expression.
    pub expr: Expr,
    /// `true` for `DESC`.
    pub desc: bool,
}

/// `GROUP BY` clause: one or more grouping sets (plain GROUP BY is one
/// set; `GROUPING SETS`, `CUBE` and `ROLLUP` expand to several — the
/// expansion happens in the parser so the executor sees only sets).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBy {
    /// Full list of distinct grouping expressions (output columns).
    pub keys: Vec<Expr>,
    /// Each set selects indices into `keys`.
    pub sets: Vec<Vec<usize>>,
}

/// FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// A path pattern, optionally graph-qualified:
    /// `LinkedIn:(Person:p -(Connected:c)- Person:o)`.
    Pattern {
        /// Optional graph qualifier.
        graph: Option<String>,
        /// The pattern's source vertex specifier.
        start: VSpec,
        /// The hops walked from the source.
        hops: Vec<Hop>,
    },
    /// A relational-table scan: `Employee:e`.
    Table {
        /// Table name.
        name: String,
        /// Binding variable.
        alias: String,
    },
}

/// A vertex specifier: a name (vertex type, vertex-set variable, vertex
/// parameter, or `_`/`ANY`) with an optional binding variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VSpec {
    /// Vertex type, vertex-set variable, vertex parameter, or `_`/`ANY`.
    pub name: String,
    /// Optional binding variable (`:v`).
    pub var: Option<String>,
}

/// One hop of a path pattern: `-(DARPE[:edgeVar])- VSpec`.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// The edge pattern (direction-aware regular path expression).
    pub darpe: darpe::Darpe,
    /// Optional edge binding variable (single-edge patterns only).
    pub edge_var: Option<String>,
    /// Target vertex specifier.
    pub to: VSpec,
}

/// A statement inside ACCUM / POST_ACCUM.
#[derive(Debug, Clone, PartialEq)]
pub enum AccStmt {
    /// `float salesPrice = e.quantity * p.list_price` (type optional).
    LocalDecl {
        /// Local variable name.
        name: String,
        /// Initializer expression.
        expr: Expr,
    },
    /// `v.@a += e` / `v.@a = e`.
    VAcc {
        /// The bound vertex variable the accumulator belongs to.
        var: String,
        /// Vertex accumulator name (without `@`).
        name: String,
        /// `true` for `+=` (combine), `false` for `=` (assign).
        combine: bool,
        /// Right-hand side.
        expr: Expr,
    },
    /// `@@a += e` / `@@a = e`.
    GAcc {
        /// Global accumulator name (without `@@`).
        name: String,
        /// `true` for `+=` (combine), `false` for `=` (assign).
        combine: bool,
        /// Right-hand side.
        expr: Expr,
    },
}

/// A PRINT item.
#[derive(Debug, Clone, PartialEq)]
pub enum PrintItem {
    /// A labeled expression (`PRINT e AS label`; label defaults to the
    /// source text of `e`).
    Expr {
        /// The printed expression.
        expr: Expr,
        /// Output key in the PRINT result.
        label: String,
    },
    /// `PRINT R[R.name, R.@cnt]` — project a vertex set; inside the
    /// bracket the set name doubles as the per-vertex alias.
    VSetProjection {
        /// Vertex-set variable being projected.
        set: String,
        /// Per-vertex projected columns.
        items: Vec<SelectItem>,
    },
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `NULL`.
    Null,
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Double(f64),
    /// String literal.
    Str(String),
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// Variable / parameter / vertex-set reference.
    Ident(String),
    /// `base.field` — vertex/edge attribute or table column.
    Attr {
        /// The bound variable owning the attribute.
        base: String,
        /// Attribute / column name.
        field: String,
    },
    /// `v.@name` (`prev` = trailing apostrophe: pre-block snapshot).
    VAcc {
        /// The bound vertex variable.
        var: String,
        /// Accumulator name (without `@`).
        name: String,
        /// `true` for `v.@name'` (previous-snapshot read).
        prev: bool,
    },
    /// `@@name`.
    GAcc(String),
    /// `f(args)`; `star` marks `count(*)`.
    Call {
        /// Function name.
        func: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// `true` for `count(*)`.
        star: bool,
    },
    /// `v.outdegree("Likes")`, `v.type()`, `s.size()`, ...
    Method {
        /// Receiver expression.
        base: Box<Expr>,
        /// Method name.
        method: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `(k1, k2 -> a1, a2)` — accumulator input tuple; evaluates to a
    /// `Value::Tuple` of keys followed by values.
    ArrowTuple {
        /// Key expressions (left of `->`).
        keys: Vec<Expr>,
        /// Value expressions (right of `->`).
        vals: Vec<Expr>,
    },
    /// `(a, b, c)` — plain tuple (HeapAccum inputs).
    Tuple(Vec<Expr>),
    /// `CASE WHEN c1 THEN e1 ... ELSE e END`.
    Case {
        /// `(condition, result)` pairs, tried in order.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result (NULL when absent).
        default: Option<Box<Expr>>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean `NOT`.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (also string/list concatenation).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Mod,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// Boolean `AND`.
    And,
    /// Boolean `OR`.
    Or,
}

impl Expr {
    /// Walks the expression tree, applying `f` to every node.
    pub fn walk<'e>(&'e self, f: &mut impl FnMut(&'e Expr)) {
        f(self);
        match self {
            Expr::Call { args, .. } | Expr::Tuple(args) => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Method { base, args, .. } => {
                base.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::ArrowTuple { keys, vals } => {
                for e in keys.iter().chain(vals) {
                    e.walk(f);
                }
            }
            Expr::Case { branches, default } => {
                for (c, e) in branches {
                    c.walk(f);
                    e.walk(f);
                }
                if let Some(d) = default {
                    d.walk(f);
                }
            }
            _ => {}
        }
    }

    /// The one rule for which calls are aggregates: `count(*)`, and
    /// `count`, `sum`, `avg`, `min` or `max` of one argument. `min` and
    /// `max` of any other arity are the scalar builtins, so they — like
    /// every other call and every non-call — give `Ok(None)`. `count`,
    /// `sum` and `avg` of any other arity are an error that names it.
    pub fn aggregate(&self) -> Result<Option<Aggregate>> {
        use Aggregate::*;
        const NAMES: [(&str, Aggregate); 5] =
            [("count", Count), ("sum", Sum), ("avg", Avg), ("min", Min), ("max", Max)];
        let Expr::Call { func, args, star } = self else { return Ok(None) };
        let Some(&(_, agg)) = NAMES.iter().find(|(name, _)| func.eq_ignore_ascii_case(name)) else {
            return Ok(None);
        };
        match (agg, *star, args.len()) {
            (Count, true, _) => Ok(Some(CountStar)),
            (_, false, 1) => Ok(Some(agg)),
            (Min | Max, ..) => Ok(None),
            (_, star, n) => {
                let got = if star { "`*`".to_string() } else { n.to_string() };
                Err(Error::runtime(format!("aggregate `{func}` takes one argument, got {got}")))
            }
        }
    }

    /// True if any sub-expression is an aggregate call (see
    /// [`Expr::aggregate`]).
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= matches!(e.aggregate(), Ok(Some(_))));
        found
    }
}

/// An aggregate function of SELECT, HAVING and ORDER BY, as
/// [`Expr::aggregate`] recognizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `count(*)`: the sum of the rows' multiplicities.
    CountStar,
    /// `count(x)`: the multiplicity sum of the rows where `x` is not NULL.
    Count,
    /// `sum(x)`, as a DOUBLE.
    Sum,
    /// `avg(x)`: NULL over no non-NULL value.
    Avg,
    /// `min(x)`.
    Min,
    /// `max(x)`.
    Max,
}

/// Calls `f` with the semantics each `USE SEMANTICS` in `stmts` names,
/// loop and branch bodies included, in source order.
pub fn named_semantics(stmts: &[Stmt], f: &mut impl FnMut(crate::semantics::PathSemantics)) {
    for stmt in stmts {
        match stmt {
            Stmt::UseSemantics(s) => f(*s),
            Stmt::While { body, .. } | Stmt::Foreach { body, .. } => named_semantics(body, f),
            Stmt::If { then_branch, else_branch, .. } => {
                named_semantics(then_branch, f);
                named_semantics(else_branch, f);
            }
            _ => {}
        }
    }
}
