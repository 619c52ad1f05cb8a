//! The ACCUM / POST_ACCUM fold against a reference written from the
//! paper's definition of the two clauses, sharing nothing with the
//! engine but `Engine::run_text`:
//!
//! * ACCUM is a snapshot Map — every row evaluates every statement
//!   against the state from before the clause — then a Reduce that
//!   applies the emitted values in row order.
//! * POST_ACCUM runs once per distinct vertex of the one variable it
//!   names, in ascending order (once in all when it names none and any
//!   row matched), each write visible to the statements after it.
//!
//! Each case is one generated block `V:s -(A>)- V:t` with 1–3 ACCUM and
//! 0–2 POST_ACCUM statements (`+=` or `=`) over `SumAccum<int>`,
//! `SumAccum<float>`, `MinAccum<int>`, `MaxAccum<int>` and
//! `ListAccum<int>`, global and vertex. Operands are literals, `s.k`,
//! `t.k` and reads of any accumulator, the clause's own targets included
//! (a list is read through `.size()`). Rows run sources ascending, each
//! in `Graph::adjacency` order. Most graphs are the small random graphs
//! of `common/random_graphs.rs`. Every 5th case runs on 700 vertices,
//! over the exact-merge accumulators only, with more `=` writes and a
//! POST_ACCUM naming a variable, so that both clauses mostly fold by
//! partials and split into several runs at parallelism 3 and 4. Values
//! are compared, not printed text.

#[path = "common/random_graphs.rs"]
mod random_graphs;

use gsql_core::Engine;
use pgraph::graph::{Dir, Graph};
use pgraph::value::Value;
use random_graphs::{random_graph, random_graphs, Rng};

/// Generated cases.
const CASES: u64 = 500;

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    SumInt,
    SumFloat,
    Min,
    Max,
    List,
}

/// A value of the reference.
#[derive(Clone, Debug, PartialEq)]
enum R {
    I(i64),
    F(f64),
    L(Vec<i64>),
}

impl R {
    fn float(&self) -> f64 {
        match self {
            R::I(i) => *i as f64,
            R::F(f) => *f,
            R::L(_) => unreachable!("a list is read through .size()"),
        }
    }

    fn int(&self) -> i64 {
        match self {
            R::I(i) => *i,
            _ => unreachable!("an integer accumulator is given integers"),
        }
    }
}

/// Accumulator `i` is `@@x{i}` when global, `@x{i}` otherwise.
struct Acc {
    global: bool,
    ty: Ty,
    init: Option<R>,
}

/// A variable is `0` (`s`) or `1` (`t`).
enum E {
    Int(i64),
    Float(f64),
    Key(usize),
    /// A read of accumulator `acc` (at the vertex of `var` when it is a
    /// vertex accumulator); `.size()` for a list.
    Read { acc: usize, var: usize },
    Bin { plus: bool, l: Box<E>, r: Box<E> },
}

struct Stmt {
    acc: usize,
    var: usize,
    combine: bool,
    expr: E,
}

const VARS: [&str; 2] = ["s", "t"];

struct Case {
    accs: Vec<Acc>,
    accum: Vec<Stmt>,
    /// The variable POST_ACCUM names, if any.
    post_var: Option<usize>,
    post: Vec<Stmt>,
}

fn pick<T: Copy>(rng: &mut Rng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

/// An expression for a target of type `ty` over the variables `vars`;
/// `invariant` keeps it to literals and global reads.
fn gen_expr(rng: &mut Rng, accs: &[Acc], ty: Ty, vars: &[usize], invariant: bool, depth: u32) -> E {
    if depth > 0 && rng.below(3) == 0 {
        let l = Box::new(gen_expr(rng, accs, ty, vars, invariant, depth - 1));
        let r = Box::new(gen_expr(rng, accs, ty, vars, invariant, depth - 1));
        return E::Bin { plus: rng.below(2) == 0, l, r };
    }
    let vars: &[usize] = if invariant { &[] } else { vars };
    match rng.below(4) {
        0 if ty == Ty::SumFloat => E::Float(pick(rng, &[0.1, 0.25, 1.5, 0.3])),
        1 if !vars.is_empty() => E::Key(pick(rng, vars)),
        2 | 3 => {
            let acc = rng.below(accs.len() as u64) as usize;
            let a = &accs[acc];
            if (a.ty == Ty::SumFloat && ty != Ty::SumFloat) || (!a.global && vars.is_empty()) {
                return E::Int(rng.below(10) as i64);
            }
            E::Read { acc, var: if vars.is_empty() { 0 } else { pick(rng, vars) } }
        }
        _ => E::Int(rng.below(10) as i64),
    }
}

/// A statement over the variables `vars`: an `=` one time in `assign`.
fn gen_stmt(rng: &mut Rng, accs: &[Acc], vars: &[usize], assign: u64) -> Stmt {
    let targets: Vec<usize> = (0..accs.len()).filter(|&i| accs[i].global || !vars.is_empty()).collect();
    let acc = pick(rng, &targets);
    let var = if vars.is_empty() { 0 } else { pick(rng, vars) };
    let combine = rng.below(assign) != 0;
    let invariant = !combine && rng.below(2) == 0;
    Stmt { acc, var, combine, expr: gen_expr(rng, accs, accs[acc].ty, vars, invariant, 2) }
}

fn gen_case(rng: &mut Rng, large: bool) -> Case {
    const TYS: [Ty; 5] = [Ty::SumFloat, Ty::List, Ty::SumInt, Ty::Min, Ty::Max];
    let (globals, vertex) = (1 + rng.below(3), 1 + rng.below(3));
    let accs: Vec<Acc> = (0..globals + vertex)
        .map(|i| {
            let ty = if large { pick(rng, &TYS[2..]) } else { pick(rng, &TYS) };
            let init = match ty {
                Ty::Min | Ty::Max => Some(R::I(rng.below(10) as i64)),
                Ty::SumInt if rng.below(2) == 0 => Some(R::I(rng.below(5) as i64)),
                Ty::SumFloat if rng.below(2) == 0 => Some(R::F(0.5)),
                _ => None,
            };
            Acc { global: i < globals, ty, init }
        })
        .collect();
    let assign = if large { 2 } else { 3 };
    let accum = (0..1 + rng.below(3)).map(|_| gen_stmt(rng, &accs, &[0, 1], assign)).collect();
    let post_var = if large { Some(rng.below(2) as usize) } else { pick(rng, &[None, Some(0), Some(1)]) };
    let post_vars: Vec<usize> = post_var.into_iter().collect();
    let n_post = if large { 1 + rng.below(2) } else { rng.below(3) };
    let post = (0..n_post).map(|_| gen_stmt(rng, &accs, &post_vars, assign)).collect();
    Case { accs, accum, post_var, post }
}

fn acc_name(c: &Case, acc: usize, var: usize) -> String {
    if c.accs[acc].global { format!("@@x{acc}") } else { format!("{}.@x{acc}", VARS[var]) }
}

fn render_expr(c: &Case, e: &E) -> String {
    match e {
        E::Int(i) => i.to_string(),
        E::Float(f) => format!("{f:?}"),
        E::Key(v) => format!("{}.k", VARS[*v]),
        E::Read { acc, var } if c.accs[*acc].ty == Ty::List => format!("{}.size()", acc_name(c, *acc, *var)),
        E::Read { acc, var } => acc_name(c, *acc, *var),
        E::Bin { plus, l, r } => {
            format!("({} {} {})", render_expr(c, l), if *plus { "+" } else { "-" }, render_expr(c, r))
        }
    }
}

fn render(c: &Case) -> String {
    let mut q = String::from("CREATE QUERY Fold () {\n");
    for (i, a) in c.accs.iter().enumerate() {
        let ty = match a.ty {
            Ty::SumInt => "SumAccum<int>",
            Ty::SumFloat => "SumAccum<float>",
            Ty::Min => "MinAccum<int>",
            Ty::Max => "MaxAccum<int>",
            Ty::List => "ListAccum<int>",
        };
        let init = match &a.init {
            Some(R::I(i)) => format!(" = {i}"),
            Some(R::F(f)) => format!(" = {f:?}"),
            _ => String::new(),
        };
        q += &format!("  {ty} {}x{i}{init};\n", if a.global { "@@" } else { "@" });
    }
    let stmts = |ss: &[Stmt]| -> String {
        let op = |s: &Stmt| if s.combine { "+=" } else { "=" };
        let each = ss.iter().map(|s| format!("{} {} {}", acc_name(c, s.acc, s.var), op(s), render_expr(c, &s.expr)));
        each.collect::<Vec<_>>().join(", ")
    };
    q += &format!("  R = SELECT t FROM V:s -(A>)- V:t ACCUM {}", stmts(&c.accum));
    if !c.post.is_empty() {
        q += &format!(" POST_ACCUM {}", stmts(&c.post));
    }
    let col = |i: usize| if c.accs[i].global { format!(", @@x{i} AS x{i}") } else { format!(", v.@x{i} AS x{i}") };
    let cols = (0..c.accs.len()).map(col);
    q += &format!(";\n  SELECT v.k AS k{} INTO T FROM V:v;\n}}\n", cols.collect::<String>());
    q
}

/// The reference state: one cell per global, one per vertex of each
/// vertex accumulator.
type State = Vec<Vec<R>>;

fn eval(c: &Case, e: &E, st: &State, at: [usize; 2]) -> R {
    match e {
        E::Int(i) => R::I(*i),
        E::Float(f) => R::F(*f),
        E::Key(v) => R::I(at[*v] as i64),
        E::Read { acc, var } => {
            match &st[*acc][if c.accs[*acc].global { 0 } else { at[*var] }] {
                R::L(xs) => R::I(xs.len() as i64),
                v => v.clone(),
            }
        }
        E::Bin { plus, l, r } => match (eval(c, l, st, at), eval(c, r, st, at)) {
            (R::I(a), R::I(b)) => R::I(if *plus { a.wrapping_add(b) } else { a.wrapping_sub(b) }),
            (a, b) => R::F(if *plus { a.float() + b.float() } else { a.float() - b.float() }),
        },
    }
}

/// Whether `e` names a variable: `s.k`, `t.k` or a vertex accumulator.
fn mentions_var(c: &Case, e: &E) -> bool {
    match e {
        E::Int(_) | E::Float(_) => false,
        E::Key(_) => true,
        E::Read { acc, .. } => !c.accs[*acc].global,
        E::Bin { l, r, .. } => mentions_var(c, l) || mentions_var(c, r),
    }
}

fn apply(c: &Case, st: &mut State, s: &Stmt, at: [usize; 2], v: R) {
    let a = &c.accs[s.acc];
    let cell = &mut st[s.acc][if a.global { 0 } else { at[s.var] }];
    *cell = match (a.ty, s.combine, &*cell) {
        (Ty::SumInt, true, cur) => R::I(cur.int().wrapping_add(v.int())),
        (Ty::SumFloat, true, cur) => R::F(cur.float() + v.float()),
        (Ty::Min, true, cur) => R::I(cur.int().min(v.int())),
        (Ty::Max, true, cur) => R::I(cur.int().max(v.int())),
        (Ty::List, true, R::L(xs)) => R::L([&xs[..], &[v.int()]].concat()),
        (Ty::SumFloat, false, _) => R::F(v.float()),
        (Ty::List, false, _) => R::L(vec![v.int()]),
        (_, false, _) => R::I(v.int()),
        (_, true, cur) => unreachable!("{cur:?}"),
    };
}

/// Runs the case on `g` by the definition.
fn reference(c: &Case, g: &Graph) -> State {
    let a_type = g.schema().edge_type_id("A").unwrap();
    let mut st: State = c
        .accs
        .iter()
        .map(|a| {
            let init = a.init.clone().unwrap_or(match a.ty {
                Ty::SumFloat => R::F(0.0),
                Ty::List => R::L(Vec::new()),
                _ => R::I(0),
            });
            vec![init; if a.global { 1 } else { g.vertex_count() }]
        })
        .collect();
    let mut rows: Vec<[usize; 2]> = Vec::new();
    for s in g.vertices() {
        for a in g.adjacency(s) {
            if a.etype == a_type && a.dir == Dir::Out {
                rows.push([s.0 as usize, a.other.0 as usize]);
            }
        }
    }
    // ACCUM: the Map reads only the snapshot; the Reduce applies in row order.
    let mut emitted: Vec<(&Stmt, [usize; 2], R)> = Vec::new();
    for &at in &rows {
        emitted.extend(c.accum.iter().map(|s| (s, at, eval(c, &s.expr, &st, at))));
    }
    for (s, at, v) in emitted {
        apply(c, &mut st, s, at, v);
    }
    // POST_ACCUM: live, per distinct vertex of the variable it names,
    // ascending.
    let names_var = |s: &Stmt| !c.accs[s.acc].global || mentions_var(c, &s.expr);
    let mut items: Vec<[usize; 2]> = match c.post_var.filter(|_| c.post.iter().any(names_var)) {
        Some(p) => rows.iter().map(|r| [r[p], r[p]]).collect(),
        None => rows.first().map(|_| [0, 0]).into_iter().collect(),
    };
    items.sort();
    items.dedup();
    for at in items {
        for s in &c.post {
            let v = eval(c, &s.expr, &st, at);
            apply(c, &mut st, s, at, v);
        }
    }
    st
}

fn from_engine(v: &Value) -> R {
    match v {
        Value::Int(i) => R::I(*i),
        Value::Double(f) => R::F(*f),
        Value::List(xs) => R::L(xs.iter().map(|x| from_engine(x).int()).collect()),
        other => panic!("unexpected value {other:?}"),
    }
}

#[test]
fn the_fold_agrees_with_the_snapshot_map_and_row_order_reduce() {
    let mut rng = Rng(0xF01D_5EED);
    for case in 0..CASES {
        let large = case % 5 == 4;
        let g = if large { random_graph(&mut rng, 700, 4200) } else { random_graphs(&mut rng).0 };
        let c = gen_case(&mut rng, large);
        let src = render(&c);
        let want = reference(&c, &g);
        for par in [1usize, 3, 4] {
            for morsel in [1usize, 7, 1024] {
                let label = format!("case {case} parallelism={par} morsel={morsel}\n{src}");
                let engine = Engine::new(&g).with_parallelism(par).with_morsel_size(morsel);
                let out = engine.run_text(&src, &[]).unwrap_or_else(|e| panic!("{label}: {e}"));
                let t = &out.tables["T"];
                assert_eq!(t.rows.len(), g.vertex_count(), "{label}");
                for row in &t.rows {
                    let v = from_engine(&row[0]).int() as usize;
                    for (i, a) in c.accs.iter().enumerate() {
                        let want = &want[i][if a.global { 0 } else { v }];
                        assert_eq!(&from_engine(&row[1 + i]), want, "{label}: x{i} at vertex {v}");
                    }
                }
            }
        }
    }
}
