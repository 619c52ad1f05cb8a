//! Recursive-descent parser for the GSQL subset.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::{lex, SpannedTok, Tok};
use accum::types::{HeapField, SortDir};
use accum::AccumType;
use pgraph::value::ValueType;
use std::collections::HashMap;

/// Parses a `CREATE QUERY` definition.
pub fn parse_query(src: &str) -> Result<Query> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// How a query text asked to be executed: run it, explain it, or profile it.
///
/// Produced by [`parse_query_with_mode`] when the query text starts with an
/// optional `EXPLAIN` or `PROFILE` prefix keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// No prefix — execute the query normally.
    Run,
    /// `EXPLAIN CREATE QUERY ...` — render the logical plan without running.
    Explain,
    /// `PROFILE CREATE QUERY ...` — run the query with per-operator profiling.
    Profile,
    /// `CHECK CREATE QUERY ...` — lint the query without running it.
    Check,
}

/// Parses a `CREATE QUERY` definition that may carry an optional leading
/// `EXPLAIN` or `PROFILE` keyword, returning the requested [`QueryMode`]
/// alongside the parsed query.
///
/// [`parse_query`] remains strict (no prefix allowed) so that prepared-query
/// fingerprints and the plan cache are unaffected.
pub fn parse_query_with_mode(src: &str) -> Result<(QueryMode, Query)> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    // EXPLAIN/PROFILE/CHECK are deliberately NOT reserved words — `INTO
    // Profile` must keep working — so the prefix is a leading
    // identifier, recognized case-insensitively only in this position.
    let mode = match p.peek() {
        Tok::Ident(s) if s.eq_ignore_ascii_case("explain") => {
            p.pos += 1;
            QueryMode::Explain
        }
        Tok::Ident(s) if s.eq_ignore_ascii_case("profile") => {
            p.pos += 1;
            QueryMode::Profile
        }
        Tok::Ident(s) if s.eq_ignore_ascii_case("check") => {
            p.pos += 1;
            QueryMode::Check
        }
        _ => QueryMode::Run,
    };
    let q = p.query()?;
    p.expect_eof()?;
    Ok((mode, q))
}

/// Parses a standalone expression (used by tests and the REPL-style API).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Tuple typedefs seen so far: name → field names in order.
    typedefs: HashMap<String, Vec<(String, ValueType)>>,
    /// SELECT blocks parsed so far: the next block's id.
    blocks: usize,
    /// WHILE/FOREACH loops parsed so far: the next loop's id.
    loops: usize,
}

impl Parser {
    fn new(toks: Vec<SpannedTok>) -> Self {
        Parser { toks, pos: 0, typedefs: HashMap::new(), blocks: 0, loops: 0 }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let st = &self.toks[self.pos];
        Err(Error::Parse { line: st.line, col: st.col, msg: msg.into() })
    }

    /// Position of the token about to be consumed.
    fn span(&self) -> Span {
        let st = &self.toks[self.pos];
        Span::at(st.line, st.col)
    }

    /// A parse error anchored at `sp` rather than the current token —
    /// used when the offending token has already been consumed.
    fn err_at<T>(sp: Span, msg: impl Into<String>) -> Result<T> {
        Err(Error::Parse { line: sp.line, col: sp.col, msg: msg.into() })
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{tok}`, found `{}`", self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: &'static str) -> Result<()> {
        self.expect(Tok::Kw(kw))
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &'static str) -> bool {
        self.eat(Tok::Kw(kw))
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            // Tolerate keywords used as identifiers in non-ambiguous spots
            // (e.g. a table named `Total`, a column aliased `count`).
            Tok::Kw(k) if !matches!(k, "FROM" | "WHERE" | "SELECT" | "END" | "DO") => {
                self.bump();
                Ok(k.to_string())
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            self.err(format!("unexpected trailing `{}`", self.peek()))
        }
    }

    // ---- query header -------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("CREATE")?;
        self.expect_kw("QUERY")?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                params.push(self.param()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let graph = if self.eat_kw("FOR") {
            self.expect_kw("GRAPH")?;
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        let body = self.stmts_until(&Tok::RBrace)?;
        self.expect(Tok::RBrace)?;
        Ok(Query { name, params, graph, body })
    }

    fn param(&mut self) -> Result<Param> {
        let ty = match self.peek().clone() {
            Tok::Kw("VERTEX") => {
                self.bump();
                let t = if self.eat(Tok::Lt) {
                    let t = self.ident()?;
                    self.expect(Tok::Gt)?;
                    Some(t)
                } else {
                    None
                };
                ParamType::Vertex(t)
            }
            Tok::Kw("SET") => {
                self.bump();
                self.expect(Tok::Lt)?;
                self.expect_kw("VERTEX")?;
                if self.eat(Tok::Lt) {
                    self.ident()?;
                    self.expect(Tok::Gt)?;
                }
                self.expect(Tok::Gt)?;
                ParamType::VertexSet
            }
            Tok::Kw(k) => {
                if let Some(vt) = ValueType::parse(k) {
                    self.bump();
                    ParamType::Scalar(vt)
                } else {
                    return self.err(format!("expected parameter type, found `{k}`"));
                }
            }
            other => return self.err(format!("expected parameter type, found `{other}`")),
        };
        let name = self.ident()?;
        Ok(Param { name, ty })
    }

    // ---- statements ---------------------------------------------------

    fn stmts_until(&mut self, terminator: &Tok) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        while self.peek() != terminator {
            if *self.peek() == Tok::Eof {
                return self.err(format!("expected `{terminator}` before end of input"));
            }
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    /// Statement list for WHILE/IF/FOREACH bodies (terminated by END or
    /// ELSE).
    fn block_stmts(&mut self) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Tok::Kw("END") | Tok::Kw("ELSE") => break,
                Tok::Eof => return self.err("expected END"),
                _ => out.push(self.stmt()?),
            }
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek().clone() {
            Tok::Kw("TYPEDEF") => self.typedef(),
            Tok::Kw("USE") => {
                self.bump();
                self.expect_kw("SEMANTICS")?;
                let sp = self.span();
                let name = match self.bump() {
                    Tok::Str(s) => s,
                    other => {
                        return Self::err_at(
                            sp,
                            format!("expected semantics name string, found `{other}`"),
                        )
                    }
                };
                let sem = match parse_semantics(&name) {
                    Some(sem) => sem,
                    None => {
                        return Self::err_at(sp, format!(
                            "unknown semantics `{name}`; expected one of all_shortest_paths, \
                             all_shortest_paths_enumerate, non_repeated_edge, \
                             non_repeated_vertex, shortest_one"
                        ))
                    }
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::UseSemantics(sem))
            }
            Tok::Kw("INSERT") => self.insert_stmt(),
            Tok::Kw("UPDATE") => self.update_stmt(),
            Tok::Kw("DELETE") => self.delete_stmt(),
            Tok::Kw("WHILE") => self.while_stmt(),
            Tok::Kw("IF") => self.if_stmt(),
            Tok::Kw("FOREACH") => self.foreach_stmt(),
            Tok::Kw("PRINT") => self.print_stmt(),
            Tok::Kw("RETURN") => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return(e))
            }
            Tok::Kw("SELECT") => {
                let block = self.select_block()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Select(Box::new(block)))
            }
            Tok::GAcc(name) => {
                self.bump();
                let combine = match self.bump() {
                    Tok::PlusEq => true,
                    Tok::Eq => false,
                    other => return self.err(format!("expected `=` or `+=`, found `{other}`")),
                };
                let expr = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::GAccAssign { name, combine, expr })
            }
            Tok::Ident(name) if name.ends_with("Accum") => self.accum_decl(),
            Tok::Ident(_) | Tok::Kw(_) => {
                // `Name = SELECT ...` / `Name = {...}` vertex-set assignment.
                if *self.peek2() == Tok::Eq {
                    let span = self.span();
                    let name = self.ident()?;
                    self.expect(Tok::Eq)?;
                    let source = match self.peek() {
                        Tok::Kw("SELECT") => VSetSource::Select(Box::new(self.select_block()?)),
                        Tok::LBrace => self.vset_literal()?,
                        Tok::Ident(_) | Tok::Kw(_) => {
                            // Vertex-set algebra: `S = A UNION B;`
                            let lhs = self.ident()?;
                            let op = match self.bump() {
                                Tok::Kw("UNION") => SetOp::Union,
                                Tok::Kw("INTERSECT") => SetOp::Intersect,
                                Tok::Kw("MINUS") => SetOp::Minus,
                                other => {
                                    return self.err(format!(
                                        "expected UNION/INTERSECT/MINUS, found `{other}`"
                                    ))
                                }
                            };
                            let rhs = self.ident()?;
                            VSetSource::SetOp { op, lhs, rhs }
                        }
                        _ => return self.err("expected SELECT, `{...}` or a set expression after `=`"),
                    };
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::VSetAssign { name, source, span })
                } else {
                    self.err(format!("unexpected token `{}` at statement start", self.peek()))
                }
            }
            other => self.err(format!("unexpected token `{other}` at statement start")),
        }
    }

    /// Optional `(col, col, ...)` column list (INSERT statements).
    fn opt_column_list(&mut self) -> Result<Vec<String>> {
        if *self.peek() != Tok::LParen {
            return Ok(Vec::new());
        }
        self.bump();
        let mut cols = vec![self.ident()?];
        while self.eat(Tok::Comma) {
            cols.push(self.ident()?);
        }
        self.expect(Tok::RParen)?;
        Ok(cols)
    }

    /// `INSERT VERTEX T [(cols)] VALUES (exprs);` or
    /// `INSERT EDGE T FROM e TO e [[(cols)] VALUES (exprs)];`
    fn insert_stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        self.expect_kw("INSERT")?;
        match self.bump() {
            Tok::Kw("VERTEX") => {
                let vtype = self.ident()?;
                let columns = self.opt_column_list()?;
                self.expect_kw("VALUES")?;
                self.expect(Tok::LParen)?;
                let values =
                    if *self.peek() == Tok::RParen { Vec::new() } else { self.expr_list()? };
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::InsertVertex { vtype, columns, values, span })
            }
            Tok::Kw("EDGE") => {
                let etype = self.ident()?;
                self.expect_kw("FROM")?;
                let src = self.expr()?;
                self.expect_kw("TO")?;
                let dst = self.expr()?;
                let (columns, values) = if *self.peek() == Tok::Semi {
                    (Vec::new(), Vec::new())
                } else {
                    let columns = self.opt_column_list()?;
                    self.expect_kw("VALUES")?;
                    self.expect(Tok::LParen)?;
                    let values =
                        if *self.peek() == Tok::RParen { Vec::new() } else { self.expr_list()? };
                    self.expect(Tok::RParen)?;
                    (columns, values)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::InsertEdge { etype, src, dst, columns, values, span })
            }
            other => {
                Self::err_at(span, format!("expected VERTEX or EDGE after INSERT, found `{other}`"))
            }
        }
    }

    /// `UPDATE VType:v SET v.attr = e, ... [WHERE cond];`
    fn update_stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        self.expect_kw("UPDATE")?;
        let target = self.vspec()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let var = self.ident()?;
            self.expect(Tok::Dot)?;
            let attr = self.ident()?;
            self.expect(Tok::Eq)?;
            let expr = self.expr()?;
            sets.push((var, attr, expr));
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Update { target, sets, where_clause, span })
    }

    /// `DELETE FROM VType:v [WHERE cond];`
    fn delete_stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let target = self.vspec()?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Delete { target, where_clause, span })
    }

    fn typedef(&mut self) -> Result<Stmt> {
        self.expect_kw("TYPEDEF")?;
        self.expect_kw("TUPLE")?;
        self.expect(Tok::Lt)?;
        let mut fields = Vec::new();
        loop {
            // Accept both `INT score` and `score INT` orders. Destructure
            // type and name in one match so no panicking re-extraction is
            // needed (this path is reachable from untrusted server input).
            let (first, second) = (self.bump(), self.bump());
            let (ty, name) = match (first, second) {
                (Tok::Kw(k), Tok::Ident(name)) | (Tok::Ident(name), Tok::Kw(k)) => {
                    match ValueType::parse(k) {
                        Some(ty) => (ty, name),
                        None => {
                            return self
                                .err(format!("`{k}` is not a value type in tuple typedef"))
                        }
                    }
                }
                _ => return self.err("expected `TYPE name` in tuple typedef"),
            };
            fields.push((name, ty));
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Gt)?;
        let name = self.ident()?;
        self.expect(Tok::Semi)?;
        self.typedefs.insert(name.clone(), fields.clone());
        Ok(Stmt::TupleTypedef { name, fields })
    }

    fn accum_decl(&mut self) -> Result<Stmt> {
        let ty = self.accum_type()?;
        let mut decls = Vec::new();
        loop {
            let span = self.span();
            let (global, name) = match self.bump() {
                Tok::VAcc(n) => (false, n),
                Tok::GAcc(n) => (true, n),
                other => {
                    return Self::err_at(
                        span,
                        format!("expected `@name` or `@@name`, found `{other}`"),
                    )
                }
            };
            let init = if self.eat(Tok::Eq) { Some(self.expr()?) } else { None };
            decls.push(AccumDecl { global, name, init, span });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(Stmt::AccumDecl { ty, decls })
    }

    /// Parses an accumulator type, e.g. `SumAccum<float>`,
    /// `MapAccum<string, SumAccum<float>>`,
    /// `HeapAccum<Tup>(5, score DESC, name ASC)`,
    /// `GroupByAccum<int k1, string k2, SumAccum<float> s>`.
    fn accum_type(&mut self) -> Result<AccumType> {
        let name = self.ident()?;
        match name.as_str() {
            "SumAccum" => {
                let vt = self.one_type_param()?;
                Ok(AccumType::Sum(vt))
            }
            "MinAccum" => {
                self.opt_type_param()?;
                Ok(AccumType::Min)
            }
            "MaxAccum" => {
                self.opt_type_param()?;
                Ok(AccumType::Max)
            }
            "AvgAccum" => {
                self.opt_type_param()?;
                Ok(AccumType::Avg)
            }
            "OrAccum" => Ok(AccumType::Or),
            "AndAccum" => Ok(AccumType::And),
            "SetAccum" => {
                self.opt_type_param()?;
                Ok(AccumType::Set)
            }
            "BagAccum" => {
                self.opt_type_param()?;
                Ok(AccumType::Bag)
            }
            "ListAccum" => {
                self.opt_type_param()?;
                Ok(AccumType::List)
            }
            "ArrayAccum" => {
                self.opt_type_param()?;
                Ok(AccumType::Array)
            }
            "MapAccum" => {
                self.expect(Tok::Lt)?;
                // Key type: scalar type name (ignored at runtime).
                self.scalar_type()?;
                self.expect(Tok::Comma)?;
                let value = if self.peek_is_accum_type() {
                    self.accum_type()?
                } else {
                    // MapAccum<K, V-scalar> sugar: value behaves like a
                    // "last write wins"? The paper always nests accums;
                    // treat a scalar value type as MaxAccum (overwrite-ish)
                    // is surprising — reject instead.
                    return self.err("MapAccum value must be an accumulator type");
                };
                self.expect(Tok::Gt)?;
                Ok(AccumType::Map(Box::new(value)))
            }
            "HeapAccum" => {
                // HeapAccum<TupleName>(capacity, field dir, ...)
                self.expect(Tok::Lt)?;
                let tup_sp = self.span();
                let tup = self.ident()?;
                self.expect(Tok::Gt)?;
                let fields_decl = match self.typedefs.get(&tup).cloned() {
                    Some(f) => f,
                    None => {
                        return Self::err_at(
                            tup_sp,
                            format!("unknown tuple type `{tup}` in HeapAccum"),
                        )
                    }
                };
                self.expect(Tok::LParen)?;
                let capacity = match self.bump() {
                    Tok::Int(n) if n >= 0 => n as usize,
                    other => return self.err(format!("expected heap capacity, found `{other}`")),
                };
                let mut fields = Vec::new();
                while self.eat(Tok::Comma) {
                    let fname_sp = self.span();
                    let fname = self.ident()?;
                    let index = match fields_decl.iter().position(|(n, _)| *n == fname) {
                        Some(i) => i,
                        None => {
                            return Self::err_at(
                                fname_sp,
                                format!("tuple `{tup}` has no field `{fname}`"),
                            )
                        }
                    };
                    let dir = if self.eat_kw("DESC") {
                        SortDir::Desc
                    } else {
                        self.eat_kw("ASC");
                        SortDir::Asc
                    };
                    fields.push(HeapField { index, dir });
                }
                self.expect(Tok::RParen)?;
                Ok(AccumType::heap(capacity, fields_decl.len(), fields))
            }
            "GroupByAccum" => {
                self.expect(Tok::Lt)?;
                let mut key_arity = 0usize;
                let mut nested = Vec::new();
                loop {
                    if self.peek_is_accum_type() {
                        let n = self.accum_type()?;
                        // Optional field name after the nested accum.
                        if matches!(self.peek(), Tok::Ident(_)) {
                            self.bump();
                        }
                        nested.push(n);
                    } else {
                        self.scalar_type()?;
                        // Optional key field name.
                        if matches!(self.peek(), Tok::Ident(_)) {
                            self.bump();
                        }
                        if !nested.is_empty() {
                            return self.err("GroupByAccum keys must precede nested accumulators");
                        }
                        key_arity += 1;
                    }
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::Gt)?;
                Ok(AccumType::GroupBy { key_arity, nested })
            }
            user => Ok(AccumType::User(user.to_string())),
        }
    }

    fn peek_is_accum_type(&self) -> bool {
        matches!(self.peek(), Tok::Ident(n) if n.ends_with("Accum"))
    }

    fn scalar_type(&mut self) -> Result<ValueType> {
        let sp = self.span();
        match self.bump() {
            Tok::Kw(k) => ValueType::parse(k)
                .ok_or(())
                .or_else(|()| Self::err_at(sp, format!("not a scalar type: {k}"))),
            Tok::Ident(s) => ValueType::parse(&s)
                .ok_or(())
                .or_else(|()| Self::err_at(sp, format!("not a scalar type: {s}"))),
            other => Self::err_at(sp, format!("expected type, found `{other}`")),
        }
    }

    fn one_type_param(&mut self) -> Result<ValueType> {
        self.expect(Tok::Lt)?;
        let vt = self.scalar_type()?;
        self.expect(Tok::Gt)?;
        Ok(vt)
    }

    fn opt_type_param(&mut self) -> Result<()> {
        if self.eat(Tok::Lt) {
            self.scalar_type()?;
            self.expect(Tok::Gt)?;
        }
        Ok(())
    }

    fn vset_literal(&mut self) -> Result<VSetSource> {
        self.expect(Tok::LBrace)?;
        let mut entries = Vec::new();
        loop {
            let name = self.ident()?;
            if self.eat(Tok::Dot) {
                self.expect(Tok::Star)?;
            }
            entries.push(name);
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(VSetSource::Literal(entries))
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        let id = self.loops;
        self.loops += 1;
        self.expect_kw("WHILE")?;
        let cond = self.expr()?;
        let limit = if self.eat_kw("LIMIT") { Some(self.expr()?) } else { None };
        self.expect_kw("DO")?;
        let body = self.block_stmts()?;
        self.expect_kw("END")?;
        self.eat(Tok::Semi);
        Ok(Stmt::While { cond, limit, body, span, id })
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("IF")?;
        let cond = self.expr()?;
        self.expect_kw("THEN")?;
        let then_branch = self.block_stmts()?;
        let else_branch = if self.eat_kw("ELSE") { self.block_stmts()? } else { Vec::new() };
        self.expect_kw("END")?;
        self.eat(Tok::Semi);
        Ok(Stmt::If { cond, then_branch, else_branch })
    }

    fn foreach_stmt(&mut self) -> Result<Stmt> {
        let id = self.loops;
        self.loops += 1;
        self.expect_kw("FOREACH")?;
        let var = self.ident()?;
        self.expect_kw("IN")?;
        let iterable = self.expr()?;
        self.expect_kw("DO")?;
        let body = self.block_stmts()?;
        self.expect_kw("END")?;
        self.eat(Tok::Semi);
        Ok(Stmt::Foreach { var, iterable, body, id })
    }

    fn print_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("PRINT")?;
        let mut items = Vec::new();
        loop {
            // `R[proj, ...]` — vertex-set projection.
            if let Tok::Ident(name) = self.peek().clone() {
                if *self.peek2() == Tok::LBracket {
                    self.bump();
                    self.bump();
                    let mut proj = Vec::new();
                    loop {
                        let expr = self.expr()?;
                        let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
                        proj.push(SelectItem { expr, alias });
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RBracket)?;
                    items.push(PrintItem::VSetProjection { set: name, items: proj });
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                    continue;
                }
            }
            let expr = self.expr()?;
            let label = if self.eat_kw("AS") {
                self.ident()?
            } else {
                print_label(&expr)
            };
            items.push(PrintItem::Expr { expr, label });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(Stmt::Print(items))
    }

    // ---- SELECT blocks -------------------------------------------------

    fn select_block(&mut self) -> Result<SelectBlock> {
        let span = self.span();
        let id = self.blocks;
        self.blocks += 1;
        self.expect_kw("SELECT")?;
        let mut outputs = vec![self.output_fragment()?];
        while *self.peek() == Tok::Semi && *self.peek2() != Tok::Kw("FROM") {
            // Multi-output: `; fragment` until FROM.
            self.bump();
            outputs.push(self.output_fragment()?);
        }
        self.eat(Tok::Semi); // tolerate trailing `;` before FROM
        self.expect_kw("FROM")?;
        let mut from = vec![self.from_item()?];
        while self.eat(Tok::Comma) {
            from.push(self.from_item()?);
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let accum = if self.eat_kw("ACCUM") { self.acc_stmts()? } else { Vec::new() };
        let post_accum =
            if self.eat_kw("POST_ACCUM") { self.acc_stmts()? } else { Vec::new() };
        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            Some(self.group_by()?)
        } else {
            None
        };
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") { Some(self.expr()?) } else { None };
        Ok(SelectBlock {
            outputs,
            from,
            where_clause,
            accum,
            post_accum,
            group_by,
            having,
            order_by,
            limit,
            span,
            id,
        })
    }

    fn output_fragment(&mut self) -> Result<OutputFragment> {
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
            items.push(SelectItem { expr, alias });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        let into = if self.eat_kw("INTO") { Some(self.ident()?) } else { None };
        Ok(OutputFragment { distinct, items, into })
    }

    #[allow(clippy::wrong_self_convention)] // parser rule named after the FROM clause
    fn from_item(&mut self) -> Result<FromItem> {
        // Graph-qualified pattern: `GraphName:(pattern)`.
        if matches!(self.peek(), Tok::Ident(_)) && *self.peek2() == Tok::Colon {
            let save = self.pos;
            let gname = self.ident()?;
            self.bump(); // colon
            if *self.peek() == Tok::LParen {
                self.bump();
                let (start, hops) = self.pattern()?;
                self.expect(Tok::RParen)?;
                return Ok(FromItem::Pattern { graph: Some(gname), start, hops });
            }
            self.pos = save;
        }
        let (start, hops) = self.pattern()?;
        if hops.is_empty() {
            // Could be a relational table scan; the executor resolves.
            let alias = start.var.clone().unwrap_or_else(|| start.name.clone());
            return Ok(FromItem::Table { name: start.name, alias });
        }
        Ok(FromItem::Pattern { graph: None, start, hops })
    }

    fn pattern(&mut self) -> Result<(VSpec, Vec<Hop>)> {
        let start = self.vspec()?;
        let mut hops = Vec::new();
        while *self.peek() == Tok::Minus {
            self.bump();
            self.expect(Tok::LParen)?;
            let (darpe_text, edge_var) = self.darpe_text()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Minus)?;
            let to = self.vspec()?;
            let darpe = darpe::parse(&darpe_text)?;
            hops.push(Hop { darpe, edge_var, to });
        }
        Ok((start, hops))
    }

    fn vspec(&mut self) -> Result<VSpec> {
        let name = match self.bump() {
            Tok::Ident(s) => s,
            Tok::Kw(k) => k.to_string(),
            other => return self.err(format!("expected vertex specifier, found `{other}`")),
        };
        let var = if *self.peek() == Tok::Colon {
            self.bump();
            Some(self.ident()?)
        } else {
            None
        };
        Ok(VSpec { name, var })
    }

    /// Re-assembles the DARPE text between `-(` and `)-`, splitting off an
    /// optional trailing `:edgeVar` at nesting depth 0.
    fn darpe_text(&mut self) -> Result<(String, Option<String>)> {
        let mut depth = 0usize;
        let mut text = String::new();
        let mut edge_var = None;
        loop {
            match self.peek().clone() {
                Tok::RParen if depth == 0 => break,
                Tok::Eof => return self.err("unterminated pattern hop"),
                Tok::Colon if depth == 0 => {
                    self.bump();
                    edge_var = Some(self.ident()?);
                    if *self.peek() != Tok::RParen {
                        return self.err("edge variable must end the hop");
                    }
                    break;
                }
                Tok::LParen => {
                    depth += 1;
                    text.push('(');
                    self.bump();
                }
                Tok::RParen => {
                    depth -= 1;
                    text.push(')');
                    self.bump();
                }
                tok => {
                    text.push_str(&tok.to_string());
                    self.bump();
                }
            }
        }
        if text.is_empty() {
            return self.err("empty DARPE in pattern hop");
        }
        Ok((text, edge_var))
    }

    fn group_by(&mut self) -> Result<GroupBy> {
        if self.eat_kw("GROUPING") {
            self.expect_kw("SETS")?;
            self.expect(Tok::LParen)?;
            let mut keys: Vec<Expr> = Vec::new();
            let mut sets = Vec::new();
            loop {
                self.expect(Tok::LParen)?;
                let mut set = Vec::new();
                if *self.peek() != Tok::RParen {
                    loop {
                        let e = self.expr()?;
                        let idx = key_index(&mut keys, e);
                        set.push(idx);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen)?;
                sets.push(set);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
            Ok(GroupBy { keys, sets })
        } else if self.eat_kw("CUBE") {
            self.expect(Tok::LParen)?;
            let keys = self.expr_list()?;
            self.expect(Tok::RParen)?;
            let n = keys.len();
            let sets = (0..(1usize << n))
                .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
                .collect();
            Ok(GroupBy { keys, sets })
        } else if self.eat_kw("ROLLUP") {
            self.expect(Tok::LParen)?;
            let keys = self.expr_list()?;
            self.expect(Tok::RParen)?;
            let n = keys.len();
            let sets = (0..=n).rev().map(|k| (0..k).collect()).collect();
            Ok(GroupBy { keys, sets })
        } else {
            let keys = self.expr_list()?;
            let all: Vec<usize> = (0..keys.len()).collect();
            Ok(GroupBy { keys, sets: vec![all] })
        }
    }

    fn expr_list(&mut self) -> Result<Vec<Expr>> {
        let mut out = vec![self.expr()?];
        while self.eat(Tok::Comma) {
            out.push(self.expr()?);
        }
        Ok(out)
    }

    // ---- ACCUM statement lists -----------------------------------------

    fn acc_stmts(&mut self) -> Result<Vec<AccStmt>> {
        let mut out = vec![self.acc_stmt()?];
        while self.eat(Tok::Comma) {
            out.push(self.acc_stmt()?);
        }
        Ok(out)
    }

    fn acc_stmt(&mut self) -> Result<AccStmt> {
        match self.peek().clone() {
            Tok::GAcc(name) => {
                self.bump();
                let combine = match self.bump() {
                    Tok::PlusEq => true,
                    Tok::Eq => false,
                    other => return self.err(format!("expected `=`/`+=`, found `{other}`")),
                };
                let expr = self.expr()?;
                Ok(AccStmt::GAcc { name, combine, expr })
            }
            // `v.@a += e` / `v.@a = e`
            Tok::Ident(var) if *self.peek2() == Tok::Dot => {
                let save = self.pos;
                self.bump();
                self.bump();
                if let Tok::VAcc(name) = self.peek().clone() {
                    self.bump();
                    let combine = match self.bump() {
                        Tok::PlusEq => true,
                        Tok::Eq => false,
                        other => return self.err(format!("expected `=`/`+=`, found `{other}`")),
                    };
                    let expr = self.expr()?;
                    return Ok(AccStmt::VAcc { var, name, combine, expr });
                }
                self.pos = save;
                self.err("expected accumulator statement")
            }
            // Typed local: `float x = e`. Untyped local: `x = e`.
            Tok::Kw(k) if ValueType::parse(k).is_some() => {
                self.bump();
                let name = self.ident()?;
                self.expect(Tok::Eq)?;
                let expr = self.expr()?;
                Ok(AccStmt::LocalDecl { name, expr })
            }
            Tok::Ident(name) if *self.peek2() == Tok::Eq => {
                self.bump();
                self.bump();
                let expr = self.expr()?;
                Ok(AccStmt::LocalDecl { name, expr })
            }
            other => self.err(format!("expected ACCUM statement, found `{other}`")),
        }
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            Ok(Expr::Unary { op: UnOp::Not, expr: Box::new(inner) })
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::Eq | Tok::EqEq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(Tok::Minus) {
            let inner = self.unary_expr()?;
            Ok(Expr::Unary { op: UnOp::Neg, expr: Box::new(inner) })
        } else {
            self.postfix_expr()
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut base = self.primary()?;
        loop {
            if *self.peek() == Tok::Dot {
                // attribute / vertex accum / method
                self.bump();
                match self.peek().clone() {
                    Tok::VAcc(name) => {
                        self.bump();
                        let prev = self.eat(Tok::Apostrophe);
                        let var = match &base {
                            Expr::Ident(v) => v.clone(),
                            _ => return self.err("accumulator base must be a variable"),
                        };
                        base = Expr::VAcc { var, name, prev };
                    }
                    Tok::Ident(field) => {
                        self.bump();
                        if *self.peek() == Tok::LParen {
                            self.bump();
                            let mut args = Vec::new();
                            if *self.peek() != Tok::RParen {
                                args = self.expr_list()?;
                            }
                            self.expect(Tok::RParen)?;
                            base = Expr::Method { base: Box::new(base), method: field, args };
                        } else {
                            let b = match &base {
                                Expr::Ident(v) => v.clone(),
                                _ => return self.err("attribute base must be a variable"),
                            };
                            base = Expr::Attr { base: b, field };
                        }
                    }
                    Tok::Kw(k) => {
                        // Columns named like keywords (e.g. `e.year`).
                        let field = k.to_string();
                        self.bump();
                        let b = match &base {
                            Expr::Ident(v) => v.clone(),
                            _ => return self.err("attribute base must be a variable"),
                        };
                        base = Expr::Attr { base: b, field };
                    }
                    other => return self.err(format!("expected field after `.`, found `{other}`")),
                }
            } else {
                break;
            }
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Tok::Double(v) => {
                self.bump();
                Ok(Expr::Double(v))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            Tok::Kw("TRUE") => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Tok::Kw("FALSE") => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Tok::Kw("NULL") => {
                self.bump();
                Ok(Expr::Null)
            }
            Tok::Kw("CASE") => {
                self.bump();
                let mut branches = Vec::new();
                while self.eat_kw("WHEN") {
                    let cond = self.expr()?;
                    self.expect_kw("THEN")?;
                    let val = self.expr()?;
                    branches.push((cond, val));
                }
                if branches.is_empty() {
                    return self.err("CASE requires at least one WHEN branch");
                }
                let default = if self.eat_kw("ELSE") {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                self.expect_kw("END")?;
                Ok(Expr::Case { branches, default })
            }
            Tok::GAcc(name) => {
                self.bump();
                Ok(Expr::GAcc(name))
            }
            Tok::Ident(name) => {
                self.bump();
                if *self.peek() == Tok::LParen {
                    self.bump();
                    if *self.peek() == Tok::Star {
                        self.bump();
                        self.expect(Tok::RParen)?;
                        return Ok(Expr::Call { func: name, args: Vec::new(), star: true });
                    }
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        args = self.expr_list()?;
                    }
                    self.expect(Tok::RParen)?;
                    return Ok(Expr::Call { func: name, args, star: false });
                }
                Ok(Expr::Ident(name))
            }
            Tok::LParen => {
                self.bump();
                let first = self.expr()?;
                match self.peek() {
                    Tok::Arrow => {
                        self.bump();
                        let vals = self.expr_list()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::ArrowTuple { keys: vec![first], vals })
                    }
                    Tok::Comma => {
                        let mut items = vec![first];
                        while self.eat(Tok::Comma) {
                            items.push(self.expr()?);
                        }
                        if self.eat(Tok::Arrow) {
                            let vals = self.expr_list()?;
                            self.expect(Tok::RParen)?;
                            Ok(Expr::ArrowTuple { keys: items, vals })
                        } else {
                            self.expect(Tok::RParen)?;
                            Ok(Expr::Tuple(items))
                        }
                    }
                    _ => {
                        self.expect(Tok::RParen)?;
                        Ok(first)
                    }
                }
            }
            other => self.err(format!("unexpected token `{other}` in expression")),
        }
    }
}

/// Maps a semantics name (as used by `USE SEMANTICS '...'`) to the enum.
pub fn parse_semantics(name: &str) -> Option<crate::semantics::PathSemantics> {
    use crate::semantics::PathSemantics as P;
    Some(match name.to_ascii_lowercase().as_str() {
        "all_shortest_paths" | "asp" | "shortest" => P::AllShortestPaths,
        "all_shortest_paths_enumerate" | "asp_enumerate" => P::AllShortestPathsEnumerate,
        "non_repeated_edge" | "nre" | "cypher" => P::NonRepeatedEdge,
        "non_repeated_vertex" | "nrv" | "gremlin" => P::NonRepeatedVertex,
        "shortest_one" | "boolean" | "sparql" => P::ShortestOne,
        _ => return None,
    })
}

fn key_index(keys: &mut Vec<Expr>, e: Expr) -> usize {
    if let Some(i) = keys.iter().position(|k| *k == e) {
        i
    } else {
        keys.push(e);
        keys.len() - 1
    }
}

fn print_label(e: &Expr) -> String {
    match e {
        Expr::Ident(s) => s.clone(),
        Expr::Attr { base, field } => format!("{base}.{field}"),
        Expr::VAcc { var, name, prev } => {
            format!("{var}.@{name}{}", if *prev { "'" } else { "" })
        }
        Expr::GAcc(name) => format!("@@{name}"),
        Expr::Call { func, .. } => func.clone(),
        Expr::Method { base, method, .. } => format!("{}.{method}()", print_label(base)),
        _ => "expr".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_mode_prefixes() {
        let src = "CREATE QUERY Q () { PRINT 1; }";
        let (mode, q) = parse_query_with_mode(src).unwrap();
        assert_eq!(mode, QueryMode::Run);
        assert_eq!(q.name, "Q");
        let (mode, q) = parse_query_with_mode(&format!("EXPLAIN {src}")).unwrap();
        assert_eq!(mode, QueryMode::Explain);
        assert_eq!(q.name, "Q");
        let (mode, q) = parse_query_with_mode(&format!("profile {src}")).unwrap();
        assert_eq!(mode, QueryMode::Profile);
        assert_eq!(q.name, "Q");
        // The strict entry point does not accept the prefix.
        assert!(parse_query(&format!("EXPLAIN {src}")).is_err());
    }

    #[test]
    fn parses_mutation_statements() {
        let q = parse_query(
            r#"CREATE QUERY M () {
  INSERT VERTEX Person (name, age) VALUES ("ada", 36);
  INSERT VERTEX Person VALUES ("bob", 2);
  INSERT EDGE Knows FROM 0 TO 1 (since) VALUES (2024);
  INSERT EDGE Knows FROM 1 TO 0;
  UPDATE Person:p SET p.age = p.age + 1, p.name = "eve" WHERE p.age > 30;
  DELETE FROM Person:p WHERE p.age > 100;
  DELETE FROM Person;
}"#,
        )
        .unwrap();
        assert_eq!(q.body.len(), 7);
        match &q.body[0] {
            Stmt::InsertVertex { vtype, columns, values, .. } => {
                assert_eq!(vtype, "Person");
                assert_eq!(columns, &["name".to_string(), "age".to_string()]);
                assert_eq!(values.len(), 2);
            }
            other => panic!("expected InsertVertex, got {other:?}"),
        }
        match &q.body[1] {
            Stmt::InsertVertex { columns, values, .. } => {
                assert!(columns.is_empty(), "positional insert has no column list");
                assert_eq!(values.len(), 2);
            }
            other => panic!("expected InsertVertex, got {other:?}"),
        }
        match &q.body[3] {
            Stmt::InsertEdge { etype, columns, values, .. } => {
                assert_eq!(etype, "Knows");
                assert!(columns.is_empty() && values.is_empty(), "attr-less edge insert");
            }
            other => panic!("expected InsertEdge, got {other:?}"),
        }
        match &q.body[4] {
            Stmt::Update { target, sets, where_clause, .. } => {
                assert_eq!(target.name, "Person");
                assert_eq!(target.var.as_deref(), Some("p"));
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[1].1, "name");
                assert!(where_clause.is_some());
            }
            other => panic!("expected Update, got {other:?}"),
        }
        match (&q.body[5], &q.body[6]) {
            (
                Stmt::Delete { where_clause: Some(_), .. },
                Stmt::Delete { target, where_clause: None, .. },
            ) => assert_eq!(target.name, "Person"),
            other => panic!("expected two Deletes, got {other:?}"),
        }
    }

    #[test]
    fn mutation_parse_errors_are_errors_not_panics() {
        for src in [
            "CREATE QUERY M () { INSERT Person VALUES (1); }",
            "CREATE QUERY M () { INSERT VERTEX Person (name VALUES (1); }",
            "CREATE QUERY M () { INSERT EDGE Knows FROM 0; }",
            "CREATE QUERY M () { UPDATE Person:p SET WHERE true; }",
            "CREATE QUERY M () { UPDATE Person:p SET p.age += 1; }",
            "CREATE QUERY M () { DELETE Person; }",
            "CREATE QUERY M () { DELETE FROM; }",
        ] {
            assert!(parse_query(src).is_err(), "`{src}` must be a parse error");
        }
    }

    #[test]
    fn explain_profile_are_not_reserved_words() {
        // The mode prefixes must not steal `Profile`/`Explain` as
        // identifiers — LDBC IS1 selects INTO a table named Profile.
        let q = parse_query(
            "CREATE QUERY Q () { R = SELECT p.name AS name INTO Profile FROM Person:p; \
             T = SELECT e.name AS name INTO Plans FROM Explain:e; }",
        )
        .unwrap();
        let frag = |s: &Stmt| match s {
            Stmt::VSetAssign { source: VSetSource::Select(b), .. } => {
                b.outputs[0].into.clone().unwrap()
            }
            other => panic!("unexpected stmt {other:?}"),
        };
        assert_eq!(frag(&q.body[0]), "Profile");
        assert_eq!(frag(&q.body[1]), "Plans");
        // And the prefix still composes with such queries.
        let (mode, q2) = parse_query_with_mode(
            "PROFILE CREATE QUERY Q () { R = SELECT p.name AS n INTO Profile FROM Person:p; }",
        )
        .unwrap();
        assert_eq!(mode, QueryMode::Profile);
        assert_eq!(q2.name, "Q");
    }

    #[test]
    fn parses_pagerank_figure4() {
        let q = parse_query(
            r#"
            CREATE QUERY PageRank (float maxChange, int maxIteration, float dampingFactor) {
              MaxAccum<float> @@maxDifference = 9999999.0;
              SumAccum<float> @received_score;
              SumAccum<float> @score = 1;
              AllV = {Page.*};
              WHILE @@maxDifference > maxChange LIMIT maxIteration DO
                 @@maxDifference = 0;
                 S = SELECT v
                     FROM AllV:v -(LinkTo>)- Page:n
                     ACCUM n.@received_score += v.@score/v.outdegree()
                     POST-ACCUM v.@score = 1-dampingFactor + dampingFactor * v.@received_score,
                                v.@received_score = 0,
                                @@maxDifference += abs(v.@score - v.@score');
              END;
            }
            "#,
        )
        .unwrap();
        assert_eq!(q.name, "PageRank");
        assert_eq!(q.params.len(), 3);
        assert_eq!(q.body.len(), 5);
        match &q.body[4] {
            Stmt::While { limit: Some(_), body, id: 0, .. } => {
                assert_eq!(body.len(), 2);
                match &body[1] {
                    Stmt::VSetAssign { name, source: VSetSource::Select(b), .. } => {
                        assert_eq!(name, "S");
                        assert_eq!(b.id, 0);
                        assert_eq!(b.accum.len(), 1);
                        assert_eq!(b.post_accum.len(), 3);
                        // v.@score' parsed as prev-snapshot read.
                        match &b.post_accum[2] {
                            AccStmt::GAcc { name, combine: true, expr } => {
                                assert_eq!(name, "maxDifference");
                                let mut saw_prev = false;
                                expr.walk(&mut |e| {
                                    if let Expr::VAcc { prev: true, .. } = e {
                                        saw_prev = true;
                                    }
                                });
                                assert!(saw_prev);
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_topk_toys_figure3() {
        let q = parse_query(
            r#"
            CREATE QUERY TopKToys (vertex<Customer> c, int k) FOR GRAPH SalesGraph {
               SumAccum<float> @lc, @inCommon, @rank;
               SELECT DISTINCT o INTO OthersWithCommonLikes
               FROM   Customer:c -(Likes>)- Product:t -(<Likes)- Customer:o
               WHERE  o <> c and t.category = 'Toys'
               ACCUM  o.@inCommon += 1
               POST_ACCUM o.@lc = log(1 + o.@inCommon);

               SELECT t.name, t.@rank AS rank INTO Recommended
               FROM   OthersWithCommonLikes:o -(Likes>)- Product:t
               WHERE  t.category = 'Toy' and c <> o
               ACCUM  t.@rank += o.@lc
               ORDER BY t.@rank DESC
               LIMIT  k;

               RETURN Recommended;
            }
            "#,
        )
        .unwrap();
        assert_eq!(q.params[0].ty, ParamType::Vertex(Some("Customer".into())));
        match &q.body[1] {
            Stmt::Select(b) => {
                assert!(b.outputs[0].distinct);
                assert_eq!(b.outputs[0].into.as_deref(), Some("OthersWithCommonLikes"));
                match &b.from[0] {
                    FromItem::Pattern { hops, .. } => {
                        assert_eq!(hops.len(), 2);
                        assert_eq!(hops[0].darpe.to_string(), "Likes>");
                        assert_eq!(hops[1].darpe.to_string(), "<Likes");
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        match &q.body[2] {
            Stmt::Select(b) => {
                assert_eq!(b.order_by.len(), 1);
                assert!(b.order_by[0].desc);
                assert!(b.limit.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_multi_output_select() {
        let q = parse_query(
            r#"
            CREATE QUERY MultiOut () {
              SELECT c.name, c.@revenuePerCust INTO PerCust;
                     t.name, t.@revenuePerToy INTO PerToy;
                     @@totalRevenue AS rev INTO Total
              FROM  Customer:c -(Bought>)- Product:t;
            }
            "#,
        )
        .unwrap();
        match &q.body[0] {
            Stmt::Select(b) => {
                assert_eq!(b.outputs.len(), 3);
                assert_eq!(b.outputs[2].into.as_deref(), Some("Total"));
                assert_eq!(b.outputs[2].items[0].alias.as_deref(), Some("rev"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_qn_query() {
        let q = parse_query(
            r#"
            CREATE QUERY Qn(string srcName, string tgtName) {
              SumAccum<int> @pathCount;
              R = SELECT t
                  FROM V:s -(E>*)- V:t
                  WHERE s.name == srcName AND t.name == tgtName
                  ACCUM t.@pathCount += 1;
              PRINT R[R.name, R.@pathCount];
            }
            "#,
        )
        .unwrap();
        match &q.body[1] {
            Stmt::VSetAssign { source: VSetSource::Select(b), .. } => match &b.from[0] {
                FromItem::Pattern { hops, .. } => {
                    assert_eq!(hops[0].darpe.to_string(), "E>*");
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        match &q.body[2] {
            Stmt::Print(items) => match &items[0] {
                PrintItem::VSetProjection { set, items } => {
                    assert_eq!(set, "R");
                    assert_eq!(items.len(), 2);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_heap_and_groupby_accums() {
        let q = parse_query(
            r#"
            CREATE QUERY Agg () {
              TYPEDEF TUPLE<INT len, STRING name> Rec;
              HeapAccum<Rec>(20, len DESC, name ASC) @@top;
              GroupByAccum<string city, string gender, AvgAccum avgLen> @@stats;
              MapAccum<string, SumAccum<float>> @@byKey;
              SELECT x FROM V:x ACCUM @@top += (x.len, x.name),
                     @@stats += (x.city, x.gender -> x.len),
                     @@byKey += (x.city -> 1.0);
            }
            "#,
        )
        .unwrap();
        match &q.body[1] {
            Stmt::AccumDecl { ty: AccumType::Heap(spec), .. } => {
                assert_eq!(spec.capacity(), 20);
                assert_eq!(spec.arity(), 2);
                let fields = spec.fields();
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].index, 0);
                assert_eq!(fields[1].index, 1);
            }
            other => panic!("{other:?}"),
        }
        match &q.body[2] {
            Stmt::AccumDecl { ty: AccumType::GroupBy { key_arity, nested }, .. } => {
                assert_eq!(*key_arity, 2);
                assert_eq!(nested.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_grouping_sets() {
        let q = parse_query(
            r#"
            CREATE QUERY G () {
              SELECT e.a, e.b, count(*) INTO T
              FROM Emp:e
              GROUP BY GROUPING SETS ((e.a, e.b), (e.b), ());
            }
            "#,
        )
        .unwrap();
        match &q.body[0] {
            Stmt::Select(b) => {
                let g = b.group_by.as_ref().unwrap();
                assert_eq!(g.keys.len(), 2);
                assert_eq!(g.sets, vec![vec![0, 1], vec![1], vec![]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cube_and_rollup_expand() {
        let q = parse_query(
            "CREATE QUERY C () { SELECT count(*) INTO T FROM E:e GROUP BY CUBE (e.a, e.b); }",
        )
        .unwrap();
        match &q.body[0] {
            Stmt::Select(b) => assert_eq!(b.group_by.as_ref().unwrap().sets.len(), 4),
            other => panic!("{other:?}"),
        }
        let q = parse_query(
            "CREATE QUERY R () { SELECT count(*) INTO T FROM E:e GROUP BY ROLLUP (e.a, e.b, e.c); }",
        )
        .unwrap();
        match &q.body[0] {
            Stmt::Select(b) => {
                let g = b.group_by.as_ref().unwrap();
                assert_eq!(g.sets, vec![vec![0, 1, 2], vec![0, 1], vec![0], vec![]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_table_join_with_pattern() {
        let q = parse_query(
            r#"
            CREATE QUERY Ex1 () {
              SELECT e.email, e.name, count(*) AS cnt INTO Result
              FROM Employee:e, LinkedIn:(Person:p -(Connected:c)- Person:outsider)
              WHERE e.name == p.name AND c.since >= 2016
              GROUP BY e.email, e.name
              ORDER BY count(*) DESC;
            }
            "#,
        )
        .unwrap();
        match &q.body[0] {
            Stmt::Select(b) => {
                assert_eq!(b.from.len(), 2);
                assert!(matches!(&b.from[0], FromItem::Table { name, alias } if name == "Employee" && alias == "e"));
                match &b.from[1] {
                    FromItem::Pattern { graph: Some(g), hops, .. } => {
                        assert_eq!(g, "LinkedIn");
                        assert_eq!(hops[0].edge_var.as_deref(), Some("c"));
                        assert_eq!(hops[0].darpe.to_string(), "Connected");
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 < 10 AND NOT false OR x.y == 'z'").unwrap();
        // Top node should be OR.
        assert!(matches!(e, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn arrow_tuples() {
        let e = parse_expr("(a, b -> c, d)").unwrap();
        match e {
            Expr::ArrowTuple { keys, vals } => {
                assert_eq!(keys.len(), 2);
                assert_eq!(vals.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        let e = parse_expr("(a, b, c)").unwrap();
        assert!(matches!(e, Expr::Tuple(v) if v.len() == 3));
    }

    #[test]
    fn errors_are_positioned() {
        let err = parse_query("CREATE QUERY x() { SELECT FROM V:v; }").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }), "{err}");
    }

    #[test]
    fn if_and_foreach() {
        let q = parse_query(
            r#"
            CREATE QUERY F (int n) {
              SumAccum<int> @@total;
              IF n > 0 THEN @@total += n; ELSE @@total += 0 - n; END;
              FOREACH x IN @@items DO @@total += x; END;
            }
            "#,
        );
        // `@@total += n;` is a GAccAssign statement.
        let q = q.unwrap();
        assert!(matches!(&q.body[1], Stmt::If { .. }));
        assert!(matches!(&q.body[2], Stmt::Foreach { .. }));
    }
}

#[cfg(test)]
mod error_tests {
    use super::parse_query;

    /// Malformed inputs must produce positioned parse errors, never panics.
    #[test]
    fn malformed_queries_error_cleanly() {
        let cases = [
            "",                                                     // empty
            "CREATE QUERY {",                                       // missing name
            "CREATE QUERY x {}",                                    // missing params
            "CREATE QUERY x() { SELECT }",                          // bare select
            "CREATE QUERY x() { SELECT v FROM ; }",                 // empty from
            "CREATE QUERY x() { SELECT v FROM V:v WHERE ; }",       // empty where
            "CREATE QUERY x() { SELECT v FROM V:v -(- V:t; }",      // broken hop
            "CREATE QUERY x() { SELECT v FROM V:v -()- V:t; }",     // empty darpe
            "CREATE QUERY x() { WHILE DO END; }",                   // empty cond
            "CREATE QUERY x() { IF THEN END; }",                    // empty cond
            "CREATE QUERY x() { SumAccum<float> ; }",               // no names
            "CREATE QUERY x() { SumAccum<float> @a = ; }",          // no init expr
            "CREATE QUERY x() { TYPEDEF TUPLE<> T; }",              // empty tuple
            "CREATE QUERY x() { PRINT ; }",                         // empty print
            "CREATE QUERY x() { RETURN ; }",                        // empty return
            "CREATE QUERY x() { S = ; }",                           // empty assign
            "CREATE QUERY x() { USE SEMANTICS; }",                  // missing name
            "CREATE QUERY x(vertex<> v) {}",                        // empty type param
            "CREATE QUERY x() { SELECT v FROM V:v GROUP BY ; }",    // empty group
            "CREATE QUERY x() { SELECT v FROM V:v ORDER BY ; }",    // empty order
            "CREATE QUERY x() }",                                   // stray brace
            "CREATE QUERY x() { } trailing",                        // trailing tokens
        ];
        for src in cases {
            let r = parse_query(src);
            assert!(r.is_err(), "expected parse error for `{src}`, got {r:?}");
        }
    }

    /// Keywords are usable as identifiers where unambiguous.
    #[test]
    fn keywords_as_identifiers_in_safe_positions() {
        parse_query("CREATE QUERY x() { SELECT v.name AS count INTO Total FROM V:v; }")
            .unwrap();
    }
}
