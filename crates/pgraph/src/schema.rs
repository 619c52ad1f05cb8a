//! Graph schema: vertex and edge type definitions.
//!
//! TigerGraph's data model (and the upcoming GQL standard's) supports
//! graphs that **mix directed and undirected edges** — the paper's DARPEs
//! exist precisely to direction-adorn such mixed graphs. Each edge type is
//! therefore declared directed or undirected at the schema level.

use crate::fxhash::FxHashMap;
use crate::value::ValueType;
use std::fmt;
use std::sync::Arc;

/// Identifier of a vertex type within a [`Schema`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VTypeId(pub u32);

/// Identifier of an edge type within a [`Schema`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ETypeId(pub u32);

/// A typed attribute declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    pub name: String,
    pub ty: ValueType,
}

impl AttrDef {
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        AttrDef { name: name.into(), ty }
    }
}

/// A vertex type: a name plus its attribute columns. The name is shared,
/// so a query reading a vertex's type gets it without a copy.
#[derive(Debug, Clone)]
pub struct VertexTypeDef {
    pub name: Arc<str>,
    pub attrs: Vec<AttrDef>,
}

/// An edge type: name, directedness, endpoint type constraints (empty =
/// unconstrained) and attribute columns.
#[derive(Debug, Clone)]
pub struct EdgeTypeDef {
    pub name: Arc<str>,
    pub directed: bool,
    /// Allowed source vertex types; empty means any.
    pub from_types: Vec<VTypeId>,
    /// Allowed target vertex types; empty means any.
    pub to_types: Vec<VTypeId>,
    pub attrs: Vec<AttrDef>,
}

/// Schema construction / lookup errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    DuplicateVertexType(String),
    DuplicateEdgeType(String),
    UnknownVertexType(String),
    UnknownEdgeType(String),
    UnknownAttribute { owner: String, attr: String },
    DuplicateAttribute { owner: String, attr: String },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateVertexType(n) => write!(f, "duplicate vertex type `{n}`"),
            SchemaError::DuplicateEdgeType(n) => write!(f, "duplicate edge type `{n}`"),
            SchemaError::UnknownVertexType(n) => write!(f, "unknown vertex type `{n}`"),
            SchemaError::UnknownEdgeType(n) => write!(f, "unknown edge type `{n}`"),
            SchemaError::UnknownAttribute { owner, attr } => {
                write!(f, "type `{owner}` has no attribute `{attr}`")
            }
            SchemaError::DuplicateAttribute { owner, attr } => {
                write!(f, "type `{owner}` declares attribute `{attr}` twice")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// A graph schema: the set of vertex and edge types.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    vertex_types: Vec<VertexTypeDef>,
    edge_types: Vec<EdgeTypeDef>,
    vtype_by_name: FxHashMap<String, VTypeId>,
    etype_by_name: FxHashMap<String, ETypeId>,
    /// Attribute name → [`Schema::attr_positions`], rebuilt whenever a
    /// type is added.
    attr_positions: FxHashMap<String, Arc<[Option<u32>]>>,
}

impl Schema {
    pub fn new() -> Self {
        Schema::default()
    }

    /// Declares a vertex type; attribute names must be unique.
    pub fn add_vertex_type(
        &mut self,
        name: impl Into<String>,
        attrs: Vec<AttrDef>,
    ) -> Result<VTypeId, SchemaError> {
        let name = name.into();
        if self.vtype_by_name.contains_key(&name) {
            return Err(SchemaError::DuplicateVertexType(name));
        }
        check_attrs(&name, &attrs)?;
        let id = VTypeId(self.vertex_types.len() as u32);
        self.vtype_by_name.insert(name.clone(), id);
        self.vertex_types.push(VertexTypeDef { name: name.into(), attrs });
        self.index_attrs();
        Ok(id)
    }

    /// Declares an edge type with unconstrained endpoints.
    pub fn add_edge_type(
        &mut self,
        name: impl Into<String>,
        directed: bool,
        attrs: Vec<AttrDef>,
    ) -> Result<ETypeId, SchemaError> {
        self.add_edge_type_between(name, directed, Vec::new(), Vec::new(), attrs)
    }

    /// Declares an edge type constrained to given endpoint vertex types.
    pub fn add_edge_type_between(
        &mut self,
        name: impl Into<String>,
        directed: bool,
        from_types: Vec<VTypeId>,
        to_types: Vec<VTypeId>,
        attrs: Vec<AttrDef>,
    ) -> Result<ETypeId, SchemaError> {
        let name = name.into();
        if self.etype_by_name.contains_key(&name) {
            return Err(SchemaError::DuplicateEdgeType(name));
        }
        check_attrs(&name, &attrs)?;
        let id = ETypeId(self.edge_types.len() as u32);
        self.etype_by_name.insert(name.clone(), id);
        self.edge_types.push(EdgeTypeDef {
            name: name.into(),
            directed,
            from_types,
            to_types,
            attrs,
        });
        self.index_attrs();
        Ok(id)
    }

    /// Recomputes [`Schema::attr_positions`] for every attribute name.
    fn index_attrs(&mut self) {
        let attrs = |t: usize| match t.checked_sub(self.vertex_types.len()) {
            None => &self.vertex_types[t].attrs,
            Some(e) => &self.edge_types[e].attrs,
        };
        let types = self.vertex_types.len() + self.edge_types.len();
        let mut positions: FxHashMap<String, Vec<Option<u32>>> = FxHashMap::default();
        for t in 0..types {
            for (i, a) in attrs(t).iter().enumerate() {
                positions.entry(a.name.clone()).or_insert_with(|| vec![None; types])[t] =
                    Some(i as u32);
            }
        }
        self.attr_positions = positions.into_iter().map(|(n, p)| (n, p.into())).collect();
    }

    /// Where attribute `attr` sits in each type: one entry per vertex type
    /// (by [`VTypeId`]), then one per edge type (by [`ETypeId`]), `None`
    /// where the type lacks it; `None` overall when no type has it. A
    /// query binds `v.attr` to this table once instead of looking the
    /// name up per row.
    pub fn attr_positions(&self, attr: &str) -> Option<&Arc<[Option<u32>]>> {
        self.attr_positions.get(attr)
    }

    pub fn vertex_type(&self, id: VTypeId) -> &VertexTypeDef {
        &self.vertex_types[id.0 as usize]
    }

    pub fn edge_type(&self, id: ETypeId) -> &EdgeTypeDef {
        &self.edge_types[id.0 as usize]
    }

    pub fn vertex_type_id(&self, name: &str) -> Option<VTypeId> {
        self.vtype_by_name.get(name).copied()
    }

    pub fn edge_type_id(&self, name: &str) -> Option<ETypeId> {
        self.etype_by_name.get(name).copied()
    }

    pub fn vertex_type_count(&self) -> usize {
        self.vertex_types.len()
    }

    pub fn edge_type_count(&self) -> usize {
        self.edge_types.len()
    }

    pub fn vertex_types(&self) -> impl Iterator<Item = (VTypeId, &VertexTypeDef)> {
        self.vertex_types
            .iter()
            .enumerate()
            .map(|(i, d)| (VTypeId(i as u32), d))
    }

    pub fn edge_types(&self) -> impl Iterator<Item = (ETypeId, &EdgeTypeDef)> {
        self.edge_types
            .iter()
            .enumerate()
            .map(|(i, d)| (ETypeId(i as u32), d))
    }

    /// Index of attribute `attr` within vertex type `vt`.
    pub fn vertex_attr_index(&self, vt: VTypeId, attr: &str) -> Option<usize> {
        self.vertex_type(vt).attrs.iter().position(|a| a.name == attr)
    }

    /// Index of attribute `attr` within edge type `et`.
    pub fn edge_attr_index(&self, et: ETypeId, attr: &str) -> Option<usize> {
        self.edge_type(et).attrs.iter().position(|a| a.name == attr)
    }

    /// True iff `et` is declared directed.
    pub fn is_directed(&self, et: ETypeId) -> bool {
        self.edge_type(et).directed
    }
}

fn check_attrs(owner: &str, attrs: &[AttrDef]) -> Result<(), SchemaError> {
    for (i, a) in attrs.iter().enumerate() {
        if attrs[..i].iter().any(|b| b.name == a.name) {
            return Err(SchemaError::DuplicateAttribute {
                owner: owner.to_string(),
                attr: a.name.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut s = Schema::new();
        let person = s
            .add_vertex_type("Person", vec![AttrDef::new("name", ValueType::Str)])
            .unwrap();
        let knows = s.add_edge_type("Knows", false, vec![]).unwrap();
        assert_eq!(s.vertex_type_id("Person"), Some(person));
        assert_eq!(s.edge_type_id("Knows"), Some(knows));
        assert_eq!(&*s.vertex_type(person).name, "Person");
        assert!(!s.is_directed(knows));
        assert_eq!(s.vertex_attr_index(person, "name"), Some(0));
        assert_eq!(s.vertex_attr_index(person, "nope"), None);
    }

    #[test]
    fn duplicate_types_rejected() {
        let mut s = Schema::new();
        s.add_vertex_type("A", vec![]).unwrap();
        assert_eq!(
            s.add_vertex_type("A", vec![]),
            Err(SchemaError::DuplicateVertexType("A".into()))
        );
        s.add_edge_type("E", true, vec![]).unwrap();
        assert!(matches!(
            s.add_edge_type("E", false, vec![]),
            Err(SchemaError::DuplicateEdgeType(_))
        ));
    }

    #[test]
    fn duplicate_attrs_rejected() {
        let mut s = Schema::new();
        let r = s.add_vertex_type(
            "A",
            vec![
                AttrDef::new("x", ValueType::Int),
                AttrDef::new("x", ValueType::Str),
            ],
        );
        assert!(matches!(r, Err(SchemaError::DuplicateAttribute { .. })));
    }

    #[test]
    fn iteration_order_matches_ids() {
        let mut s = Schema::new();
        let a = s.add_vertex_type("A", vec![]).unwrap();
        let b = s.add_vertex_type("B", vec![]).unwrap();
        let ids: Vec<VTypeId> = s.vertex_types().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }
}
