//! The extensible technique registry: resolves [`TechniqueSpec`]s to
//! boxed [`ReorderingTechnique`] instances.

use std::collections::BTreeMap;
use std::fmt;

use lgr_core::{
    Dbg, Gorder, HubCluster, HubClusterOriginal, HubSort, HubSortOriginal, Identity, Pipeline,
    RandomCacheBlock, RandomVertex, ReorderingTechnique, Sort,
};

use crate::spec::{parse_spec, SpecError, TechniqueAtom, TechniqueSpec, BUILTIN_TECHNIQUES};

/// Constructor for a custom technique: receives the raw `:`-separated
/// parameter tokens from the spec string.
pub type TechniqueBuilder =
    Box<dyn Fn(&[String]) -> Result<Box<dyn ReorderingTechnique>, SpecError> + Send + Sync>;

struct CustomEntry {
    summary: String,
    build: TechniqueBuilder,
}

/// Maps technique names to constructors.
///
/// The built-in names ([`BUILTIN_TECHNIQUES`]) are always available;
/// [`TechniqueRegistry::register`] opens the set to user-defined
/// techniques, which then parse, build, compose, and report exactly
/// like the built-ins — the paper's observation that every skew-aware
/// reordering is one parameterized algorithm, made extensible.
///
/// # Example
///
/// ```
/// use lgr_engine::TechniqueRegistry;
/// use lgr_core::{Identity, ReorderingTechnique};
///
/// let mut reg = TechniqueRegistry::new();
/// reg.register("noop", "demo technique", |_args| Ok(Box::new(Identity)));
/// let spec = reg.parse("noop+dbg").unwrap();
/// let tech = reg.build(&spec).unwrap();
/// assert_eq!(spec.label(), "noop+DBG");
/// drop(tech);
/// ```
#[derive(Default)]
pub struct TechniqueRegistry {
    custom: BTreeMap<String, CustomEntry>,
}

impl fmt::Debug for TechniqueRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TechniqueRegistry")
            .field("custom", &self.custom.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl TechniqueRegistry {
    /// A registry holding only the built-in techniques.
    pub fn new() -> Self {
        TechniqueRegistry::default()
    }

    /// Registers a custom technique under `name` (lowercased). The
    /// builder receives the raw parameter tokens of the spec atom.
    ///
    /// # Panics
    ///
    /// Panics if `name` collides with a built-in technique name.
    pub fn register<F>(&mut self, name: &str, summary: &str, build: F)
    where
        F: Fn(&[String]) -> Result<Box<dyn ReorderingTechnique>, SpecError> + Send + Sync + 'static,
    {
        let name = name.to_ascii_lowercase();
        assert!(
            !BUILTIN_TECHNIQUES.contains(&name.as_str()),
            "`{name}` is a built-in technique"
        );
        self.custom.insert(
            name,
            CustomEntry {
                summary: summary.to_owned(),
                build: Box::new(build),
            },
        );
    }

    /// Every addressable name: built-ins first, then custom entries.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = BUILTIN_TECHNIQUES.iter().map(|s| s.to_string()).collect();
        v.extend(self.custom.keys().cloned());
        v
    }

    /// One-line description of a custom entry, if registered.
    pub fn summary(&self, name: &str) -> Option<&str> {
        self.custom.get(name).map(|e| e.summary.as_str())
    }

    /// Parses a spec string, accepting this registry's custom names in
    /// addition to the built-ins.
    pub fn parse(&self, s: &str) -> Result<TechniqueSpec, SpecError> {
        let names: Vec<&str> = self.custom.keys().map(String::as_str).collect();
        parse_spec(s, &names)
    }

    /// Constructs the technique a spec describes. Multi-atom specs
    /// become a [`Pipeline`] composing the stages by permutation
    /// composition.
    pub fn build(&self, spec: &TechniqueSpec) -> Result<Box<dyn ReorderingTechnique>, SpecError> {
        let mut stages = spec
            .atoms()
            .iter()
            .map(|a| self.build_atom(a))
            .collect::<Result<Vec<_>, _>>()?;
        if stages.len() == 1 {
            Ok(stages.pop().expect("specs are non-empty"))
        } else {
            Ok(Box::new(Pipeline::new(stages)))
        }
    }

    fn build_atom(&self, atom: &TechniqueAtom) -> Result<Box<dyn ReorderingTechnique>, SpecError> {
        Ok(match atom {
            TechniqueAtom::Original => Box::new(Identity),
            TechniqueAtom::Sort => Box::new(Sort::new()),
            TechniqueAtom::HubSort => Box::new(HubSort::new()),
            TechniqueAtom::HubCluster => Box::new(HubCluster::new()),
            TechniqueAtom::HubSortO => Box::new(HubSortOriginal::new()),
            TechniqueAtom::HubClusterO => Box::new(HubClusterOriginal::new()),
            TechniqueAtom::Gorder => Box::new(Gorder::new()),
            TechniqueAtom::Dbg { hot_groups } => Box::new(Dbg::with_hot_groups(*hot_groups)),
            TechniqueAtom::RandomVertex { seed } => Box::new(RandomVertex::new(*seed)),
            TechniqueAtom::RandomCacheBlock { blocks, seed } => {
                Box::new(RandomCacheBlock::new(*blocks as usize, *seed))
            }
            TechniqueAtom::Custom { name, args } => {
                let entry = self
                    .custom
                    .get(name)
                    .ok_or_else(|| SpecError::UnknownTechnique {
                        token: name.clone(),
                        valid: self.names(),
                    })?;
                (entry.build)(args)?
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::gen::{community, CommunityConfig};
    use lgr_graph::{Csr, DegreeKind};

    #[test]
    fn builds_every_builtin() {
        let reg = TechniqueRegistry::new();
        let g = Csr::from_edge_list(&community(CommunityConfig::new(256, 4.0).with_seed(3)));
        for name in BUILTIN_TECHNIQUES {
            let s = if name == "rcb" {
                "rcb:2".to_owned()
            } else {
                name.to_owned()
            };
            let spec = reg.parse(&s).unwrap();
            let tech = reg.build(&spec).unwrap();
            let p = tech.reorder(&g, DegreeKind::Out);
            assert_eq!(p.len(), g.num_vertices(), "{name}");
        }
    }

    #[test]
    fn pipeline_build_matches_manual_layering() {
        let reg = TechniqueRegistry::new();
        let g = Csr::from_edge_list(&community(CommunityConfig::new(512, 6.0).with_seed(4)));
        let spec = reg.parse("gorder+dbg").unwrap();
        let combo = reg.build(&spec).unwrap().reorder(&g, DegreeKind::Out);
        let p1 = Gorder::new().reorder(&g, DegreeKind::Out);
        let p2 = Dbg::default().reorder(&g.apply_permutation(&p1), DegreeKind::Out);
        assert_eq!(combo, p1.then(&p2));
    }

    #[test]
    fn custom_registration_extends_parsing_and_building() {
        let mut reg = TechniqueRegistry::new();
        reg.register("rev", "reverse vertex order", |_args| {
            #[derive(Debug)]
            struct Rev;
            impl ReorderingTechnique for Rev {
                fn reorder_with(
                    &self,
                    graph: &Csr,
                    _kind: DegreeKind,
                    _pool: &lgr_parallel::Pool,
                ) -> lgr_graph::Permutation {
                    let n = graph.num_vertices() as u32;
                    lgr_graph::Permutation::from_new_ids((0..n).rev().collect())
                        .expect("reversal is a bijection")
                }
            }
            Ok(Box::new(Rev))
        });
        assert!(reg.names().contains(&"rev".to_owned()));
        assert_eq!(reg.summary("rev"), Some("reverse vertex order"));
        let spec = reg.parse("rev").unwrap();
        assert_eq!(spec.to_string(), "rev");
        let g = Csr::from_edge_list(&community(CommunityConfig::new(64, 3.0).with_seed(1)));
        let p = reg.build(&spec).unwrap().reorder(&g, DegreeKind::Out);
        assert_eq!(p.new_id(0), 63);
        // Unregistered names still fail with the full valid list.
        match reg.parse("nope") {
            Err(SpecError::UnknownTechnique { token, valid }) => {
                assert_eq!(token, "nope");
                assert!(valid.contains(&"rev".to_owned()));
            }
            other => panic!("expected UnknownTechnique, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "built-in")]
    fn registering_over_a_builtin_panics() {
        let mut reg = TechniqueRegistry::new();
        reg.register("dbg", "clash", |_| Ok(Box::new(Identity)));
    }
}
