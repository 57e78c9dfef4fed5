//! GRIN→fragment loading: projects any [`GrinGraph`] into edge-cut
//! [`Fragment`]s so every GRAPE programming model runs over every storage
//! backend (paper §4: GRIN decouples *all* engines from storage, not just
//! the query side).
//!
//! The loader is capability-aware. Vertex domains come from
//! [`GrinGraph::vertex_range`] when the backend advertises
//! [`Capabilities::VERTEX_LIST_ARRAY`] and from the vertex iterator
//! otherwise; adjacency comes from [`GrinGraph::scan_adjacency`], which
//! backends with [`Capabilities::ADJ_LIST_ARRAY`] (or an equivalent pooled
//! scan) serve in bulk and everything else serves through the iterator
//! fallback. Telemetry counters record which path fed the load.

use crate::engine::GrapeEngine;
use crate::fragment::{Fragment, Shares};
use gs_grin::{Capabilities, Direction, GraphError, GrinGraph, LabelId, Result, VId};
use gs_telemetry::{counter, span};

/// The GRIN capabilities GRAPE needs from a store: iterator-based vertex
/// and adjacency access. Array-like access is exploited when advertised but
/// never required — the loader falls back to iterators (mirrors
/// `gs_gaia::REQUIRED_CAPABILITIES`).
pub const REQUIRED_CAPABILITIES: Capabilities =
    Capabilities::VERTEX_LIST_ITER.union(Capabilities::ADJ_LIST_ITER);

/// What to project out of a GRIN store when building fragments.
#[derive(Clone, Debug, Default)]
pub struct GrinProjection {
    /// Vertex labels to include (`None` = every label in the schema).
    pub vertex_labels: Option<Vec<LabelId>>,
    /// Edge labels to include (`None` = every edge label whose endpoints
    /// are both selected). Explicitly listing a label whose endpoint labels
    /// are not selected is a schema error.
    pub edge_labels: Option<Vec<LabelId>>,
    /// Edge property to load as `f64` weights. Edges of labels lacking the
    /// property (or holding non-numeric values) get weight `1.0`.
    pub weight_property: Option<String>,
    /// Also insert the reverse of every edge (undirected analytics such as
    /// WCC over a directed store).
    pub symmetrize: bool,
    /// Topology layout the fragments materialise
    /// ([`gs_graph::LayoutKind::Csr`] by default). Algorithm results are
    /// identical across layouts; only speed/footprint trade-offs change.
    pub layout: gs_graph::LayoutKind,
}

impl GrinProjection {
    /// Everything: all labels, unweighted, directed.
    pub fn all() -> Self {
        Self::default()
    }

    /// All labels with `prop` loaded as edge weights.
    pub fn weighted(prop: &str) -> Self {
        Self {
            weight_property: Some(prop.to_string()),
            ..Self::default()
        }
    }

    /// Returns the projection with [`GrinProjection::symmetrize`] set.
    pub fn symmetrized(mut self) -> Self {
        self.symmetrize = true;
        self
    }

    /// Returns the projection with the fragment topology layout set.
    pub fn with_layout(mut self, layout: gs_graph::LayoutKind) -> Self {
        self.layout = layout;
        self
    }
}

/// The flat global vertex-id space a projection produced: each selected
/// vertex label occupies a contiguous block of ids (`base..base + domain`).
/// Fragments and algorithm results are indexed by these flattened ids.
#[derive(Clone, Debug, Default)]
pub struct VertexSpace {
    /// `(label, base, domain)` per selected label, in selection order.
    entries: Vec<(LabelId, u64, u64)>,
}

impl VertexSpace {
    /// Total size of the flattened id space.
    pub fn total(&self) -> usize {
        self.entries.iter().map(|&(_, _, d)| d as usize).sum()
    }

    /// Base offset of a selected label.
    pub fn base(&self, label: LabelId) -> Option<u64> {
        self.entries
            .iter()
            .find(|&&(l, _, _)| l == label)
            .map(|&(_, b, _)| b)
    }

    /// Flattened global id of a label-internal vertex id.
    pub fn global_of(&self, label: LabelId, v: VId) -> Option<VId> {
        let &(_, base, domain) = self.entries.iter().find(|&&(l, _, _)| l == label)?;
        (v.0 < domain).then_some(VId(base + v.0))
    }

    /// Reverses [`VertexSpace::global_of`]: which label and internal id a
    /// flattened global id denotes.
    pub fn label_of(&self, g: VId) -> Option<(LabelId, VId)> {
        for &(l, base, domain) in &self.entries {
            if g.0 >= base && g.0 < base + domain {
                return Some((l, VId(g.0 - base)));
            }
        }
        None
    }

    /// The selected labels with their id blocks.
    pub fn entries(&self) -> &[(LabelId, u64, u64)] {
        &self.entries
    }
}

/// Projects a GRIN store into `fragments` edge-cut fragments.
///
/// Validates [`REQUIRED_CAPABILITIES`] first (structured
/// [`GraphError::UnsupportedCapability`] on failure, like the query
/// engines), then flattens the selected vertex labels into one id space,
/// routes every selected edge to its source owner's share during the
/// adjacency scan, and builds the fragments from those shares (the same
/// build [`Fragment::partition_weighted`] uses).
pub fn load_fragments(
    graph: &dyn GrinGraph,
    proj: &GrinProjection,
    fragments: usize,
) -> Result<(Vec<Fragment>, VertexSpace)> {
    graph.capabilities().require(REQUIRED_CAPABILITIES)?;
    let _load = span!("grape.load");
    let schema = graph.schema();
    let caps = graph.capabilities();

    // 1. vertex space: one contiguous id block per selected label
    let vlabels: Vec<LabelId> = match &proj.vertex_labels {
        Some(ls) => ls.clone(),
        None => schema.vertex_labels().iter().map(|d| d.id).collect(),
    };
    let mut space = VertexSpace::default();
    let mut base = 0u64;
    for &vl in &vlabels {
        if space.base(vl).is_some() {
            return Err(GraphError::Schema(format!(
                "vertex label {vl:?} selected twice"
            )));
        }
        let domain = match graph.vertex_range(vl) {
            Some(r) if caps.supports(Capabilities::VERTEX_LIST_ARRAY) => {
                counter!("grape.load.vertex_scans", path = "array");
                r.end
            }
            _ => {
                counter!("grape.load.vertex_scans", path = "iter");
                graph.vertices(vl).map(|v| v.0 + 1).max().unwrap_or(0)
            }
        };
        space.entries.push((vl, base, domain));
        base += domain;
    }

    // 2. edge labels: explicit selection must have selected endpoints;
    //    auto-discovery silently keeps only fully-selected labels
    let elabels: Vec<LabelId> = match &proj.edge_labels {
        Some(ls) => {
            for &el in ls {
                let def = schema.edge_label(el)?;
                if space.base(def.src).is_none() || space.base(def.dst).is_none() {
                    return Err(GraphError::Schema(format!(
                        "edge label {} selected but an endpoint label is not",
                        def.name
                    )));
                }
            }
            ls.clone()
        }
        None => schema
            .edge_labels()
            .iter()
            .filter(|d| space.base(d.src).is_some() && space.base(d.dst).is_some())
            .map(|d| d.id)
            .collect(),
    };

    // 3. scan each edge label's adjacency, routing every edge (and its
    //    reverse, when symmetrizing) straight into its source owner's share
    let copies = if proj.symmetrize { 2 } else { 1 };
    let expected: usize = elabels
        .iter()
        .map(|&el| graph.edge_count(el))
        .sum::<usize>()
        * copies;
    // hash routing splits edges near evenly; the slack absorbs the skew
    let mut shares = Shares::new(fragments, proj.weight_property.is_some(), |_| {
        expected.div_ceil(fragments) + expected / (8 * fragments)
    });
    let mut loaded = 0usize;
    for &el in &elabels {
        let def = schema.edge_label(el)?;
        let sbase = space.base(def.src).expect("validated");
        let dbase = space.base(def.dst).expect("validated");
        let wprop = proj
            .weight_property
            .as_ref()
            .and_then(|name| schema.edge_property(el, name).map(|p| p.id));
        let bulk = graph.scan_adjacency(def.src, el, Direction::Out, &mut |v, nbrs, eids| {
            let s = VId(sbase + v.0);
            for (i, &nbr) in nbrs.iter().enumerate() {
                let d = VId(dbase + nbr.0);
                let w = wprop
                    .and_then(|p| graph.edge_property(el, eids[i], p).as_float())
                    .unwrap_or(1.0);
                shares.push((s, d), w);
                if proj.symmetrize {
                    shares.push((d, s), w);
                }
            }
            loaded += nbrs.len() * copies;
        });
        counter!(
            "grape.load.adjacency_scans",
            path = if bulk { "bulk" } else { "iter" }
        );
    }
    counter!("grape.load.edges"; loaded as u64);

    // 4. parallel (work-stealing) fragment construction
    let frags = Fragment::build_all(space.total(), shares, proj.layout);
    if gs_telemetry::enabled() {
        for f in &frags {
            counter!("grape.load.fragment_edges", frag = f.id.index(); f.edge_count() as u64);
        }
    }
    Ok((frags, space))
}

impl GrapeEngine {
    /// Builds an engine over any GRIN store — the storage-agnostic
    /// counterpart of [`GrapeEngine::from_edges`]. Returns the engine and
    /// the [`VertexSpace`] mapping algorithm outputs (indexed by flattened
    /// global id) back to `(label, internal id)`.
    pub fn from_grin(
        graph: &dyn GrinGraph,
        proj: &GrinProjection,
        fragments: usize,
    ) -> Result<(Self, VertexSpace)> {
        let (frags, space) = load_fragments(graph, proj, fragments)?;
        Ok((
            Self {
                fragments: frags,
                recovery: None,
            },
            space,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use gs_grin::graph::mock::MockGraph;

    fn diamond_edges() -> Vec<(u64, u64, f64)> {
        vec![(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)]
    }

    #[test]
    fn capability_check_passes_for_mock() {
        let g = MockGraph::new(4, &diamond_edges());
        assert!(g.capabilities().require(REQUIRED_CAPABILITIES).is_ok());
    }

    #[test]
    fn grin_load_matches_edge_list_load() {
        let triples = diamond_edges();
        let g = MockGraph::new(4, &triples);
        for k in [1, 2, 3] {
            let (engine, space) = GrapeEngine::from_grin(&g, &GrinProjection::all(), k).unwrap();
            assert_eq!(space.total(), 4);
            let pairs: Vec<(VId, VId)> =
                triples.iter().map(|&(s, d, _)| (VId(s), VId(d))).collect();
            let baseline = GrapeEngine::from_edges(4, &pairs, k);
            let pr_grin = algorithms::pagerank(&engine, 0.85, 20);
            let pr_base = algorithms::pagerank(&baseline, 0.85, 20);
            assert_eq!(pr_grin, pr_base, "k={k}");
        }
    }

    #[test]
    fn iterator_only_store_loads_identically() {
        let triples = diamond_edges();
        let fast = MockGraph::new(4, &triples);
        let slow = MockGraph::new_iter_only(4, &triples);
        let (e1, _) = GrapeEngine::from_grin(&fast, &GrinProjection::all(), 2).unwrap();
        let (e2, _) = GrapeEngine::from_grin(&slow, &GrinProjection::all(), 2).unwrap();
        assert_eq!(
            algorithms::pagerank(&e1, 0.85, 15),
            algorithms::pagerank(&e2, 0.85, 15)
        );
    }

    #[test]
    fn weights_come_from_the_named_property() {
        let g = MockGraph::new(3, &[(0, 1, 0.5), (1, 2, 2.5)]);
        let (engine, _) =
            GrapeEngine::from_grin(&g, &GrinProjection::weighted("weight"), 1).unwrap();
        let ws = engine.fragments[0].weights.as_ref().unwrap();
        let mut sorted = ws.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted, vec![0.5, 2.5]);
    }

    #[test]
    fn missing_weight_property_defaults_to_one() {
        let g = MockGraph::new(3, &[(0, 1, 0.5), (1, 2, 2.5)]);
        let (engine, _) =
            GrapeEngine::from_grin(&g, &GrinProjection::weighted("no_such_prop"), 1).unwrap();
        assert_eq!(
            engine.fragments[0].weights.as_ref().unwrap(),
            &vec![1.0, 1.0]
        );
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let g = MockGraph::new(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let (engine, _) =
            GrapeEngine::from_grin(&g, &GrinProjection::all().symmetrized(), 1).unwrap();
        let total: usize = engine.fragments.iter().map(|f| f.edge_count()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn projection_layout_flows_into_fragments() {
        use gs_graph::LayoutKind;
        let g = MockGraph::new(4, &diamond_edges());
        let base = GrapeEngine::from_grin(&g, &GrinProjection::all(), 2)
            .unwrap()
            .0;
        assert_eq!(base.layout(), LayoutKind::Csr);
        for layout in [LayoutKind::SortedCsr, LayoutKind::CompressedCsr] {
            let proj = GrinProjection::all().with_layout(layout);
            let (engine, _) = GrapeEngine::from_grin(&g, &proj, 2).unwrap();
            assert_eq!(engine.layout(), layout);
            assert_eq!(
                algorithms::pagerank(&engine, 0.85, 10),
                algorithms::pagerank(&base, 0.85, 10),
                "layout {layout}"
            );
        }
    }

    #[test]
    fn vertex_space_round_trips() {
        let mut space = VertexSpace::default();
        space.entries.push((LabelId(0), 0, 3));
        space.entries.push((LabelId(2), 3, 5));
        assert_eq!(space.total(), 8);
        assert_eq!(space.global_of(LabelId(2), VId(4)), Some(VId(7)));
        assert_eq!(space.global_of(LabelId(2), VId(5)), None);
        assert_eq!(space.label_of(VId(7)), Some((LabelId(2), VId(4))));
        assert_eq!(space.label_of(VId(2)), Some((LabelId(0), VId(2))));
        assert_eq!(space.label_of(VId(8)), None);
        assert_eq!(space.base(LabelId(1)), None);
    }
}
