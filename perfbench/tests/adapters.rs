//! The traced run must measure the same program as the plain one: the
//! adapters forward every call, so wrapped and unwrapped stacks return
//! identical rows, capabilities and bulk-scan results.

use std::collections::HashMap;
use std::sync::Arc;

use gs_datagen::apps::fraud_graph;
use gs_gart::GartStore;
use gs_graph::{LayoutKind, Value};
use gs_grin::{Direction, GrinGraph, LabelId, VId};
use gs_hiactor::QueryService;
use gs_lang::Frontend;
use gs_perfbench::adapters::{take_trace, CountingGraph, GrinTally, TimedEngine, TimedStore};
use gs_perfbench::serve::template_text;
use gs_serve::{GartServeStore, Priority, ServeConfig, Server};

type ScanRow = (VId, Vec<VId>, Vec<gs_grin::EId>);

fn scan(g: &dyn GrinGraph, vl: LabelId, el: LabelId, dir: Direction) -> (bool, Vec<ScanRow>) {
    let mut rows = Vec::new();
    let fast = g.scan_adjacency(vl, el, dir, &mut |v, n, e| {
        rows.push((v, n.to_vec(), e.to_vec()))
    });
    (fast, rows)
}

/// Every `GrinGraph` method answers the same through the counting adapter.
fn assert_same_graph(plain: &dyn GrinGraph, wrapped: &dyn GrinGraph) {
    assert_eq!(plain.capabilities(), wrapped.capabilities());
    assert_eq!(plain.topology_layout(), wrapped.topology_layout());
    assert_eq!(
        plain.partition_info().is_none(),
        wrapped.partition_info().is_none()
    );
    let schema = plain.schema();
    assert_eq!(
        schema.vertex_label_count(),
        wrapped.schema().vertex_label_count()
    );
    for vl in 0..schema.vertex_label_count() {
        let vl = LabelId(vl as u16);
        assert_eq!(plain.vertex_count(vl), wrapped.vertex_count(vl));
        assert_eq!(plain.vertex_range(vl), wrapped.vertex_range(vl));
        assert_eq!(
            plain.vertices(vl).collect::<Vec<_>>(),
            wrapped.vertices(vl).collect::<Vec<_>>()
        );
        for ext in [0u64, 1, 7, 99] {
            assert_eq!(plain.internal_id(vl, ext), wrapped.internal_id(vl, ext));
            if let Some(v) = plain.internal_id(vl, ext) {
                assert_eq!(plain.external_id(vl, v), wrapped.external_id(vl, v));
                assert_eq!(
                    format!("{:?}", plain.vertex_property(vl, v, gs_graph::PropId(0))),
                    format!("{:?}", wrapped.vertex_property(vl, v, gs_graph::PropId(0)))
                );
            }
        }
        assert_eq!(
            plain.vertices_by_property(vl, gs_graph::PropId(0), &Value::Int(7)),
            wrapped.vertices_by_property(vl, gs_graph::PropId(0), &Value::Int(7))
        );
    }
    for el in 0..schema.edge_label_count() {
        let el = LabelId(el as u16);
        let def = schema.edge_label(el).unwrap();
        assert_eq!(plain.edge_count(el), wrapped.edge_count(el));
        for dir in [Direction::Out, Direction::In, Direction::Both] {
            let vl = if dir == Direction::In {
                def.dst
            } else {
                def.src
            };
            assert_eq!(scan(plain, vl, el, dir), scan(wrapped, vl, el, dir));
            for v in (0..5).map(VId) {
                assert_eq!(
                    plain.adjacent(v, vl, el, dir).collect::<Vec<_>>(),
                    wrapped.adjacent(v, vl, el, dir).collect::<Vec<_>>()
                );
                let mut a = Vec::new();
                let mut b = Vec::new();
                plain.for_each_adjacent(v, vl, el, dir, &mut |e| a.push(e));
                wrapped.for_each_adjacent(v, vl, el, dir, &mut |e| b.push(e));
                assert_eq!(a, b);
                for e in a.iter().take(2) {
                    assert_eq!(
                        format!("{:?}", plain.edge_property(el, e.edge, gs_graph::PropId(0))),
                        format!(
                            "{:?}",
                            wrapped.edge_property(el, e.edge, gs_graph::PropId(0))
                        )
                    );
                }
                assert_eq!(plain.degree(v, vl, el, dir), wrapped.degree(v, vl, el, dir));
                assert_eq!(
                    plain.adjacent_slice(v, vl, el, dir),
                    wrapped.adjacent_slice(v, vl, el, dir)
                );
                let pass = gs_grin::EdgePredicate::pass();
                assert_eq!(
                    plain
                        .adjacent_filtered(v, vl, el, dir, &pass)
                        .collect::<Vec<_>>(),
                    wrapped
                        .adjacent_filtered(v, vl, el, dir, &pass)
                        .collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn counting_graph_forwards_every_method() {
    let w = fraud_graph(300, 60, 1200, 0, 7);
    let store = GartStore::from_data(&w.data).unwrap();
    let snapshot = store.snapshot();
    let frozen = snapshot.freeze(LayoutKind::Csr);
    let graphs: [Arc<dyn GrinGraph>; 2] = [Arc::new(snapshot), Arc::new(frozen)];
    for plain in graphs {
        let tally = Arc::new(GrinTally::default());
        let wrapped = CountingGraph::new(Arc::clone(&plain), Arc::clone(&tally));
        assert_same_graph(plain.as_ref(), &wrapped);
        let calls = wrapped.calls();
        assert!(
            calls.iter().all(|&c| c > 0),
            "every method counted: {calls:?}"
        );
        drop(wrapped);
        assert_eq!(tally.totals(), calls, "counts fold into the tally on drop");
    }
}

#[test]
fn wrapped_server_returns_identical_rows() {
    let w = fraud_graph(400, 80, 1600, 0, 3);
    let store = GartStore::from_data(&w.data).unwrap();
    let plain = Arc::new(Server::new(
        Box::new(QueryService::new(2)),
        Box::new(GartServeStore::new(Arc::clone(&store))),
        ServeConfig::default(),
    ));
    let tally = Arc::new(GrinTally::default());
    let wrapped = Arc::new(Server::new(
        Box::new(TimedEngine::new(Box::new(QueryService::new(2)))),
        Box::new(TimedStore::new(
            Box::new(GartServeStore::new(Arc::clone(&store))),
            Arc::clone(&tally),
        )),
        ServeConfig::default(),
    ));
    let seeds: Vec<Value> = w.seeds.iter().map(|&s| Value::Int(s as i64)).collect();
    let mut params = HashMap::new();
    params.insert("SEEDS".to_string(), Value::List(seeds));
    let a = plain.session("t", Priority::High);
    let b = wrapped.session("t", Priority::High);
    take_trace();
    for template in 0..3u8 {
        for account in [0u64, 1, 5, 42, 97, 250] {
            let text = template_text(template, account);
            let p = if template == 2 {
                params.clone()
            } else {
                HashMap::new()
            };
            let mut x: Vec<String> = a
                .query(Frontend::Cypher, &text, &p)
                .unwrap()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            let mut y: Vec<String> = b
                .query(Frontend::Cypher, &text, &p)
                .unwrap()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            x.sort();
            y.sort();
            assert_eq!(x, y, "template {template} account {account}");
        }
    }
    let trace = take_trace();
    assert_eq!(trace.prepares, 18, "one compile per distinct statement");
    assert_eq!(trace.executes, 18);
    assert!(trace.execute_ns > 0 && trace.snapshot_ns > 0);
    assert!(tally.totals().iter().sum::<u64>() > 0);
}
