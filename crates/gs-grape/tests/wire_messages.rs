//! Wire-message accounting under sender-side combining: one PageRank
//! iteration puts exactly one message per outer vertex on the wire, and
//! a combining Pregel program never sends more than one per outer vertex
//! per superstep.
//!
//! This lives in its own test binary because the telemetry registry is
//! process-global: no other GRAPE run may add to its counters.

use gs_grape::algorithms::{pagerank, wcc};
use gs_grape::GrapeEngine;
use gs_graph::VId;
use gs_telemetry::Registry;
use rand::Rng;

#[test]
fn wire_carries_one_message_per_outer_vertex_per_superstep() {
    let mut rng = rand_pcg::Pcg64Mcg::new(5);
    let n = 400u64;
    let mut edges: Vec<(VId, VId)> = (0..2400)
        .map(|_| (VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n))))
        .collect();
    let back: Vec<(VId, VId)> = edges.iter().map(|&(s, d)| (d, s)).collect();
    edges.extend(back);
    let registry = Registry::new();
    gs_telemetry::install(registry.clone());
    for k in 1..=4 {
        let engine = GrapeEngine::from_edges(n as usize, &edges, k);
        let outer: u64 = engine
            .fragments
            .iter()
            .map(|f| (f.local_count() - f.inner_count) as u64)
            .sum();
        assert_eq!(outer == 0, k == 1, "k={k}: mirrors exist iff k > 1");

        registry.reset();
        pagerank(&engine, 0.85, 1);
        assert_eq!(
            registry.counter_value("grape.msgs_sent"),
            outer,
            "k={k}: one PageRank iteration"
        );

        registry.reset();
        wcc(&engine);
        let steps = registry.counter_value("grape.supersteps");
        let sent = registry.counter_value("grape.msgs_sent");
        assert!(
            sent <= steps * outer,
            "k={k}: WCC sent {sent} over {steps} supersteps with {outer} mirrors"
        );
    }
    gs_telemetry::uninstall();
}
