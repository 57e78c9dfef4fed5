//! Graceful degradation under injected shard faults: a slow shard and a
//! shard that dies mid-run are masked by deadlines, retries and
//! dead-shard rerouting — every call still succeeds.
//!
//! This lives in its own test binary because the fault plan is
//! process-global: while it is installed, the shards of every other
//! test's `QueryService` in the process would slow down or die too.
#![cfg(feature = "chaos")]

use gs_chaos::{FaultPlan, RetryPolicy};
use gs_hiactor::{QueryService, ServiceConfig};
use gs_ir::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn service_rides_out_slow_and_dead_shards() {
    let plan = FaultPlan::new(0xC4A05)
        .slow_shard(0, Duration::from_millis(5))
        .dead_shard(1, 3);
    let (ok, stats) = gs_chaos::with_chaos(plan, || {
        let svc = QueryService::new(2).with_config(ServiceConfig {
            deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy::new(4, Duration::from_millis(2)),
            ..Default::default()
        });
        svc.register_idempotent("ping", Arc::new(|_| Ok(vec![vec![Value::Int(1)]])));
        (0..24)
            .filter(|_| svc.call_sync("ping", HashMap::new()).is_ok())
            .count()
    });
    assert_eq!(ok, 24, "retries + rerouting must mask the faults");
    assert!(
        stats.shard_delays > 0 && stats.shard_deaths > 0,
        "both fault kinds must have fired: {stats:?}"
    );
}
