//! Per-layer metrics: values the benchmark times around public calls,
//! plus values copied from the program's own telemetry snapshot.

use std::collections::BTreeMap;

use zendoo_telemetry::Snapshot;

use crate::report::{Metric, Outcome};
use crate::PER_LAYER;

/// Per-layer values collected by a traced pass, keyed by metric name.
/// Layers a workload never reaches stay absent and print as 0.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

/// Span paths copied as milliseconds per tick (span total / ticks).
const SPANS_PER_TICK: [(&str, &str); 18] = [
    ("sim.prepare_ms", "tick.mc.prepare"),
    ("sim.prologue_ms", "tick.prologue"),
    ("sim.submit_ms", "tick.mc.submit"),
    ("sim.fold_ms", "tick.fold"),
    ("sim.coordinator_ms", "tick.coordinator"),
    ("sim.shard_sync_ms", "tick.shard.sync"),
    ("sim.shard_critical_ms", "tick.shard.critical"),
    ("mainchain.stage1_ms", "mc.stage1.precheck"),
    ("mainchain.stage2_ms", "mc.stage2.verify"),
    (
        "mainchain.stage2_aggregate_ms",
        "mc.stage2.verify_aggregate",
    ),
    ("mainchain.stage3_ms", "mc.stage3.apply"),
    ("mainchain.agg_build_ms", "mc.agg.build"),
    ("mainchain.sigbatch_ms", "sig.batch.verify"),
    ("snark.wrap_ms", "snark.aggregate.wrap"),
    ("snark.fold_ms", "snark.aggregate.fold"),
    ("snark.batch_verify_ms", "snark.batch.verify"),
    ("crosschain.observe_ms", "router.observe"),
    ("crosschain.collect_ms", "router.collect"),
];

impl Layers {
    /// Sets one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Copies the sim's telemetry for a run of `ticks` ticks.
    pub fn copy_sim_telemetry(&mut self, snapshot: &Snapshot, ticks: u64) {
        let ticks = ticks.max(1) as f64;
        for (name, span) in SPANS_PER_TICK {
            let total = snapshot.spans.get(span).map_or(0, |s| s.total_nanos);
            self.set(name, total as f64 / 1e6 / ticks);
        }
        if let Some(admit) = snapshot.spans.get("mc.mempool.admit") {
            self.set(
                "mainchain.mempool_admit_us_p50",
                admit.nanos.quantile(0.5) as f64 / 1e3,
            );
        }
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let ratio = |hit: u64, miss: u64| {
            if hit + miss == 0 {
                0.0
            } else {
                hit as f64 / (hit + miss) as f64
            }
        };
        self.set(
            "mainchain.sig_cache_hit_ratio",
            ratio(counter("mc.sig_cache.hit"), counter("mc.sig_cache.miss")),
        );
        self.set(
            "mainchain.verdict_cache_hit_ratio",
            ratio(
                counter("mc.verdict_cache.hit"),
                counter("mc.verdict_cache.miss"),
            ),
        );
        self.set("crosschain.delivered", counter("router.delivered") as f64);
        if let Some(sizes) = snapshot.histograms.get("router.settlement.batch_size") {
            self.set(
                "crosschain.settle_batch_size_p50",
                sizes.quantile(0.5) as f64,
            );
        }
        self.set("latus.sc_blocks", counter("shard.sc_blocks_forged") as f64);
        self.set("latus.certs", counter("shard.certificates_produced") as f64);
    }

    /// Moves every per-layer metric, in [`PER_LAYER`] order, into
    /// `outcome`.
    pub fn emit(self, outcome: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            let value = self.0.get(name).copied().unwrap_or(0.0);
            outcome.metrics.push(Metric { name, value, unit });
        }
    }
}
