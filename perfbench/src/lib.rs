//! End-to-end benchmark of the Zendoo reproduction.
//!
//! Three workloads, each driven from one process through the
//! repository's public entry points:
//!
//! * [`payments`] — a mainchain under payment load at a realistic
//!   UTXO-set size (admission, mempool, block builder, stage 3);
//! * [`xchain_ring`] — sixteen Latus sidechains sending each other
//!   cross-chain transfers every epoch under aggregated verification
//!   (latus sync, certificate proving, snark Wrap/Fold, settlement);
//! * [`restart`] — a durable node's write path, a crash with a torn
//!   journal tail, recovery, and a zipf read mix (journal, fsync,
//!   the indexer's Poseidon SMT).
//!
//! `payments` times its cold starts in child processes of the same
//! executable ([`durable`]), one at a time.
//!
//! Inputs are generated from the seed before timing starts. An
//! untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run reports the per-layer metrics ([`PER_LAYER`]). See
//! `README.md` for what each metric means on each workload.

pub mod durable;
pub mod layers;
pub mod payments;
pub mod primitives;
pub mod report;
pub mod restart;
pub mod xchain_ring;

use std::path::{Path, PathBuf};
use std::time::Duration;

pub use report::{json_line, Metric, Outcome};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["payments", "xchain_ring", "restart"];

/// End-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_tail", "ms"),
    ("cert_tick_ms_p50", "ms"),
    ("cold_start_s", "s"),
];

/// Per-layer metrics every traced run prints: `(name, unit)`. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.step_ms", "ms"),
    ("mainchain.admit_ms", "ms"),
    ("mainchain.admit.sig_checks", "count"),
    ("store.apply_us", "us"),
    ("store.commit_ms", "ms"),
    ("store.open_s", "s"),
    ("store.records_replayed", "count"),
    ("store.torn_bytes", "bytes"),
    ("indexer.rebuild_s", "s"),
    ("indexer.query.balance_ns_p50", "ns"),
    ("indexer.query.pending_point_ns_p50", "ns"),
    ("indexer.query.pending_list_us_p50", "us"),
    ("primitives.schnorr_verify_us", "us"),
    ("primitives.vrf_prove_us", "us"),
    ("primitives.poseidon_hash2_us", "us"),
    ("sim.prepare_ms", "ms"),
    ("sim.prologue_ms", "ms"),
    ("sim.submit_ms", "ms"),
    ("sim.fold_ms", "ms"),
    ("sim.coordinator_ms", "ms"),
    ("sim.shard_sync_ms", "ms"),
    ("sim.shard_critical_ms", "ms"),
    ("mainchain.stage1_ms", "ms"),
    ("mainchain.stage2_ms", "ms"),
    ("mainchain.stage2_aggregate_ms", "ms"),
    ("mainchain.stage3_ms", "ms"),
    ("mainchain.agg_build_ms", "ms"),
    ("mainchain.sigbatch_ms", "ms"),
    ("mainchain.mempool_admit_us_p50", "us"),
    ("mainchain.sig_cache_hit_ratio", "ratio"),
    ("mainchain.verdict_cache_hit_ratio", "ratio"),
    ("snark.wrap_ms", "ms"),
    ("snark.fold_ms", "ms"),
    ("snark.batch_verify_ms", "ms"),
    ("crosschain.observe_ms", "ms"),
    ("crosschain.collect_ms", "ms"),
    ("crosschain.delivered", "count"),
    ("crosschain.settle_batch_size_p50", "count"),
    ("latus.sc_blocks", "count"),
    ("latus.certs", "count"),
    ("trace.overhead_pct", "%"),
];

/// How much a run measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Measure for this many seconds of timed work.
    Seconds(f64),
    /// Measure exactly this many workload steps (ticks for
    /// `payments`, rounds for `xchain_ring`, cycles for
    /// `restart`): deterministic work, for the self-test.
    Steps(u64),
}

impl Budget {
    /// Whether a run that has done `steps` steps in `measured` timed
    /// time is finished.
    pub fn done(self, steps: u64, measured: Duration) -> bool {
        match self {
            Budget::Seconds(seconds) => measured.as_secs_f64() >= seconds,
            Budget::Steps(n) => steps >= n,
        }
    }

    /// Like [`Budget::done`] for a run whose steps are long: a timed
    /// run also stops when less than half a step of `per_step` is
    /// left, so it measures the whole number of steps nearest the
    /// budget.
    pub fn done_nearest(self, steps: u64, measured: Duration, per_step: Duration) -> bool {
        match self {
            Budget::Seconds(seconds) => (measured + per_step / 2).as_secs_f64() >= seconds,
            Budget::Steps(n) => steps >= n,
        }
    }

    /// The share of the budget a run that has done `steps` steps in
    /// `measured` timed time has spent.
    pub fn spent(self, steps: u64, measured: Duration) -> f64 {
        match self {
            Budget::Seconds(seconds) => measured.as_secs_f64() / seconds,
            Budget::Steps(n) => steps as f64 / n.max(1) as f64,
        }
    }

    /// Half the budget: a traced run measures an untraced pass and a
    /// traced pass of the same work within one budget.
    pub fn half(self) -> Budget {
        match self {
            Budget::Seconds(seconds) => Budget::Seconds(seconds / 2.0),
            Budget::Steps(n) => Budget::Steps(n.div_ceil(2).max(1)),
        }
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`]
/// keeps the self-test fast.
#[derive(Clone, Debug)]
pub struct Scale {
    /// `payments`: keyed zipf users.
    pub users: usize,
    /// `payments`: unowned filler genesis outputs.
    pub filler: usize,
    /// `payments`: payments offered per tick.
    pub batch: usize,
    /// `xchain_ring`: sidechains in the ring.
    pub ring_chains: usize,
    /// `restart`: blocks ingested before the crash.
    pub blocks: usize,
    /// `restart`: outputs created per block.
    pub created_per_block: usize,
    /// `restart`: outputs of the previous block spent per block.
    pub spent_per_block: usize,
    /// `restart`: every this many blocks is a certificate-maturity
    /// block carrying escrows.
    pub escrow_every: usize,
    /// `restart`: escrows per certificate-maturity block.
    pub escrows_per_block: usize,
    /// `restart`: distinct funded addresses, each premined one genesis
    /// output.
    pub addresses: usize,
    /// `restart`: distinct queries in the read mix.
    pub queries: usize,
    /// `restart`: fresh nodes each cycle ingests the stream into.
    pub ingest_passes: usize,
    /// `restart`: queries served after each block ingested.
    pub queries_per_block: usize,
    /// Set-ups per untraced run (`setup_s` is their median), and the
    /// fewest reopens behind `xchain_ring`'s `cold_start_s`.
    pub setups: usize,
    /// `restart`: set-ups per pass (a store bootstrap costs
    /// milliseconds, so many are timed).
    pub store_setups: usize,
    /// Timed operations per primitive.
    pub primitive_ops: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Scale {
        Scale {
            users: 10_000,
            filler: 1_000_000,
            batch: 200,
            ring_chains: 16,
            blocks: 100,
            created_per_block: 2_000,
            spent_per_block: 300,
            escrow_every: 5,
            escrows_per_block: 100,
            addresses: 10_000,
            queries: 50_000,
            ingest_passes: 11,
            queries_per_block: 10_000,
            setups: 3,
            store_setups: 15,
            primitive_ops: 64,
        }
    }

    /// A scale that runs every code path in seconds.
    pub fn tiny() -> Scale {
        Scale {
            users: 200,
            filler: 2_000,
            batch: 20,
            ring_chains: 4,
            blocks: 12,
            created_per_block: 100,
            spent_per_block: 20,
            escrow_every: 3,
            escrows_per_block: 10,
            addresses: 50,
            queries: 500,
            ingest_passes: 2,
            queries_per_block: 50,
            setups: 2,
            store_setups: 3,
            primitive_ops: 4,
        }
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// How much to measure.
    pub budget: Budget,
    /// `false`: end-to-end metrics with telemetry off; `true`:
    /// per-layer metrics from a traced pass.
    pub trace: bool,
    /// Worker lanes for sharded stepping and batch admission.
    pub lanes: usize,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for the durable stores the run creates (removed
    /// afterwards).
    pub data_dir: PathBuf,
    /// The `perfbench` executable, which `payments` starts as
    /// `perfbench --cold-start <dir>` for each cold start.
    pub exe: PathBuf,
}

/// Runs one workload. A failed correctness check is an `Err`: the run
/// produces no numbers.
pub fn run(workload: &str, options: &Options) -> Result<Outcome, String> {
    let _cleanup = RemoveOnDrop(options.data_dir.clone());
    match workload {
        "payments" => payments::run(options),
        "xchain_ring" => xchain_ring::run(options),
        "restart" => restart::run(options),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The host's available parallelism.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Removes a scratch directory when dropped, also on error paths.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh, empty directory `name` under `root`.
pub(crate) fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A deterministic 64-bit stream (splitmix64) for input generation.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated by `domain`.
    pub fn new(seed: u64, domain: u64) -> SplitMix {
        SplitMix(seed ^ domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
