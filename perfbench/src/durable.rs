//! The cold start of a durable node holding a chain's state.
//!
//! `restart` measures recovery itself. `payments` and `xchain_ring`
//! report `cold_start_s` only because every run prints every
//! end-to-end metric. For them a chain's state is written to a fresh
//! store as one snapshot record, outside the measured world, and the
//! store is reopened (journal replay plus index rebuild), each reopen
//! checked against the chain's state digest.
//!
//! `payments` reopens its 10⁶-UTXO store in a process of its own
//! (`perfbench --cold-start <dir>`), as a restarting node does: the
//! reopen starts from an empty heap and leaves the measuring process's
//! memory, and its peak, untouched. `xchain_ring` reopens its tiny
//! store in process, many times over, and keeps the fastest.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use zendoo_mainchain::chain::Blockchain;
use zendoo_primitives::digest::Digest32;
use zendoo_store::{chain_state_digest, Indexer, UtxoStore};
use zendoo_telemetry::Telemetry;

use crate::fresh_dir;
use crate::layers::Layers;
use crate::report::{check, median};

/// Seconds in-process reopens spend at least, so a small journal is
/// timed over many reopens.
const REOPEN_FLOOR_S: f64 = 0.5;

/// A store holding one snapshot of a chain's state.
pub(crate) struct Persisted {
    dir: PathBuf,
    digest: Digest32,
}

/// Timed reopens of a [`Persisted`] store.
#[derive(Default)]
pub(crate) struct ColdStart {
    /// Seconds of each reopen (open plus rebuild).
    seconds: Vec<f64>,
    open_s: Vec<f64>,
    rebuild_s: Vec<f64>,
    records: u64,
}

/// What one reopen measured and found.
struct Reopen {
    open_s: f64,
    rebuild_s: f64,
    records: u64,
    torn_bytes: u64,
    digest: String,
}

/// Formats a store error with the operation that met it.
pub(crate) fn store_error(what: &'static str) -> impl Fn(zendoo_store::StoreError) -> String {
    move |e| format!("{what}: {e}")
}

/// Opens the store in `dir` and rebuilds its indexes, timed.
fn reopen(dir: &Path) -> Result<Reopen, String> {
    let started = Instant::now();
    let store = UtxoStore::open(dir, Telemetry::disabled()).map_err(store_error("reopen"))?;
    let opened = Instant::now();
    let indexer = Indexer::from_store(&store, Telemetry::disabled());
    let rebuilt = Instant::now();
    std::hint::black_box(indexer.funded_addresses());
    Ok(Reopen {
        open_s: (opened - started).as_secs_f64(),
        rebuild_s: (rebuilt - opened).as_secs_f64(),
        records: store.replay_stats().records,
        torn_bytes: store.replay_stats().torn_bytes,
        digest: store.state_digest().to_hex(),
    })
}

/// The body of `perfbench --cold-start <dir>`: one reopen, printed as
/// `open_s rebuild_s records torn_bytes digest`.
pub fn child_cold_start(dir: &Path) -> Result<String, String> {
    let r = reopen(dir)?;
    Ok(format!(
        "{:?} {:?} {} {} {}",
        r.open_s, r.rebuild_s, r.records, r.torn_bytes, r.digest
    ))
}

impl Reopen {
    fn parse(line: &str) -> Option<Reopen> {
        let mut fields = line.split_whitespace();
        let reopen = Reopen {
            open_s: fields.next()?.parse().ok()?,
            rebuild_s: fields.next()?.parse().ok()?,
            records: fields.next()?.parse().ok()?,
            torn_bytes: fields.next()?.parse().ok()?,
            digest: fields.next()?.to_string(),
        };
        fields.next().is_none().then_some(reopen)
    }
}

impl Persisted {
    /// Writes `chain`'s state to a fresh store in `root/name`.
    pub fn write(chain: &Blockchain, root: &Path, name: &str) -> Result<Persisted, String> {
        let dir = fresh_dir(root, name)?;
        let mut store =
            UtxoStore::open(&dir, Telemetry::disabled()).map_err(store_error("open"))?;
        store.bootstrap(chain).map_err(store_error("bootstrap"))?;
        Ok(Persisted {
            dir,
            digest: chain_state_digest(chain),
        })
    }

    /// Checks a reopen against the written state and records it.
    fn record(&self, r: Reopen, cold: &mut ColdStart) -> Result<(), String> {
        check(r.digest == self.digest.to_hex(), || {
            "reopened store differs from the chain".into()
        })?;
        check(r.torn_bytes == 0, || {
            "clean journal reported a torn tail".into()
        })?;
        cold.seconds.push(r.open_s + r.rebuild_s);
        cold.open_s.push(r.open_s);
        cold.rebuild_s.push(r.rebuild_s);
        cold.records = r.records;
        Ok(())
    }

    /// Times one reopen in a fresh `exe --cold-start` process and
    /// waits for it to end.
    pub fn cold_start_in_child(&self, exe: &Path, cold: &mut ColdStart) -> Result<(), String> {
        let output = Command::new(exe)
            .arg("--cold-start")
            .arg(&self.dir)
            .output()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        check(output.status.success(), || {
            format!(
                "cold-start process failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })?;
        let reopen = Reopen::parse(stdout.trim())
            .ok_or_else(|| format!("cold-start process printed {stdout:?}"))?;
        self.record(reopen, cold)
    }

    /// Reopens the store in process at least `repeats` times and for
    /// at least [`REOPEN_FLOOR_S`].
    pub fn reopen_repeatedly(&self, repeats: usize) -> Result<ColdStart, String> {
        let mut cold = ColdStart::default();
        let mut spent = 0.0;
        while cold.seconds.len() < repeats.max(1) || spent < REOPEN_FLOOR_S {
            self.record(reopen(&self.dir)?, &mut cold)?;
            spent += cold.seconds.last().expect("just recorded");
        }
        Ok(cold)
    }
}

impl Drop for Persisted {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl ColdStart {
    /// Reopens timed.
    pub fn count(&self) -> usize {
        self.seconds.len()
    }

    /// The median reopen.
    pub fn median(&self) -> f64 {
        median(&self.seconds)
    }

    /// The fastest reopen: for a small journal, which reopens in a
    /// fraction of a millisecond, the cost with the least host noise.
    pub fn fastest(&self) -> f64 {
        self.seconds.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Sets the store and indexer layers from the median reopen.
    pub fn layers(&self, layers: &mut Layers) {
        layers.set("store.open_s", median(&self.open_s));
        layers.set("indexer.rebuild_s", median(&self.rebuild_s));
        layers.set("store.records_replayed", self.records as f64);
        layers.set("store.torn_bytes", 0.0);
    }
}
