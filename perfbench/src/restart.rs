//! `restart`: a durable node's write path, crash and read path.
//!
//! A fresh store is bootstrapped from a genesis that premines every
//! funded address. Synthetic chain events (about 10⁵ live UTXOs, a few
//! thousand pending inbound escrows over 16 destinations) are then
//! applied and committed block by block through
//! `UtxoStore::apply_event`/`commit`. Escrows
//! arrive in certificate-maturity blocks, as the mainchain creates them
//! when a certificate's cross-chain declaration matures. The node then
//! dies while writing the next block, leaving a torn, uncommitted
//! record; it is reopened (journal replay, `Indexer::from_store`) and
//! serves a fixed zipf read mix whose every answer is checked against
//! the generator's own bookkeeping. The recovered node serves its reads
//! while the next fresh nodes ingest the stream, a slice after every
//! block, so the write and read paths are timed side by side over the
//! whole run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::{ChainEvent, OutPoint, TxOut};
use zendoo_primitives::digest::Digest32;
use zendoo_store::{Indexer, UtxoStore};
use zendoo_telemetry::Telemetry;

use crate::durable::store_error;
use crate::layers::Layers;
use crate::report::{check, median, ms, peak_rss_mb, tail, Outcome, Tail};
use crate::{fresh_dir, primitives, Budget, Options, SplitMix};

/// Destination sidechains of the pending escrows.
const DESTS: u64 = 16;

/// One read with the answer the generator expects.
#[derive(Clone, Debug)]
enum Query {
    /// Balance of a funded address.
    Balance(Address, Amount),
    /// One pending inbound transfer, by destination and nullifier.
    PendingPoint(SidechainId, Nullifier, Amount),
    /// Every pending inbound transfer of a destination.
    PendingList(SidechainId, usize),
}

/// The generated inputs.
struct Stream {
    /// Genesis outputs: one premine per funded address.
    premine: Vec<TxOut>,
    /// Blocks committed before the crash.
    events: Vec<ChainEvent>,
    /// Whether each block carries escrows (certificate maturity).
    escrow_block: Vec<bool>,
    /// The block being written when the node dies.
    torn: ChainEvent,
    /// Escrows created (all still pending at the crash).
    escrows: Vec<Nullifier>,
    /// The read mix.
    queries: Vec<Query>,
}

fn digest(seed: u64, tag: &str, i: u64) -> Digest32 {
    Digest32::hash_tagged(
        "perfbench.restart",
        &[&seed.to_be_bytes(), tag.as_bytes(), &i.to_be_bytes()],
    )
}

/// Cumulative zipf(1) weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|rank| {
            acc += 1.0 / rank as f64;
            acc
        })
        .collect()
}

fn zipf_draw(cdf: &[f64], rng: &mut SplitMix) -> usize {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let total = *cdf.last().expect("non-empty");
    cdf.partition_point(|&acc| acc <= unit * total)
        .min(cdf.len() - 1)
}

impl Stream {
    fn generate(options: &Options) -> Stream {
        let scale = &options.scale;
        let seed = options.seed;
        let mut rng = SplitMix::new(seed, 0x5e5);
        let dests: Vec<SidechainId> = (0..DESTS)
            .map(|d| SidechainId(digest(seed, "dest", d)))
            .collect();
        let source = SidechainId(digest(seed, "source", 0));
        let addresses: Vec<Address> = (0..scale.addresses as u64)
            .map(|i| Address(digest(seed, "addr", i)))
            .collect();
        let premine: Vec<TxOut> = addresses
            .iter()
            .map(|a| TxOut::regular(*a, Amount::from_units(100_000 + rng.below(900_000))))
            .collect();
        let mut balances: BTreeMap<Address, u64> = premine
            .iter()
            .map(|o| (o.address, o.amount.units()))
            .collect();
        let mut pending: Vec<(SidechainId, Nullifier, Amount)> = Vec::new();
        let mut global = 0u64;
        let mut previous: Vec<(OutPoint, TxOut)> = Vec::new();

        let mut block = |height: u64,
                         escrows: usize,
                         balances: &mut BTreeMap<Address, u64>,
                         pending: &mut Vec<_>| {
            let mut created = Vec::with_capacity(scale.created_per_block + escrows);
            let mut regular = Vec::with_capacity(scale.created_per_block);
            for _ in 0..scale.created_per_block {
                let outpoint = OutPoint {
                    txid: digest(seed, "tx", global),
                    index: 0,
                };
                global += 1;
                let address = addresses[rng.below(addresses.len() as u64) as usize];
                let out = TxOut::regular(address, Amount::from_units(1_000 + rng.below(9_000)));
                *balances.entry(address).or_default() += out.amount.units();
                created.push((outpoint, out));
                regular.push((outpoint, out));
            }
            for _ in 0..escrows {
                let n = pending.len() as u64;
                let outpoint = OutPoint {
                    txid: digest(seed, "tx", global),
                    index: 0,
                };
                global += 1;
                let payback = addresses[rng.below(addresses.len() as u64) as usize];
                let dest = dests[(n % DESTS) as usize];
                let tag = EscrowTag {
                    source,
                    epoch: height as u32,
                    dest,
                    payback,
                    nullifier: Nullifier(digest(seed, "null", n)),
                };
                let amount = Amount::from_units(1_000 + rng.below(9_000));
                created.push((outpoint, TxOut::escrow(payback, amount, tag)));
                pending.push((dest, tag.nullifier, amount));
            }
            let take = scale.spent_per_block.min(previous.len());
            let spent: Vec<(OutPoint, TxOut)> = previous.drain(..take).collect();
            for (_, out) in &spent {
                *balances
                    .get_mut(&out.address)
                    .expect("spent output was credited") -= out.amount.units();
            }
            previous = regular;
            ChainEvent::Connected {
                hash: digest(seed, "block", height),
                height,
                created,
                spent,
            }
        };

        let mut events = Vec::with_capacity(scale.blocks);
        let mut escrow_block = Vec::with_capacity(scale.blocks);
        for b in 1..=scale.blocks {
            let carries = b % scale.escrow_every == 0;
            let escrows = if carries { scale.escrows_per_block } else { 0 };
            events.push(block(b as u64, escrows, &mut balances, &mut pending));
            escrow_block.push(carries);
        }
        // The torn block moves no expectation: it is never committed.
        let torn = block(
            scale.blocks as u64 + 1,
            0,
            &mut balances.clone(),
            &mut pending.clone(),
        );

        let funded: Vec<(Address, u64)> = balances.into_iter().filter(|(_, v)| *v > 0).collect();
        let mut per_dest: BTreeMap<SidechainId, usize> = BTreeMap::new();
        for (dest, _, _) in &pending {
            *per_dest.entry(*dest).or_default() += 1;
        }
        let address_cdf = zipf_cdf(funded.len());
        let escrow_cdf = zipf_cdf(pending.len().max(1));
        let queries = (0..scale.queries)
            .map(|_| match rng.below(100) {
                0..=59 => {
                    let (address, units) = funded[zipf_draw(&address_cdf, &mut rng)];
                    Query::Balance(address, Amount::from_units(units))
                }
                60..=94 if !pending.is_empty() => {
                    let (dest, nullifier, amount) = pending[zipf_draw(&escrow_cdf, &mut rng)];
                    Query::PendingPoint(dest, nullifier, amount)
                }
                _ => {
                    let dest = dests[rng.below(DESTS) as usize];
                    Query::PendingList(dest, per_dest.get(&dest).copied().unwrap_or(0))
                }
            })
            .collect();
        Stream {
            premine,
            events,
            escrow_block,
            torn,
            escrows: pending.iter().map(|(_, n, _)| *n).collect(),
            queries,
        }
    }
}

/// Answers one query and checks it.
fn answer(indexer: &Indexer, query: &Query) -> bool {
    match query {
        Query::Balance(address, expected) => indexer.balance(address) == *expected,
        Query::PendingPoint(dest, nullifier, amount) => indexer
            .pending_inbound_for(dest, nullifier)
            .is_some_and(|entry| entry.amount == *amount),
        Query::PendingList(dest, count) => indexer.pending_inbound(dest).len() == *count,
    }
}

/// What one pass measured, over all its cycles.
#[derive(Default)]
struct Pass {
    setups: Vec<f64>,
    /// Per block ingested: `apply_event` plus `commit`.
    ingest_ms: Vec<f64>,
    /// The same, for blocks carrying escrows.
    escrow_ingest_ms: Vec<f64>,
    /// The tail of each ingest pass's blocks.
    ingest_tail: Vec<Tail>,
    apply_us: Vec<f64>,
    commit_ms: Vec<f64>,
    cold_start_s: Vec<f64>,
    open_s: Vec<f64>,
    rebuild_s: Vec<f64>,
    records_replayed: u64,
    torn_bytes: u64,
    cycles: u64,
    queries: u64,
    wrong: u64,
    query_time: Duration,
    /// Per-class query latencies (recorded only when asked).
    balance_ns: Vec<f64>,
    point_ns: Vec<f64>,
    list_us: Vec<f64>,
    /// Time spent on the write and read paths: the budget.
    measured: Duration,
}

/// A node that died while writing its next block.
struct Torn {
    dir: PathBuf,
    /// The state at its last commit.
    digest: Digest32,
    /// Bytes of the partial record after the last commit.
    bytes: u64,
}

/// The only file in `dir`: the store's journal.
fn journal_file(dir: &Path) -> Result<PathBuf, String> {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.is_file())
        .collect();
    match files.as_slice() {
        [only] => Ok(only.clone()),
        _ => Err(format!(
            "expected one journal file in {}, found {files:?}",
            dir.display()
        )),
    }
}

/// Set-ups, an untimed first node to recover, then cycles until
/// `budget` (cycles, or seconds on the write and read paths) is spent:
/// a timed run starts another cycle only while at least half a cycle
/// is left, and stops within a cycle after the ingest pass that spends
/// the budget.
/// Each cycle recovers the node the previous one killed (a cold
/// start, timed apart from the budget), then ingests the stream into
/// fresh nodes while the recovered node serves a slice of the read mix
/// after every block. Interleaving spreads both paths, and the cold
/// starts, over the whole run, so no metric rests on one short window
/// of the host's time.
fn pass(
    stream: &Stream,
    options: &Options,
    root: &Path,
    telemetry: &Telemetry,
    budget: Budget,
    per_query: bool,
) -> Result<Pass, String> {
    let mut log = Pass::default();
    let genesis = Blockchain::new(ChainParams {
        genesis_outputs: stream.premine.clone(),
        ..ChainParams::default()
    });
    // Set-up: a fresh durable node bootstrapped from the premined genesis.
    for _ in 0..options.scale.store_setups.max(1) {
        let dir = fresh_dir(root, "setup")?;
        let started = Instant::now();
        let mut store = UtxoStore::open(&dir, telemetry.clone()).map_err(store_error("open"))?;
        store
            .bootstrap(&genesis)
            .map_err(store_error("bootstrap"))?;
        log.setups.push(started.elapsed().as_secs_f64());
    }
    // The first node to recover, written untimed.
    let dir = fresh_dir(root, "torn-0")?;
    let node = ingest(
        stream,
        &dir,
        &genesis,
        telemetry,
        None,
        &mut Pass::default(),
    )?;
    let mut torn = Some(tear(node, stream, &dir)?);
    while let Some(node) = torn.take() {
        if log.cycles > 0 {
            let per_cycle = log.measured / log.cycles as u32;
            if budget.done_nearest(log.cycles, log.measured, per_cycle) {
                break;
            }
        }
        torn = cycle(
            stream, options, root, &genesis, telemetry, per_query, node, budget, &mut log,
        )?;
    }
    check(log.wrong == 0, || {
        format!("{} of {} queries answered wrongly", log.wrong, log.queries)
    })?;
    Ok(log)
}

/// Opens a fresh node in `dir` and ingests the stream block by block.
/// After each block, `serving` (when given) answers the next slice of
/// the read mix.
fn ingest(
    stream: &Stream,
    dir: &Path,
    genesis: &Blockchain,
    telemetry: &Telemetry,
    serving: Option<(&Indexer, usize, bool)>,
    log: &mut Pass,
) -> Result<UtxoStore, String> {
    let mut store = UtxoStore::open(dir, telemetry.clone()).map_err(store_error("open"))?;
    store.bootstrap(genesis).map_err(store_error("bootstrap"))?;
    let first = log.ingest_ms.len();
    for (event, &escrows) in stream.events.iter().zip(&stream.escrow_block) {
        let started = Instant::now();
        store.apply_event(event).map_err(store_error("apply"))?;
        let applied = Instant::now();
        store.commit().map_err(store_error("commit"))?;
        let committed = Instant::now();
        let took = committed - started;
        log.measured += took;
        log.ingest_ms.push(ms(took));
        log.apply_us.push((applied - started).as_secs_f64() * 1e6);
        log.commit_ms.push(ms(committed - applied));
        if escrows {
            log.escrow_ingest_ms.push(ms(took));
        }
        if let Some((indexer, slice, per_query)) = serving {
            serve(indexer, stream, slice, per_query, log);
        }
    }
    log.ingest_tail.push(tail(&log.ingest_ms[first..]));
    Ok(store)
}

/// Answers the next `slice` queries of the read mix, counting wrong
/// answers.
fn serve(indexer: &Indexer, stream: &Stream, slice: usize, per_query: bool, log: &mut Pass) {
    let mix = stream.queries.len();
    let first = log.queries as usize;
    let started = Instant::now();
    if per_query {
        for i in first..first + slice {
            let query = &stream.queries[i % mix];
            let began = Instant::now();
            let ok = answer(indexer, query);
            let took = began.elapsed();
            log.wrong += u64::from(!ok);
            // Every eighth latency is kept: the class medians need no more.
            if i % 8 == 0 {
                match query {
                    Query::Balance(..) => log.balance_ns.push(took.as_secs_f64() * 1e9),
                    Query::PendingPoint(..) => log.point_ns.push(took.as_secs_f64() * 1e9),
                    Query::PendingList(..) => log.list_us.push(took.as_secs_f64() * 1e6),
                }
            }
        }
    } else {
        for i in first..first + slice {
            log.wrong += u64::from(!answer(indexer, &stream.queries[i % mix]));
        }
    }
    let took = started.elapsed();
    log.query_time += took;
    log.measured += took;
    log.queries += slice as u64;
}

/// Kills `store` while it writes the torn block: the block's record
/// reaches the journal only in part, and is never committed.
fn tear(mut store: UtxoStore, stream: &Stream, dir: &Path) -> Result<Torn, String> {
    let digest = store.state_digest();
    let before = store.journal_bytes();
    store
        .apply_event(&stream.torn)
        .map_err(store_error("apply"))?;
    let after = store.journal_bytes();
    drop(store);
    let bytes = (after - before) / 2;
    let journal = journal_file(dir)?;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .and_then(|file| file.set_len(before + bytes))
        .map_err(|e| format!("tearing {}: {e}", journal.display()))?;
    Ok(Torn {
        dir: dir.to_path_buf(),
        digest,
        bytes,
    })
}

/// One cycle: recover `torn`, then ingest the stream into fresh nodes
/// while the recovered node serves reads, and kill the last of them
/// mid-write. Returns that node, or nothing when `budget` ran out
/// before the last pass.
#[allow(clippy::too_many_arguments)]
fn cycle(
    stream: &Stream,
    options: &Options,
    root: &Path,
    genesis: &Blockchain,
    telemetry: &Telemetry,
    per_query: bool,
    torn: Torn,
    budget: Budget,
    log: &mut Pass,
) -> Result<Option<Torn>, String> {
    // Cold start: replay, then rebuild the indexes.
    let started = Instant::now();
    let store = UtxoStore::open(&torn.dir, telemetry.clone()).map_err(store_error("reopen"))?;
    let opened = Instant::now();
    let indexer = Indexer::from_store(&store, telemetry.clone());
    let rebuilt = Instant::now();
    log.cold_start_s.push((rebuilt - started).as_secs_f64());
    log.open_s.push((opened - started).as_secs_f64());
    log.rebuild_s.push((rebuilt - opened).as_secs_f64());
    log.records_replayed = store.replay_stats().records;
    log.torn_bytes = store.replay_stats().torn_bytes;
    check(log.torn_bytes == torn.bytes, || {
        format!(
            "recovery discarded {} bytes, the torn record had {}",
            log.torn_bytes, torn.bytes
        )
    })?;
    check(
        log.records_replayed == stream.events.len() as u64 + 1,
        || {
            format!(
                "replayed {} records, expected a snapshot and {} blocks",
                log.records_replayed,
                stream.events.len()
            )
        },
    )?;
    check(store.state_digest() == torn.digest, || {
        "recovered state differs from the state at the last commit".into()
    })?;
    check(indexer.pending_total() == stream.escrows.len(), || {
        format!(
            "{} pending transfers indexed, {} generated",
            indexer.pending_total(),
            stream.escrows.len()
        )
    })?;

    // Write and read paths, until the passes are done or the budget
    // is spent.
    let passes = options.scale.ingest_passes.max(1);
    let serving = Some((&indexer, options.scale.queries_per_block, per_query));
    let mut next = None;
    for pass in 0..passes {
        if pass > 0 && budget.done(log.cycles, log.measured) {
            break;
        }
        if pass + 1 < passes {
            let node = ingest(
                stream,
                &fresh_dir(root, "ingest")?,
                genesis,
                telemetry,
                serving,
                log,
            )?;
            check(node.utxo_count() == store.utxo_count(), || {
                format!(
                    "an ingest pass holds {} UTXOs, the recovered node {}",
                    node.utxo_count(),
                    store.utxo_count()
                )
            })?;
        } else {
            let dir = fresh_dir(root, &format!("torn-{}", (log.cycles + 1) % 2))?;
            let node = tear(
                ingest(stream, &dir, genesis, telemetry, serving, log)?,
                stream,
                &dir,
            )?;
            check(node.digest == torn.digest, || {
                "two ingests of the same stream committed different states".into()
            })?;
            next = Some(node);
        }
    }
    drop((indexer, store));
    let _ = std::fs::remove_dir_all(&torn.dir);
    log.cycles += 1;
    Ok(next)
}

/// Runs the workload.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let stream = Stream::generate(options);
    let generation = started.elapsed();
    let live: usize = stream
        .events
        .iter()
        .map(|e| match e {
            ChainEvent::Connected { created, spent, .. } => created.len() - spent.len(),
            ChainEvent::Disconnected { .. } => 0,
        })
        .sum();
    out.note("restart.blocks", stream.events.len());
    out.note("restart.live_utxos", live);
    out.note("restart.pending_escrows", stream.escrows.len());
    out.note(
        "input_generation_s",
        format!("{:.3}", generation.as_secs_f64()),
    );

    if !options.trace {
        let log = pass(
            &stream,
            options,
            &options.data_dir,
            &Telemetry::disabled(),
            options.budget,
            false,
        )?;
        let tails: Vec<f64> = log.ingest_tail.iter().map(|t| t.value).collect();
        let pass_tail = log.ingest_tail[0];
        out.attempted = log.ingest_ms.len() as u64 + log.queries;
        out.note("cycles", log.cycles);
        out.note("setups", log.setups.len());
        out.note("ticks", log.ingest_ms.len());
        out.note("cert_ticks", log.escrow_ingest_ms.len());
        out.note(
            "tick_ms_tail.percentile",
            format!("{:.2}", pass_tail.percentile),
        );
        out.note("tick_ms_tail.samples_beyond", pass_tail.beyond);
        out.note("ingest_passes", log.ingest_tail.len());
        out.note("queries", log.queries);
        out.note("measured_s", format!("{:.3}", log.measured.as_secs_f64()));
        out.note("cold_starts", log.cold_start_s.len());
        out.note("torn_bytes", log.torn_bytes);
        out.metric("setup_s", median(&log.setups), "s");
        out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        out.metric(
            "ops_per_s",
            log.queries as f64 / log.query_time.as_secs_f64(),
            "1/s",
        );
        out.metric("tick_ms_p50", median(&log.ingest_ms), "ms");
        out.metric("tick_ms_tail", median(&tails), "ms");
        out.metric("cert_tick_ms_p50", median(&log.escrow_ingest_ms), "ms");
        out.metric("cold_start_s", median(&log.cold_start_s), "s");
        return Ok(out);
    }

    let untraced = pass(
        &stream,
        options,
        &options.data_dir.join("untraced"),
        &Telemetry::disabled(),
        options.budget.half(),
        false,
    )?;
    let (telemetry, _recorder) = Telemetry::in_memory();
    let traced = pass(
        &stream,
        options,
        &options.data_dir.join("traced"),
        &telemetry,
        Budget::Steps(untraced.cycles),
        true,
    )?;
    let mut layers = Layers::default();
    layers.set("store.apply_us", median(&traced.apply_us));
    layers.set("store.commit_ms", median(&traced.commit_ms));
    layers.set("store.open_s", median(&traced.open_s));
    layers.set("store.records_replayed", traced.records_replayed as f64);
    layers.set("store.torn_bytes", traced.torn_bytes as f64);
    layers.set("indexer.rebuild_s", median(&traced.rebuild_s));
    layers.set("indexer.query.balance_ns_p50", median(&traced.balance_ns));
    layers.set(
        "indexer.query.pending_point_ns_p50",
        median(&traced.point_ns),
    );
    layers.set("indexer.query.pending_list_us_p50", median(&traced.list_us));
    layers.set(
        "trace.overhead_pct",
        (traced.measured.as_secs_f64() / untraced.measured.as_secs_f64() - 1.0) * 100.0,
    );
    let n = options.scale.primitive_ops;
    let hashes: Vec<Digest32> = stream.events.iter().map(ChainEvent::hash).collect();
    let signer = zendoo_primitives::schnorr::Keypair::from_seed(&options.seed.to_be_bytes());
    primitives::schnorr_on_messages(&signer, &hashes, n, &mut layers);
    primitives::vrf_prove(
        &primitives::sim_forger("sc-0", true),
        stream.events.len() as u64,
        n,
        &mut layers,
    );
    let leaves: Vec<Digest32> = stream.escrows.iter().map(|n| n.0).collect();
    primitives::poseidon_on_leaves(&leaves, n, &mut layers);

    out.attempted = (untraced.ingest_ms.len() + traced.ingest_ms.len()) as u64
        + untraced.queries
        + traced.queries;
    out.note("cycles_per_pass", untraced.cycles);
    layers.emit(&mut out);
    Ok(out)
}
