//! `xchain_ring`: sixteen Latus sidechains, each sending a cross-chain
//! transfer to its ring successor every withdrawal epoch, under
//! aggregated verification.
//!
//! The run is a sequence of rounds, each on a freshly built world, so
//! a round's memory and per-tick cost do not depend on how many rounds
//! the budget allows. In a round one genesis user per sidechain funds
//! its chain at tick 0 through the funding `Schedule`; in each of the
//! next [`ROUND_EPOCHS`] epochs every user sends from its chain to the
//! next one at the epoch's second tick. Each transfer rides that
//! epoch's certificate into escrow and settles when it matures. The
//! round then steps until every transfer is delivered and every
//! certificate accepted; those ticks are measured too. A tick's time
//! covers the funding and ring transfers submitted before it (client
//! signing and Latus admission) and `World::step`; building the world
//! is a set-up sample.
//!
//! A sidechain refuses a transaction whose output lands on an occupied
//! MST slot (the collision failure mode of Zendoo §5.3.2). The sending
//! client then rebuilds the transfer one unit smaller, as a Latus
//! wallet must; the header reports how often that happened.

use std::time::{Duration, Instant};

use zendoo_latus::node::NodeError;
use zendoo_latus::tx::TxError;
use zendoo_primitives::digest::Digest32;
use zendoo_sim::{Action, Schedule, SimConfig, SimError, StepMode, VerifyMode, World};
use zendoo_telemetry::Snapshot;

use crate::durable::Persisted;
use crate::layers::Layers;
use crate::report::{check, median, ms, peak_rss_mb, tail, Outcome};
use crate::{primitives, Budget, Options, SplitMix};

/// Withdrawal epoch length in mainchain blocks.
const EPOCH_LEN: u64 = 20;
/// Sending epochs per round.
const ROUND_EPOCHS: u64 = 5;
/// Units each user moves onto its sidechain at tick 0.
const FUNDING: u64 = 500_000;
/// Epochs a round may take to settle after its last send.
const DRAIN_EPOCHS: u64 = 4;
/// Rebuilds a client attempts after MST slot collisions.
const COLLISION_RETRIES: u64 = 4;

/// The ring's inputs.
struct Ring {
    chains: usize,
    funding: Schedule,
}

impl Ring {
    fn generate(options: &Options) -> Ring {
        let chains = options.scale.ring_chains;
        let funding = (0..chains).fold(Schedule::new(), |schedule, i| {
            schedule.at(0, Action::ForwardTransferTo(i, user(i), FUNDING))
        });
        Ring { chains, funding }
    }

    fn config(&self, options: &Options, telemetry: bool) -> SimConfig {
        SimConfig {
            step_mode: StepMode::Sharded {
                workers: Some(options.lanes),
            },
            verify_mode: VerifyMode::Aggregated,
            telemetry,
            epoch_len: EPOCH_LEN as u32,
            seed: format!("perfbench-xchain-ring-{}", options.seed).into_bytes(),
            genesis_users: (0..self.chains).map(|i| (user(i), 1_000_000)).collect(),
            ..SimConfig::with_sidechains(self.chains)
        }
    }

    /// The amounts round `round` sends: `[epoch][chain]`.
    fn amounts(&self, seed: u64, round: u64) -> Vec<Vec<u64>> {
        let mut rng = SplitMix::new(seed, 0x41c0_0000 + round);
        (0..ROUND_EPOCHS)
            .map(|_| (0..self.chains).map(|_| 1_000 + rng.below(1_000)).collect())
            .collect()
    }
}

fn user(i: usize) -> String {
    format!("u{i}")
}

/// Sends one ring transfer, rebuilding it one unit smaller while its
/// output collides with an occupied MST slot. Returns the rebuilds.
fn send(world: &mut World, from: usize, to: usize, amount: u64) -> Result<u64, String> {
    let source = world.sidechain_id_at(from).map_err(|e| e.to_string())?;
    let dest = world.sidechain_id_at(to).map_err(|e| e.to_string())?;
    for rebuilds in 0..=COLLISION_RETRIES {
        match world.queue_cross_transfer(&source, &dest, &user(from), amount - rebuilds) {
            Ok(_) => return Ok(rebuilds),
            Err(SimError::Node(NodeError::Tx(
                TxError::OutputCollision { .. } | TxError::IntraTxCollision { .. },
            ))) => continue,
            Err(e) => return Err(format!("transfer {from} -> {to} refused: {e}")),
        }
    }
    Err(format!(
        "transfer {from} -> {to} collided {} times",
        COLLISION_RETRIES + 1
    ))
}

/// What the rounds of one pass measured.
#[derive(Default)]
struct Ticks {
    setups: Vec<f64>,
    tick_ms: Vec<f64>,
    step_ms: Vec<f64>,
    cert_tick_ms: Vec<f64>,
    measured: Duration,
    rounds: u64,
    delivered: u64,
    rebuilds: u64,
    /// Telemetry of every round (traced passes only).
    snapshot: Snapshot,
}

/// Runs one round on a fresh world and checks its outcome; returns the
/// world.
fn round(
    ring: &Ring,
    options: &Options,
    telemetry: bool,
    log: &mut Ticks,
) -> Result<World, String> {
    let amounts = ring.amounts(options.seed, log.rounds);
    let config = ring.config(options, telemetry);
    let started = Instant::now();
    let mut world = World::new(config);
    log.setups.push(started.elapsed().as_secs_f64());

    let last_send = ROUND_EPOCHS * EPOCH_LEN + 1;
    let drain_limit = last_send + DRAIN_EPOCHS * EPOCH_LEN;
    let mut tick = 0u64;
    loop {
        let certs_before = world.metrics.certificates_produced;
        let started = Instant::now();
        ring.funding.fire(&mut world, tick);
        if tick % EPOCH_LEN == 1 && (1..=ROUND_EPOCHS).contains(&(tick / EPOCH_LEN)) {
            for (from, amount) in amounts[(tick / EPOCH_LEN - 1) as usize].iter().enumerate() {
                log.rebuilds += send(&mut world, from, (from + 1) % ring.chains, *amount)?;
            }
        }
        let submitted = Instant::now();
        world.step().map_err(|e| format!("tick {tick}: {e}"))?;
        let stepped = Instant::now();
        let took = stepped - started;
        log.measured += took;
        log.tick_ms.push(ms(took));
        log.step_ms.push(ms(stepped - submitted));
        if world.metrics.certificates_produced > certs_before {
            log.cert_tick_ms.push(ms(took));
        }
        tick += 1;
        let m = &world.metrics;
        if tick > last_send
            && m.cross_transfers_delivered == m.cross_transfers_initiated
            && m.certificates_accepted == m.certificates_produced
        {
            break;
        }
        check(tick < drain_limit, || {
            format!(
                "round did not settle: {} of {} transfers delivered, {} of {} certificates accepted",
                m.cross_transfers_delivered,
                m.cross_transfers_initiated,
                m.certificates_accepted,
                m.certificates_produced
            )
        })?;
    }
    let m = &world.metrics;
    let expected = ROUND_EPOCHS * ring.chains as u64;
    check(m.cross_transfers_initiated == expected, || {
        format!(
            "{} transfers initiated, {expected} scheduled",
            m.cross_transfers_initiated
        )
    })?;
    check(
        m.cross_transfers_refunded == 0 && m.cross_transfers_rejected == 0,
        || {
            format!(
                "{} refunded, {} rejected",
                m.cross_transfers_refunded, m.cross_transfers_rejected
            )
        },
    )?;
    check(m.rejections == 0, || {
        format!("{} actions or transactions refused", m.rejections)
    })?;
    check(
        world.conservation_holds() && world.safeguards_hold(),
        || "conservation or the sidechain safeguard broke".into(),
    )?;
    log.delivered += m.cross_transfers_delivered;
    log.rounds += 1;
    log.snapshot.merge(&world.telemetry_snapshot());
    Ok(world)
}

/// Runs rounds until `budget` (rounds, or measured seconds) is spent,
/// measuring the whole number of rounds nearest a timed budget;
/// returns the last round's world.
fn drive(
    ring: &Ring,
    options: &Options,
    budget: Budget,
    telemetry: bool,
) -> Result<(Ticks, World), String> {
    let mut log = Ticks::default();
    let mut world = round(ring, options, telemetry, &mut log)?;
    while !budget.done_nearest(log.rounds, log.measured, log.measured / log.rounds as u32) {
        drop(world);
        world = round(ring, options, telemetry, &mut log)?;
    }
    Ok((log, world))
}

/// Runs the workload.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ring = Ring::generate(options);
    out.note("xchain_ring.chains", ring.chains);
    out.note("xchain_ring.epoch_len", EPOCH_LEN);
    out.note("xchain_ring.epochs_per_round", ROUND_EPOCHS);

    if !options.trace {
        let (log, world) = drive(&ring, options, options.budget, false)?;
        let peak_rss = peak_rss_mb()?;
        let persisted = Persisted::write(&world.chain, &options.data_dir, "cold-start")?;
        drop(world);
        let cold = persisted.reopen_repeatedly(options.scale.setups)?;

        let tick_tail = tail(&log.tick_ms);
        check(!log.cert_tick_ms.is_empty(), || {
            "no certificate tick measured".into()
        })?;
        out.attempted = log.rounds * ROUND_EPOCHS * ring.chains as u64;
        out.note("rounds", log.rounds);
        out.note("setups", log.setups.len());
        out.note("ticks", log.tick_ms.len());
        out.note("cert_ticks", log.cert_tick_ms.len());
        out.note(
            "tick_ms_tail.percentile",
            format!("{:.2}", tick_tail.percentile),
        );
        out.note("tick_ms_tail.samples_beyond", tick_tail.beyond);
        out.note("cold_starts", cold.count());
        out.note("delivered_transfers", log.delivered);
        out.note("mst_collision_rebuilds", log.rebuilds);
        out.metric("setup_s", median(&log.setups), "s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
        out.metric(
            "ops_per_s",
            log.delivered as f64 / log.measured.as_secs_f64(),
            "1/s",
        );
        out.metric("tick_ms_p50", median(&log.tick_ms), "ms");
        out.metric("tick_ms_tail", tick_tail.value, "ms");
        out.metric("cert_tick_ms_p50", median(&log.cert_tick_ms), "ms");
        out.metric("cold_start_s", cold.fastest(), "s");
        return Ok(out);
    }

    let (untraced, world) = drive(&ring, options, options.budget.half(), false)?;
    drop(world);
    let (traced, world) = drive(&ring, options, Budget::Steps(untraced.rounds), true)?;
    check(traced.tick_ms.len() == untraced.tick_ms.len(), || {
        format!(
            "traced pass ran {} ticks, untraced {}",
            traced.tick_ms.len(),
            untraced.tick_ms.len()
        )
    })?;
    let mut layers = Layers::default();
    layers.set("sim.step_ms", median(&traced.step_ms));
    layers.copy_sim_telemetry(&traced.snapshot, traced.tick_ms.len() as u64);
    layers.set(
        "trace.overhead_pct",
        (traced.measured.as_secs_f64() / untraced.measured.as_secs_f64() - 1.0) * 100.0,
    );
    let n = options.scale.primitive_ops;
    let nullifiers: Vec<Digest32> = world
        .router
        .receipts_since(0)
        .iter()
        .map(|r| r.transfer.nullifier.0)
        .collect();
    let sender = world.user(&user(0)).map_err(|e| e.to_string())?;
    let first_chain = world.sidechain_id_at(0).map_err(|e| e.to_string())?;
    primitives::schnorr_on_messages(sender.sc_keys_on(&first_chain), &nullifiers, n, &mut layers);
    primitives::vrf_prove(
        &primitives::sim_forger("sc-1", false),
        world.chain.height(),
        n,
        &mut layers,
    );
    primitives::poseidon_on_leaves(&nullifiers, n, &mut layers);
    let persisted = Persisted::write(&world.chain, &options.data_dir, "cold-start")?;
    drop(world);
    persisted.reopen_repeatedly(1)?.layers(&mut layers);

    out.attempted = 2 * untraced.rounds * ROUND_EPOCHS * ring.chains as u64;
    out.note("rounds_per_pass", untraced.rounds);
    out.note("ticks_per_pass", traced.tick_ms.len());
    out.note(
        "mst_collision_rebuilds",
        untraced.rebuilds + traced.rebuilds,
    );
    layers.emit(&mut out);
    Ok(out)
}
