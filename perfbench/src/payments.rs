//! `payments`: the mainchain under payment load at a realistic
//! UTXO-set size.
//!
//! About 10⁴ keyed zipf users (`zendoo-loadgen`) plus about 10⁶ unowned
//! filler genesis outputs, beside two sidechains in the default
//! individual verification mode. Each tick admits one pre-signed batch
//! through `World::admit_mc_batch`, then calls `World::step`; every
//! offered payment must be admitted and confirmed in that tick's block.
//! Batches are signed before timing starts: each is generated with
//! `LoadGen::next_batch` and settled into the population at once, which
//! is exact because every offered payment confirms in the next block.
//! How many a run needs comes from [`WARMUP_TICKS`] untimed ticks.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use zendoo_core::ids::{Address, Amount};
use zendoo_loadgen::{LoadConfig, LoadGen, Population, Shape};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::TxOut;
use zendoo_primitives::digest::Digest32;
use zendoo_sim::{SimConfig, StepMode, World};

use crate::durable::{ColdStart, Persisted};
use crate::layers::Layers;
use crate::report::{check, median, ms, peak_rss_mb, reset_peak_rss, tail, Outcome};
use crate::{primitives, Budget, Options, SplitMix};

/// Untimed ticks before the measured ones: they warm the world and
/// time the ticks from which a run sizes its signed batches.
const WARMUP_TICKS: usize = 2;
/// Batches signed per tick the warm-up predicts for the budget, so a
/// run rarely runs out before its budget is spent.
const HEADROOM: f64 = 1.1;
/// Sidechains beside the payment load.
const SIDECHAINS: usize = 2;
/// Cold starts a run spreads evenly over its measured ticks.
const COLD_STARTS: usize = 5;

/// The generated inputs: the population's and the filler's genesis
/// outputs, and the traffic generator once bound to the genesis block.
struct Inputs {
    load: LoadConfig,
    population: Option<Population>,
    genesis_outputs: Vec<TxOut>,
}

impl Inputs {
    fn generate(options: &Options) -> Inputs {
        let load = LoadConfig {
            users: options.scale.users,
            seed: options.seed,
            ..LoadConfig::default()
        };
        let population = Population::generate(&load);
        let mut genesis_outputs = population.genesis_outputs();
        let mut rng = SplitMix::new(options.seed, 0xf111);
        genesis_outputs.extend((0..options.scale.filler as u64).map(|i| {
            let owner = Digest32::hash_tagged(
                "perfbench.filler",
                &[&options.seed.to_be_bytes(), &i.to_be_bytes()],
            );
            TxOut::regular(Address(owner), Amount::from_units(1_000 + rng.below(9_000)))
        }));
        Inputs {
            load,
            population: Some(population),
            genesis_outputs,
        }
    }

    fn config(&self, options: &Options, telemetry: bool) -> SimConfig {
        SimConfig {
            step_mode: StepMode::Sharded {
                workers: Some(options.lanes),
            },
            telemetry,
            seed: format!("perfbench-payments-{}", options.seed).into_bytes(),
            extra_genesis_outputs: self.genesis_outputs.clone(),
            ..SimConfig::with_sidechains(SIDECHAINS)
        }
    }

    /// Binds the population to `world`'s genesis block and returns its
    /// traffic generator.
    fn traffic(&mut self, world: &World, named_users: usize) -> LoadGen {
        let mut population = self.population.take().expect("traffic is bound once");
        population.bind_genesis(&world.chain, named_users as u32);
        LoadGen::new(population, Shape::Zipf { exponent: 1.0 }, &self.load)
    }
}

/// Signs `count` batches of `size` payments, settling each into the
/// population as it is made.
fn sign(
    traffic: &mut LoadGen,
    count: usize,
    size: usize,
) -> Result<Vec<Vec<McTransaction>>, String> {
    (0..count)
        .map(|_| {
            let batch = traffic.next_batch(size);
            check(batch.len() == size, || {
                format!("generator offered {} of {size} payments", batch.len())
            })?;
            traffic
                .population_mut()
                .settle(batch.iter().map(McTransaction::txid));
            Ok(batch)
        })
        .collect()
}

/// Batches a run signs for `budget`, given the warm-up ticks' times.
fn batches_for(budget: Budget, warmup: &Ticks) -> usize {
    match budget {
        Budget::Steps(n) => n as usize,
        Budget::Seconds(seconds) => {
            let fastest = warmup.tick_ms.iter().copied().fold(f64::INFINITY, f64::min);
            (seconds * 1e3 / fastest * HEADROOM).ceil() as usize
        }
    }
}

/// What one tick loop measured.
#[derive(Default)]
struct Ticks {
    tick_ms: Vec<f64>,
    cert_tick_ms: Vec<f64>,
    admit_ms: Vec<f64>,
    step_ms: Vec<f64>,
    measured: Duration,
    confirmed: u64,
    sig_checks: u64,
    cold: ColdStart,
}

/// Runs a tick per batch until `budget` is spent or the batches run
/// out, checking that every payment is admitted and confirmed in its
/// tick's block. With `cold`, [`COLD_STARTS`] cold starts of the
/// persisted store run between ticks, one each time another share of
/// the budget is spent; they are not part of the ticks' time.
fn drive(
    world: &mut World,
    batches: Vec<Vec<McTransaction>>,
    budget: Budget,
    lanes: usize,
    cold: Option<(&Persisted, &Path)>,
) -> Result<Ticks, String> {
    let mut log = Ticks::default();
    for batch in batches {
        let ticks = log.tick_ms.len() as u64;
        if budget.done(ticks, log.measured) {
            break;
        }
        if let Some((persisted, exe)) = cold {
            let due = log.cold.count() as f64 / COLD_STARTS as f64;
            if log.cold.count() < COLD_STARTS && budget.spent(ticks, log.measured) >= due {
                persisted.cold_start_in_child(exe, &mut log.cold)?;
            }
        }
        let offered = batch.len();
        let txids: Vec<Digest32> = batch.iter().map(McTransaction::txid).collect();
        let certs_before = world.metrics.certificates_produced;

        let started = Instant::now();
        let report = world.admit_mc_batch(batch, lanes);
        let admitted = Instant::now();
        world
            .step()
            .map_err(|e| format!("tick {}: {e}", log.tick_ms.len()))?;
        let stepped = Instant::now();

        let tick = stepped - started;
        log.measured += tick;
        log.tick_ms.push(ms(tick));
        log.admit_ms.push(ms(admitted - started));
        log.step_ms.push(ms(stepped - admitted));
        if world.metrics.certificates_produced > certs_before {
            log.cert_tick_ms.push(ms(tick));
        }
        log.sig_checks += report.sig_checks as u64;
        check(report.admitted == offered, || {
            format!(
                "admitted {} of {offered} payments: {report:?}",
                report.admitted
            )
        })?;
        let tip = world.chain.tip_hash();
        let block = world.chain.block(&tip).ok_or("tip block missing")?;
        let mined: HashSet<Digest32> = block.transactions.iter().map(McTransaction::txid).collect();
        let confirmed = txids.iter().filter(|id| mined.contains(id)).count();
        check(confirmed == offered, || {
            format!("{confirmed} of {offered} admitted payments confirmed in the next block")
        })?;
        log.confirmed += confirmed as u64;
    }
    check(!log.tick_ms.is_empty(), || "no tick measured".into())?;
    check(world.metrics.rejections == 0, || {
        format!("{} transactions refused", world.metrics.rejections)
    })?;
    check(
        world.conservation_holds() && world.safeguards_hold(),
        || "conservation or the sidechain safeguard broke".into(),
    )?;
    Ok(log)
}

/// A pass's signed batches: those its warm-up ticks ran, and those
/// signed for its measured ticks.
struct Signed {
    warmup: Vec<Vec<McTransaction>>,
    measured: Vec<Vec<McTransaction>>,
    /// Time spent signing.
    generation: Duration,
}

/// Runs the warm-up ticks on `world`, then signs the batches `budget`
/// needs.
fn warm_up(
    world: &mut World,
    traffic: &mut LoadGen,
    options: &Options,
    budget: Budget,
) -> Result<Signed, String> {
    let size = options.scale.batch;
    let started = Instant::now();
    let warmup = sign(traffic, WARMUP_TICKS, size)?;
    let mut generation = started.elapsed();
    let ticks = drive(
        world,
        warmup.clone(),
        Budget::Steps(WARMUP_TICKS as u64),
        options.lanes,
        None,
    )?;
    let started = Instant::now();
    let measured = sign(traffic, batches_for(budget, &ticks), size)?;
    generation += started.elapsed();
    Ok(Signed {
        warmup,
        measured,
        generation,
    })
}

/// Runs the workload.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut inputs = Inputs::generate(options);
    let mut generation = started.elapsed();
    let named_users = SimConfig::default().genesis_users.len();
    out.note("payments.users", options.scale.users);
    out.note("payments.filler_outputs", options.scale.filler);
    out.note("payments.batch", options.scale.batch);
    out.note("payments.warmup_ticks", WARMUP_TICKS);

    if !options.trace {
        let mut setups = Vec::new();
        let mut world = None;
        let mut persisted = None;
        for _ in 0..options.scale.setups.max(1) {
            drop(world.take());
            let config = inputs.config(options, false);
            let started = Instant::now();
            let built = World::new(config);
            setups.push(started.elapsed().as_secs_f64());
            // The cold starts reopen the genesis state, written during
            // set-up so that its memory is not part of the ticks' peak.
            if persisted.is_none() {
                persisted = Some(Persisted::write(
                    &built.chain,
                    &options.data_dir,
                    "cold-start",
                )?);
            }
            world = Some(built);
        }
        let mut world = world.expect("at least one set-up");
        let persisted = persisted.expect("written at the first set-up");
        // World::new's transient peak lies above the tick loop's, so
        // peak_rss_mb restarts after set-up and covers the ticks only.
        let set_up_rss = peak_rss_mb()?;
        reset_peak_rss()?;
        let mut traffic = inputs.traffic(&world, named_users);
        let signed = warm_up(&mut world, &mut traffic, options, options.budget)?;
        generation += signed.generation;
        let batches_signed = signed.measured.len();
        let log = drive(
            &mut world,
            signed.measured,
            options.budget,
            options.lanes,
            Some((&persisted, &options.exe)),
        )?;
        let peak_rss = peak_rss_mb()?;
        drop(world);

        let tick_tail = tail(&log.tick_ms);
        check(!log.cert_tick_ms.is_empty(), || {
            "no certificate tick measured".into()
        })?;
        out.attempted = log.tick_ms.len() as u64 * options.scale.batch as u64;
        out.note("setups", setups.len());
        out.note("batches_signed", batches_signed);
        out.note("ticks", log.tick_ms.len());
        out.note("measured_s", format!("{:.3}", log.measured.as_secs_f64()));
        out.note("cert_ticks", log.cert_tick_ms.len());
        out.note(
            "tick_ms_tail.percentile",
            format!("{:.2}", tick_tail.percentile),
        );
        out.note("tick_ms_tail.samples_beyond", tick_tail.beyond);
        out.note("peak_rss_mb.setup", format!("{set_up_rss:.1}"));
        out.note("cold_starts", log.cold.count());
        out.note("confirmed_payments", log.confirmed);
        out.note(
            "input_generation_s",
            format!("{:.3}", generation.as_secs_f64()),
        );
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
        out.metric(
            "ops_per_s",
            log.confirmed as f64 / log.measured.as_secs_f64(),
            "1/s",
        );
        out.metric("tick_ms_p50", median(&log.tick_ms), "ms");
        out.metric("tick_ms_tail", tick_tail.value, "ms");
        out.metric("cert_tick_ms_p50", median(&log.cert_tick_ms), "ms");
        out.metric("cold_start_s", log.cold.median(), "s");
        return Ok(out);
    }

    // Traced: an untraced pass sets the amount of work, a traced pass
    // repeats exactly the same batches on an identical world.
    let (signed, untraced) = {
        let mut world = World::new(inputs.config(options, false));
        let mut traffic = inputs.traffic(&world, named_users);
        let signed = warm_up(&mut world, &mut traffic, options, options.budget.half())?;
        let log = drive(
            &mut world,
            signed.measured.clone(),
            options.budget.half(),
            options.lanes,
            None,
        )?;
        (signed, log)
    };
    generation += signed.generation;
    let ticks = untraced.tick_ms.len();
    let mut world = World::new(inputs.config(options, true));
    drive(
        &mut world,
        signed.warmup,
        Budget::Steps(WARMUP_TICKS as u64),
        options.lanes,
        None,
    )?;
    let traced = drive(
        &mut world,
        signed.measured[..ticks].to_vec(),
        Budget::Steps(ticks as u64),
        options.lanes,
        None,
    )?;
    check(traced.tick_ms.len() == ticks, || {
        "traced pass ran short".into()
    })?;
    let snapshot = world.telemetry_snapshot();

    let mut layers = Layers::default();
    layers.set("sim.step_ms", median(&traced.step_ms));
    layers.set("mainchain.admit_ms", median(&traced.admit_ms));
    layers.set("mainchain.admit.sig_checks", traced.sig_checks as f64);
    // The snapshot covers the warm-up ticks too.
    layers.copy_sim_telemetry(&snapshot, (WARMUP_TICKS + ticks) as u64);
    layers.set(
        "trace.overhead_pct",
        (traced.measured.as_secs_f64() / untraced.measured.as_secs_f64() - 1.0) * 100.0,
    );
    let n = options.scale.primitive_ops;
    let sample = &signed.measured[0];
    primitives::schnorr_on_transfers(sample, n, &mut layers);
    primitives::vrf_prove(
        &primitives::sim_forger("sc-0", true),
        world.chain.height(),
        n,
        &mut layers,
    );
    let txids: Vec<Digest32> = sample.iter().map(McTransaction::txid).collect();
    primitives::poseidon_on_leaves(&txids, n, &mut layers);
    let persisted = Persisted::write(&world.chain, &options.data_dir, "cold-start")?;
    drop(world);
    let mut cold = ColdStart::default();
    persisted.cold_start_in_child(&options.exe, &mut cold)?;
    cold.layers(&mut layers);

    out.attempted = 2 * ticks as u64 * options.scale.batch as u64;
    out.note("ticks_per_pass", ticks);
    out.note(
        "input_generation_s",
        format!("{:.3}", generation.as_secs_f64()),
    );
    layers.emit(&mut out);
    Ok(out)
}
