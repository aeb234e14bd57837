//! Primitive timings on full-width operands taken from the workload:
//! real transaction signatures, the sim's Latus forger keys and field
//! elements derived the way the indexer derives its SMT leaves.

use std::hint::black_box;
use std::time::Instant;

use zendoo_mainchain::transaction::McTransaction;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::schnorr::Keypair;
use zendoo_primitives::{poseidon, vrf, Fp};

use crate::layers::Layers;
use crate::report::median;

/// Median microseconds of `op` over `n` timed calls.
fn median_us(n: usize, mut op: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n.max(1))
        .map(|i| {
            let started = Instant::now();
            op(i);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Schnorr verification over the input signatures of `txs` (each is
/// checked against its transaction's sighash, as admission does).
pub fn schnorr_on_transfers(txs: &[McTransaction], n: usize, layers: &mut Layers) {
    let checks: Vec<_> = txs
        .iter()
        .filter_map(|tx| match tx {
            McTransaction::Transfer(transfer) => Some(
                transfer
                    .inputs
                    .iter()
                    .map(move |input| (input.clone(), transfer.sighash())),
            ),
            _ => None,
        })
        .flatten()
        .take(n.max(1))
        .collect();
    assert!(!checks.is_empty(), "workload supplied no signed transfers");
    let us = median_us(n, |i| {
        let (input, sighash) = &checks[i % checks.len()];
        assert!(
            black_box(input.verify_signature(sighash)),
            "signature verifies"
        );
    });
    layers.set("primitives.schnorr_verify_us", us);
}

/// Schnorr verification of signatures by `signer` over `messages`
/// (workloads without transfer signatures of their own).
pub fn schnorr_on_messages(signer: &Keypair, messages: &[Digest32], n: usize, layers: &mut Layers) {
    const CONTEXT: &str = "perfbench/schnorr";
    let signed: Vec<_> = messages
        .iter()
        .take(n.max(1))
        .map(|m| (*m, signer.secret.sign(CONTEXT, m.as_bytes())))
        .collect();
    assert!(!signed.is_empty(), "workload supplied no messages");
    let us = median_us(n, |i| {
        let (message, signature) = &signed[i % signed.len()];
        assert!(black_box(signer.public.verify(
            CONTEXT,
            message.as_bytes(),
            signature
        )));
    });
    layers.set("primitives.schnorr_verify_us", us);
}

/// VRF evaluation with a Latus forger key over consecutive slots, as a
/// forger proves its slot leadership.
pub fn vrf_prove(forger: &Keypair, first_slot: u64, n: usize, layers: &mut Layers) {
    let us = median_us(n, |i| {
        black_box(vrf::prove(
            &forger.secret,
            &(first_slot + i as u64).to_be_bytes(),
        ));
    });
    layers.set("primitives.vrf_prove_us", us);
}

/// Poseidon `hash2` over pairs of leaves, each a digest reduced into
/// the field exactly as the indexer turns a nullifier into an SMT leaf.
pub fn poseidon_on_leaves(digests: &[Digest32], n: usize, layers: &mut Layers) {
    let leaves: Vec<Fp> = digests
        .iter()
        .map(|d| Fp::from_be_bytes_reduced(&d.0))
        .collect();
    assert!(leaves.len() >= 2, "workload supplied fewer than two leaves");
    let us = median_us(n, |i| {
        let a = &leaves[(2 * i) % leaves.len()];
        let b = &leaves[(2 * i + 1) % leaves.len()];
        black_box(poseidon::hash2(a, b));
    });
    layers.set("primitives.poseidon_hash2_us", us);
}

/// The forger key the sim gives sidechain `label` (the first declared
/// chain uses the bare seed).
pub fn sim_forger(label: &str, first: bool) -> Keypair {
    if first {
        Keypair::from_seed(b"sim-forger")
    } else {
        Keypair::from_seed(format!("sim-forger-{label}").as_bytes())
    }
}
