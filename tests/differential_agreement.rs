//! Differential test: the sans-IO state-machine lockstep driver, whose
//! OT rounds run on the `ModexpBatch` executor, must be bit-identical to
//! the monolithic key agreement it replaced.
//!
//! The oracle is `wavekey::core::reference::run_agreement`: the
//! pre-refactor protocol body on the scalar typed OT calls, with
//! identical RNG draw order (pairs → sender exponents → respond
//! exponents → commit → nonce) and the channel and timing stripped — on
//! a benign channel those cannot influence keys. Every session compares:
//!
//! * success/failure verdicts and error values,
//! * the established key bytes and bits,
//! * the preliminary-mismatch diagnostic,
//! * the *caller-visible RNG end-state* (the driver threads RNGs through
//!   the machines and copies them back, so chained runs must observe the
//!   same stream the monolith produced).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey::core::agreement::{run_agreement, AgreementConfig, AgreementError};
use wavekey::core::bits::{pack_bits, unpack_bits};
use wavekey::core::channel::{Delayer, Dropper, MessageKind, PassiveChannel};
use wavekey::core::reference::run_agreement as reference_agreement;
use wavekey::crypto::group::DhGroup;
use wavekey::crypto::ot::{OtReceiver, OtSender};

fn config() -> AgreementConfig {
    AgreementConfig { use_tiny_group: true, tau: 10.0, ..Default::default() }
}

fn random_seed(len: usize, rng_seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    (0..len).map(|_| rng.gen()).collect()
}

fn flip_bits(seed: &[bool], n: usize) -> Vec<bool> {
    let mut out = seed.to_vec();
    for i in 0..n {
        let idx = (i * 17 + 3) % out.len();
        out[idx] = !out[idx];
    }
    out
}

fn random_pairs(l_s: usize, l_b: usize, rng: &mut StdRng) -> Vec<(Vec<bool>, Vec<bool>)> {
    (0..l_s)
        .map(|_| {
            let a: Vec<bool> = (0..l_b).map(|_| rng.gen()).collect();
            let b: Vec<bool> = (0..l_b).map(|_| rng.gen()).collect();
            (a, b)
        })
        .collect()
}

fn payload_pairs(pairs: &[(Vec<bool>, Vec<bool>)]) -> Vec<(Vec<u8>, Vec<u8>)> {
    pairs.iter().map(|(a, b)| (pack_bits(a), pack_bits(b))).collect()
}

/// The next few draws of two RNGs must coincide — the observable
/// definition of "same end state" for a caller that keeps using them.
fn assert_same_stream(a: &mut StdRng, b: &mut StdRng, context: &str) {
    for i in 0..4 {
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{context}: draw {i} diverged");
    }
}

fn differential_session(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    session: u64,
) {
    let mut ref_rm = StdRng::seed_from_u64(1000 + session);
    let mut ref_rs = StdRng::seed_from_u64(2000 + session);
    let reference = reference_agreement(s_m, s_r, config, &mut ref_rm, &mut ref_rs);

    let mut new_rm = StdRng::seed_from_u64(1000 + session);
    let mut new_rs = StdRng::seed_from_u64(2000 + session);
    let new = run_agreement(s_m, s_r, config, &mut new_rm, &mut new_rs, &mut PassiveChannel);

    match (reference, new) {
        (Ok(r), Ok(n)) => {
            assert_eq!(n.key, r.key, "session {session}: key bytes diverged");
            assert_eq!(n.key_bits, unpack_bits(&r.key, config.key_len_bits));
            assert_eq!(
                n.preliminary_mismatch_bits, r.preliminary_mismatch_bits,
                "session {session}: mismatch diagnostic diverged"
            );
        }
        (Err(r), Err(n)) => {
            assert_eq!(n, r, "session {session}: error values diverged");
        }
        (r, n) => panic!(
            "session {session}: verdicts diverged (reference ok={}, new ok={})",
            r.is_ok(),
            n.is_ok()
        ),
    }
    assert_same_stream(&mut new_rm, &mut ref_rm, "mobile rng");
    assert_same_stream(&mut new_rs, &mut ref_rs, "server rng");
}

#[test]
fn driver_matches_monolith_over_seeded_tiny_sessions() {
    // ≥24 sessions across the verdict spectrum: identical seeds, small
    // (correctable) mismatch, borderline, and far-beyond-radius seeds.
    let mut session = 0u64;
    for base in 0..6u64 {
        for flips in [0usize, 1, 2, 24] {
            let s_m = random_seed(48, 7000 + base);
            let s_r = flip_bits(&s_m, flips);
            differential_session(&s_m, &s_r, &config(), session);
            session += 1;
        }
    }
    assert_eq!(session, 24);
}

#[test]
fn driver_matches_monolith_on_modp_1024() {
    // The production group; fixed-base exponent draws must line up too.
    let cfg = AgreementConfig { use_tiny_group: false, tau: 10.0, ..Default::default() };
    let s_m = random_seed(48, 7100);
    differential_session(&s_m, &s_m, &cfg, 50);
    let s_r = flip_bits(&s_m, 1);
    differential_session(&s_m, &s_r, &cfg, 51);
}

#[test]
fn driver_matches_monolith_on_the_fleet_group() {
    // WAVEKEY-1024: the batch executor takes the Crandall fold kernels
    // while the oracle's scalar calls stay on generic Montgomery.
    let cfg = AgreementConfig { fleet_group: true, tau: 10.0, ..Default::default() };
    let s_m = random_seed(48, 7150);
    differential_session(&s_m, &s_m, &cfg, 60);
    let s_r = flip_bits(&s_m, 2);
    differential_session(&s_m, &s_r, &cfg, 61);
}

#[test]
fn driver_preserves_rng_state_on_timeout() {
    // Timeout(OtA) aborts before either party's respond draws — exactly
    // as the monolith did; the caller's RNGs must reflect only the pair
    // generation and sender exponents.
    let cfg = AgreementConfig { use_tiny_group: true, tau: 0.5, ..Default::default() };
    let s = random_seed(48, 7200);
    let mut rm = StdRng::seed_from_u64(11);
    let mut rs = StdRng::seed_from_u64(12);
    let mut delayer = Delayer { target: Some(MessageKind::OtA), extra: 1.0 };
    let err = run_agreement(&s, &s, &cfg, &mut rm, &mut rs, &mut delayer).unwrap_err();
    assert_eq!(err, AgreementError::Timeout(MessageKind::OtA));

    let group = DhGroup::tiny_test_group();
    let l_b = cfg.key_len_bits.div_ceil(2 * s.len());
    let mut ref_rm = StdRng::seed_from_u64(11);
    let mut ref_rs = StdRng::seed_from_u64(12);
    let pairs = random_pairs(s.len(), l_b, &mut ref_rm);
    let _ = OtSender::start(&group, payload_pairs(&pairs), &mut ref_rm);
    let pairs = random_pairs(s.len(), l_b, &mut ref_rs);
    let _ = OtSender::start(&group, payload_pairs(&pairs), &mut ref_rs);
    assert_same_stream(&mut rm, &mut ref_rm, "mobile rng after timeout");
    assert_same_stream(&mut rs, &mut ref_rs, "server rng after timeout");
}

#[test]
fn driver_preserves_rng_state_on_drop() {
    // Dropped(OtE) aborts after both responds; encryption draws nothing.
    let cfg = config();
    let s = random_seed(48, 7300);
    let mut rm = StdRng::seed_from_u64(21);
    let mut rs = StdRng::seed_from_u64(22);
    let mut dropper = Dropper { target: MessageKind::OtE };
    let err = run_agreement(&s, &s, &cfg, &mut rm, &mut rs, &mut dropper).unwrap_err();
    assert_eq!(err, AgreementError::Dropped(MessageKind::OtE));

    let group = DhGroup::tiny_test_group();
    let l_b = cfg.key_len_bits.div_ceil(2 * s.len());
    let mut ref_rm = StdRng::seed_from_u64(21);
    let mut ref_rs = StdRng::seed_from_u64(22);
    let x_pairs = random_pairs(s.len(), l_b, &mut ref_rm);
    let (_, ma_m) = OtSender::start(&group, payload_pairs(&x_pairs), &mut ref_rm);
    let y_pairs = random_pairs(s.len(), l_b, &mut ref_rs);
    let (_, ma_r) = OtSender::start(&group, payload_pairs(&y_pairs), &mut ref_rs);
    let _ = OtReceiver::respond(&group, &s, &ma_r, &mut ref_rm).unwrap();
    let _ = OtReceiver::respond(&group, &s, &ma_m, &mut ref_rs).unwrap();
    assert_same_stream(&mut rm, &mut ref_rm, "mobile rng after drop");
    assert_same_stream(&mut rs, &mut ref_rs, "server rng after drop");
}
