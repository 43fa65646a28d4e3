//! The scalar-OT reference agreement: the oracle every production
//! driver is pinned to.
//!
//! [`run_agreement`] is the monolithic key agreement the protocol
//! machines replaced: both parties in one function, a benign channel and
//! no clocks. Every OT round runs on the scalar per-instance calls
//! ([`OtSender::start`], [`OtReceiver::respond`], [`OtSender::encrypt`],
//! [`OtReceiver::decrypt`]) rather than the `ModexpBatch` route the
//! machines take. It draws from each party's RNG in the monolith's order
//! (pairs → sender exponents → respond exponents → commit → nonce), so on
//! a benign channel [`crate::agreement::run_agreement`], the
//! `SessionManager` and the gateway must reproduce its keys, and leave
//! the callers' RNGs in the same state, bit for bit.

use crate::agreement::{finalize_key, payload_pairs, random_pairs, AgreementConfig, AgreementError};
use crate::bits::{deinterleave, hamming_distance, interleave, unpack_bits};
use crate::proto::GroupSlot;
use rand::rngs::StdRng;
use rand::Rng;
use wavekey_crypto::ecc::{Bch, CodeOffset};
use wavekey_crypto::hmac::{hmac_sha256, mac_eq};
use wavekey_crypto::ot::{OtReceiver, OtSender};

const ECC_BLOCK: usize = crate::agreement::ECC_BLOCK;
const NONCE_LEN: usize = crate::agreement::NONCE_LEN;

/// What the reference agreement establishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceOutcome {
    /// The mobile's key bytes.
    pub key: Vec<u8>,
    /// The key the server reconciled to (equal to `key` on success).
    pub server_key: Vec<u8>,
    /// Hamming distance between the two preliminary keys.
    pub preliminary_mismatch_bits: usize,
}

/// Runs one agreement between seeds `s_m` and `s_r` on the scalar OT
/// route.
///
/// # Errors
///
/// [`AgreementError::BadSeeds`] for empty or unequal seeds,
/// [`AgreementError::Config`] for an invalid BCH capacity, and the
/// benign-channel verdicts [`AgreementError::ReconciliationFailed`] and
/// [`AgreementError::ConfirmationFailed`].
pub fn run_agreement(
    s_m: &[bool],
    s_r: &[bool],
    config: &AgreementConfig,
    rng_mobile: &mut StdRng,
    rng_server: &mut StdRng,
) -> Result<ReferenceOutcome, AgreementError> {
    if s_m.is_empty() || s_m.len() != s_r.len() {
        return Err(AgreementError::BadSeeds);
    }
    let co = CodeOffset::new(
        Bch::new(config.bch_t).map_err(|e| AgreementError::Config(e.to_string()))?,
    );
    let slot = GroupSlot::from_config(config);
    let group = slot.get();
    let l_s = s_m.len();
    let l_b = config.key_len_bits.div_ceil(2 * l_s);
    let ot = |e| AgreementError::Wire(format!("benign OT round failed: {e}"));

    let x_pairs = random_pairs(l_s, l_b, rng_mobile);
    let (mobile_sender, ma_m) = OtSender::start(group, payload_pairs(&x_pairs), rng_mobile);
    let y_pairs = random_pairs(l_s, l_b, rng_server);
    let (server_sender, ma_r) = OtSender::start(group, payload_pairs(&y_pairs), rng_server);

    let (mobile_receiver, mb_m) = OtReceiver::respond(group, s_m, &ma_r, rng_mobile).map_err(ot)?;
    let (server_receiver, mb_r) = OtReceiver::respond(group, s_r, &ma_m, rng_server).map_err(ot)?;

    let me_m = mobile_sender.encrypt(group, &mb_r).map_err(ot)?;
    let me_r = server_sender.encrypt(group, &mb_m).map_err(ot)?;

    // K_M = x^{sm} ‖ y^{sm} per instance; K_R = x^{sr} ‖ y^{sr}.
    let y_received = mobile_receiver.decrypt(group, &me_r).map_err(ot)?;
    let mut k_m: Vec<bool> = Vec::with_capacity(2 * l_s * l_b);
    for i in 0..l_s {
        let own = if s_m[i] { &x_pairs[i].1 } else { &x_pairs[i].0 };
        k_m.extend_from_slice(own);
        k_m.extend(unpack_bits(&y_received[i], l_b));
    }
    let x_received = server_receiver.decrypt(group, &me_m).map_err(ot)?;
    let mut k_r: Vec<bool> = Vec::with_capacity(2 * l_s * l_b);
    for i in 0..l_s {
        k_r.extend(unpack_bits(&x_received[i], l_b));
        let own = if s_r[i] { &y_pairs[i].1 } else { &y_pairs[i].0 };
        k_r.extend_from_slice(own);
    }
    let preliminary_mismatch_bits = hamming_distance(&k_m, &k_r);

    let k_len = 2 * l_s * l_b;
    let blocks = k_len.div_ceil(ECC_BLOCK);
    let helper = co.commit(&interleave(&k_m, blocks, ECC_BLOCK), rng_mobile);
    let mut nonce = [0u8; NONCE_LEN];
    rng_mobile.fill(&mut nonce);

    let k_r_inter = interleave(&k_r, blocks, ECC_BLOCK);
    let Some(recovered_inter) = co.reconcile(&k_r_inter, &helper, blocks * ECC_BLOCK) else {
        return Err(AgreementError::ReconciliationFailed);
    };
    let k_server = deinterleave(&recovered_inter, blocks, ECC_BLOCK, k_len);
    let server_key = finalize_key(&k_server, config, &nonce);
    let response = hmac_sha256(&server_key, &nonce);

    let key = finalize_key(&k_m, config, &nonce);
    if !mac_eq(&hmac_sha256(&key, &nonce), &response) {
        return Err(AgreementError::ConfirmationFailed);
    }
    Ok(ReferenceOutcome { key, server_key, preliminary_mismatch_bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn seed(len: usize, base: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(base);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn both_parties_agree_and_bad_inputs_are_typed() {
        let config = AgreementConfig { use_tiny_group: true, ..Default::default() };
        let s = seed(48, 1);
        let mut rm = StdRng::seed_from_u64(2);
        let mut rs = StdRng::seed_from_u64(3);
        let out = run_agreement(&s, &s, &config, &mut rm, &mut rs).expect("identical seeds agree");
        assert_eq!(out.key, out.server_key);
        assert_eq!(out.key.len(), 32);
        assert_eq!(out.preliminary_mismatch_bits, 0);

        let mut far = s.clone();
        for bit in far.iter_mut().take(24) {
            *bit = !*bit;
        }
        assert!(run_agreement(&s, &far, &config, &mut rm, &mut rs).is_err());
        assert_eq!(
            run_agreement(&s, &s[..47], &config, &mut rm, &mut rs),
            Err(AgreementError::BadSeeds)
        );
    }
}
