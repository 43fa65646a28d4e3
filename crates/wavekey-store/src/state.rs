//! The replayable tenant/ticket/key state machine.
//!
//! `StoreState` is a pure fold over journal records: `apply` is total and
//! deterministic, so any two replays of the same record prefix are
//! bit-identical — the property the recovery soak gates on. Tickets are
//! held in sharded per-tenant maps (EPC-hash sharding) so hot multi-tenant
//! lookups don't contend on one tree; canonical serialization iterates
//! tenants, shards and EPCs in a fixed order and excludes every ephemeral
//! field (LRU stamps, rate-limit tokens), making `serialize()` a stable
//! fingerprint of durable state.

use std::collections::BTreeMap;

use crate::record::{RecordBody, RecordError, MAX_KEY_LEN};
use crate::{fnv_mix, mix};

/// Number of ticket shards per tenant. Eight keeps trees shallow for the
/// fleet sizes the gateway soak drives without bloating tiny tenants.
pub const TICKET_SHARDS: usize = 8;

/// Serialization format version for snapshots.
pub const STATE_VERSION: u8 = 1;

/// Fixed per-ticket bookkeeping cost used by the memory-ceiling
/// accounting: EPC + serial/generation/flags + map overhead estimate.
pub const TICKET_OVERHEAD_BYTES: usize = 64;

/// Durable per-tenant quota configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum live (unrevoked) tickets.
    pub max_tickets: u32,
    /// Enrolment token-bucket capacity.
    pub enroll_burst: u32,
    /// Tokens refilled per `tick()`.
    pub enroll_refill: u32,
}

impl TenantQuota {
    /// Effectively no limits — the default tenant of a single-tenant
    /// service behaves exactly like the pre-durability `AccessService`.
    pub fn unlimited() -> Self {
        TenantQuota {
            max_tickets: u32::MAX,
            enroll_burst: u32::MAX,
            enroll_refill: u32::MAX,
        }
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota::unlimited()
    }
}

/// One issued ticket (EPC) and its key lineage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TicketState {
    /// Tag model byte recorded at issue time.
    pub model: u8,
    /// Issue serial (doubles as lineup queue position).
    pub serial: u32,
    /// Key generation: 0 = never bound, then 1, 2, … per bind/rotate.
    pub generation: u32,
    /// Current key material; `None` when unbound, revoked, or evicted.
    pub key: Option<Vec<u8>>,
    /// Ticket has been revoked; key material is gone for good.
    pub revoked: bool,
    /// Ephemeral: key was evicted under memory pressure and can be
    /// reloaded from the journal. Never serialized.
    pub evicted: bool,
    /// Ephemeral: LRU stamp. Never serialized.
    pub last_access: u64,
}

/// One tenant: quota, serial counter, and sharded tickets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantState {
    pub quota: TenantQuota,
    pub next_serial: u32,
    shards: Vec<BTreeMap<[u8; 12], TicketState>>,
    /// Ephemeral enrolment tokens (refilled by `tick`). Never serialized.
    pub tokens: u32,
}

impl TenantState {
    fn new(quota: TenantQuota) -> Self {
        TenantState {
            quota,
            next_serial: 0,
            shards: vec![BTreeMap::new(); TICKET_SHARDS],
            tokens: quota.enroll_burst,
        }
    }

    fn shard_of(epc: &[u8; 12]) -> usize {
        (fnv_mix(epc) % TICKET_SHARDS as u64) as usize
    }

    pub fn ticket(&self, epc: &[u8; 12]) -> Option<&TicketState> {
        self.shards[Self::shard_of(epc)].get(epc)
    }

    pub fn ticket_mut(&mut self, epc: &[u8; 12]) -> Option<&mut TicketState> {
        self.shards[Self::shard_of(epc)].get_mut(epc)
    }

    /// Iterate tickets in canonical order (shard index, then EPC).
    pub fn tickets(&self) -> impl Iterator<Item = (&[u8; 12], &TicketState)> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    fn tickets_mut(&mut self) -> impl Iterator<Item = (&[u8; 12], &mut TicketState)> {
        self.shards.iter_mut().flat_map(|s| s.iter_mut())
    }

    /// Live (unrevoked) ticket count, for quota checks.
    pub fn live_tickets(&self) -> usize {
        self.tickets().filter(|(_, t)| !t.revoked).count()
    }

    pub fn ticket_count(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

/// The whole durable state: tenants by id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreState {
    pub tenants: BTreeMap<u64, TenantState>,
    /// Bytes of resident key material plus per-ticket overhead, maintained
    /// incrementally by `apply`/evict/reload — the memory-ceiling input.
    resident_bytes: usize,
}

impl StoreState {
    pub fn new() -> Self {
        StoreState::default()
    }

    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    pub fn tenant(&self, id: u64) -> Option<&TenantState> {
        self.tenants.get(&id)
    }

    pub fn tenant_mut(&mut self, id: u64) -> Option<&mut TenantState> {
        self.tenants.get_mut(&id)
    }

    pub fn ticket(&self, tenant: u64, epc: &[u8; 12]) -> Option<&TicketState> {
        self.tenants.get(&tenant).and_then(|t| t.ticket(epc))
    }

    pub fn ticket_mut(&mut self, tenant: u64, epc: &[u8; 12]) -> Option<&mut TicketState> {
        self.tenants.get_mut(&tenant).and_then(|t| t.ticket_mut(epc))
    }

    fn cost_of(key: &Option<Vec<u8>>) -> usize {
        key.as_ref().map(|k| TICKET_OVERHEAD_BYTES + k.len()).unwrap_or(0)
    }

    /// Replace a ticket's key, keeping the resident-bytes counter honest.
    /// Every key mutation in the crate funnels through here.
    pub(crate) fn set_key(
        &mut self,
        tenant: u64,
        epc: &[u8; 12],
        key: Option<Vec<u8>>,
        evicted: bool,
    ) {
        // Compute before taking the &mut borrow.
        let new_cost = Self::cost_of(&key);
        if let Some(t) = self.ticket_mut(tenant, epc) {
            let old_cost = Self::cost_of(&t.key);
            t.key = key;
            t.evicted = evicted;
            self.resident_bytes = self.resident_bytes - old_cost + new_cost;
        }
    }

    /// Fold one journal record into the state. Total and deterministic:
    /// records referencing unknown tenants or tickets create them with
    /// neutral defaults rather than failing — replay must accept any
    /// record sequence the journal actually holds (the *store*'s public
    /// API enforces existence before appending).
    pub fn apply(&mut self, body: &RecordBody) {
        match body {
            RecordBody::TenantCreated {
                tenant,
                max_tickets,
                enroll_burst,
                enroll_refill,
            } => {
                let quota = TenantQuota {
                    max_tickets: *max_tickets,
                    enroll_burst: *enroll_burst,
                    enroll_refill: *enroll_refill,
                };
                // Idempotent re-create updates the quota but keeps tickets.
                match self.tenants.get_mut(tenant) {
                    Some(t) => {
                        t.quota = quota;
                        t.tokens = t.tokens.min(quota.enroll_burst);
                    }
                    None => {
                        self.tenants.insert(*tenant, TenantState::new(quota));
                    }
                }
            }
            RecordBody::TicketIssued {
                tenant,
                epc,
                model,
                serial,
            } => {
                let t = self
                    .tenants
                    .entry(*tenant)
                    .or_insert_with(|| TenantState::new(TenantQuota::unlimited()));
                let shard = TenantState::shard_of(epc);
                let entry = t.shards[shard].entry(*epc).or_insert(TicketState {
                    model: *model,
                    serial: *serial,
                    generation: 0,
                    key: None,
                    revoked: false,
                    evicted: false,
                    last_access: 0,
                });
                // Re-issue of an existing EPC refreshes model/serial and
                // clears revocation (a new physical tag took the slot).
                entry.model = *model;
                entry.serial = *serial;
                entry.revoked = false;
                t.next_serial = t.next_serial.max(serial.wrapping_add(1));
            }
            RecordBody::KeyBound {
                tenant,
                epc,
                generation,
                key,
            }
            | RecordBody::KeyRotated {
                tenant,
                epc,
                generation,
                key,
            }
            | RecordBody::ReEnrolled {
                tenant,
                epc,
                generation,
                key,
            } => {
                // Ensure the ticket exists (neutral defaults on replay of a
                // journal whose issue record predates the snapshot window).
                let t = self
                    .tenants
                    .entry(*tenant)
                    .or_insert_with(|| TenantState::new(TenantQuota::unlimited()));
                let shard = TenantState::shard_of(epc);
                t.shards[shard].entry(*epc).or_insert(TicketState {
                    model: 0xFF,
                    serial: 0,
                    generation: 0,
                    key: None,
                    revoked: false,
                    evicted: false,
                    last_access: 0,
                });
                if let Some(ticket) = self.ticket_mut(*tenant, epc) {
                    ticket.generation = *generation;
                    ticket.revoked = false;
                }
                self.set_key(*tenant, epc, Some(key.clone()), false);
            }
            RecordBody::TicketRevoked { tenant, epc } => {
                if let Some(t) = self.ticket_mut(*tenant, epc) {
                    t.revoked = true;
                }
                self.set_key(*tenant, epc, None, false);
            }
        }
    }

    /// EPCs whose keys are currently evicted (for hydration).
    pub fn evicted_epcs(&self) -> Vec<(u64, [u8; 12])> {
        let mut out = Vec::new();
        for (id, t) in &self.tenants {
            for (epc, ticket) in t.tickets() {
                if ticket.evicted {
                    out.push((*id, *epc));
                }
            }
        }
        out
    }

    /// Every resident key except `protect`, least recently accessed
    /// first; equal stamps keep iteration order, so eviction victims are
    /// deterministic.
    pub fn lru_resident(&self, protect: Option<(u64, [u8; 12])>) -> Vec<(u64, [u8; 12])> {
        let mut resident: Vec<(u64, u64, [u8; 12])> = Vec::new();
        for (id, t) in &self.tenants {
            for (epc, ticket) in t.tickets() {
                if ticket.key.is_some() && protect != Some((*id, *epc)) {
                    resident.push((ticket.last_access, *id, *epc));
                }
            }
        }
        resident.sort_by_key(|&(stamp, _, _)| stamp);
        resident.into_iter().map(|(_, id, epc)| (id, epc)).collect()
    }

    /// Refill every tenant's enrolment tokens by its quota's refill rate.
    pub fn tick(&mut self) {
        for t in self.tenants.values_mut() {
            t.tokens = t.tokens.saturating_add(t.quota.enroll_refill).min(t.quota.enroll_burst);
        }
    }

    /// Canonical serialization of durable state. Ephemeral fields (LRU
    /// stamps, tokens, eviction flags) are excluded, so two states that
    /// agree on durable content serialize bit-identically.
    ///
    /// Callers must hydrate evicted keys first (`DurableStore` does); a
    /// state serialized with holes would "forget" keys on snapshot.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STATE_VERSION);
        out.extend_from_slice(&(self.tenants.len() as u32).to_le_bytes());
        for (id, t) in &self.tenants {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&t.quota.max_tickets.to_le_bytes());
            out.extend_from_slice(&t.quota.enroll_burst.to_le_bytes());
            out.extend_from_slice(&t.quota.enroll_refill.to_le_bytes());
            out.extend_from_slice(&t.next_serial.to_le_bytes());
            out.extend_from_slice(&(t.ticket_count() as u32).to_le_bytes());
            for (epc, ticket) in t.tickets() {
                out.extend_from_slice(epc);
                out.push(ticket.model);
                out.extend_from_slice(&ticket.serial.to_le_bytes());
                out.extend_from_slice(&ticket.generation.to_le_bytes());
                out.push(ticket.revoked as u8);
                match &ticket.key {
                    Some(k) => {
                        out.push(1);
                        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                        out.extend_from_slice(k);
                    }
                    None => out.push(0),
                }
            }
        }
        out
    }

    /// Total deserializer for `serialize` output.
    pub fn deserialize(bytes: &[u8]) -> Result<StoreState, RecordError> {
        let mut cur = SCursor { buf: bytes, pos: 0 };
        let version = cur.u8()?;
        if version != STATE_VERSION {
            return Err(RecordError::UnknownVersion(version));
        }
        let ntenants = cur.u32()? as usize;
        let mut state = StoreState::new();
        for _ in 0..ntenants {
            let id = cur.u64()?;
            let quota = TenantQuota {
                max_tickets: cur.u32()?,
                enroll_burst: cur.u32()?,
                enroll_refill: cur.u32()?,
            };
            let next_serial = cur.u32()?;
            let ntickets = cur.u32()? as usize;
            let mut tenant = TenantState::new(quota);
            tenant.next_serial = next_serial;
            for _ in 0..ntickets {
                let epc: [u8; 12] = cur.bytes(12)?.try_into().unwrap();
                let model = cur.u8()?;
                let serial = cur.u32()?;
                let generation = cur.u32()?;
                let revoked = cur.u8()? != 0;
                let key = if cur.u8()? != 0 {
                    let klen = cur.u32()? as usize;
                    if klen > MAX_KEY_LEN {
                        return Err(RecordError::Oversized { len: klen });
                    }
                    Some(cur.bytes(klen)?.to_vec())
                } else {
                    None
                };
                state.resident_bytes += Self::cost_of(&key);
                let shard = TenantState::shard_of(&epc);
                tenant.shards[shard].insert(
                    epc,
                    TicketState {
                        model,
                        serial,
                        generation,
                        key,
                        revoked,
                        evicted: false,
                        last_access: 0,
                    },
                );
            }
            state.tenants.insert(id, tenant);
        }
        if cur.pos != bytes.len() {
            return Err(RecordError::Malformed);
        }
        Ok(state)
    }

    /// Stable 64-bit fingerprint of durable state.
    pub fn digest(&self) -> u64 {
        mix(fnv_mix(&self.serialize()))
    }

    /// Durable equality ignoring ephemeral fields — compares canonical
    /// serializations, so eviction flags and LRU stamps don't matter.
    pub fn durably_equals(&self, other: &StoreState) -> bool {
        self.serialize() == other.serialize()
    }

    /// Clear ephemeral per-ticket stamps (used when comparing a live state
    /// against a freshly replayed one in tests).
    pub fn clear_ephemeral(&mut self) {
        for t in self.tenants.values_mut() {
            for (_, ticket) in t.tickets_mut() {
                ticket.last_access = 0;
            }
        }
    }
}

struct SCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SCursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self.pos.checked_add(n).ok_or(RecordError::Malformed)?;
        if end > self.buf.len() {
            return Err(RecordError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, RecordError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epc(i: u8) -> [u8; 12] {
        [i; 12]
    }

    #[test]
    fn apply_is_deterministic_and_replay_reconstructs() {
        let records = vec![
            RecordBody::TenantCreated {
                tenant: 1,
                max_tickets: 10,
                enroll_burst: 5,
                enroll_refill: 1,
            },
            RecordBody::TicketIssued {
                tenant: 1,
                epc: epc(1),
                model: 2,
                serial: 0,
            },
            RecordBody::KeyBound {
                tenant: 1,
                epc: epc(1),
                generation: 1,
                key: vec![9; 32],
            },
            RecordBody::KeyRotated {
                tenant: 1,
                epc: epc(1),
                generation: 2,
                key: vec![7; 32],
            },
            RecordBody::TicketIssued {
                tenant: 1,
                epc: epc(2),
                model: 3,
                serial: 1,
            },
            RecordBody::TicketRevoked {
                tenant: 1,
                epc: epc(2),
            },
        ];
        let mut a = StoreState::new();
        let mut b = StoreState::new();
        for r in &records {
            a.apply(r);
            b.apply(r);
        }
        assert!(a.durably_equals(&b));
        assert_eq!(a.digest(), b.digest());

        let t1 = a.ticket(1, &epc(1)).unwrap();
        assert_eq!(t1.generation, 2);
        assert_eq!(t1.key.as_deref(), Some(&[7u8; 32][..]));
        let t2 = a.ticket(1, &epc(2)).unwrap();
        assert!(t2.revoked);
        assert_eq!(t2.key, None);
        assert_eq!(a.tenant(1).unwrap().live_tickets(), 1);
        assert_eq!(a.tenant(1).unwrap().next_serial, 2);
    }

    #[test]
    fn serialize_roundtrips_and_is_canonical() {
        let mut s = StoreState::new();
        s.apply(&RecordBody::TenantCreated {
            tenant: 2,
            max_tickets: 3,
            enroll_burst: 2,
            enroll_refill: 1,
        });
        for i in 0..6u8 {
            s.apply(&RecordBody::TicketIssued {
                tenant: (i % 2) as u64 + 1,
                epc: epc(i),
                model: i,
                serial: i as u32,
            });
            if i % 2 == 0 {
                s.apply(&RecordBody::KeyBound {
                    tenant: (i % 2) as u64 + 1,
                    epc: epc(i),
                    generation: 1,
                    key: vec![i; 24],
                });
            }
        }
        let bytes = s.serialize();
        let back = StoreState::deserialize(&bytes).unwrap();
        assert!(back.durably_equals(&s));
        assert_eq!(back.serialize(), bytes);
        assert_eq!(back.resident_bytes(), s.resident_bytes());
    }

    #[test]
    fn deserialize_is_total_on_mutated_bytes() {
        let mut s = StoreState::new();
        for i in 0..4u8 {
            s.apply(&RecordBody::TicketIssued {
                tenant: 1,
                epc: epc(i),
                model: 1,
                serial: i as u32,
            });
            s.apply(&RecordBody::KeyBound {
                tenant: 1,
                epc: epc(i),
                generation: 1,
                key: vec![i; 16],
            });
        }
        let bytes = s.serialize();
        // Truncations.
        for cut in 0..bytes.len() {
            let _ = StoreState::deserialize(&bytes[..cut]); // must not panic
        }
        // Single-byte stomps.
        for pos in 0..bytes.len() {
            let mut m = bytes.clone();
            m[pos] = m[pos].wrapping_add(0x41);
            let _ = StoreState::deserialize(&m); // must not panic
        }
    }

    #[test]
    fn resident_bytes_tracks_key_material() {
        let mut s = StoreState::new();
        s.apply(&RecordBody::TicketIssued {
            tenant: 1,
            epc: epc(1),
            model: 1,
            serial: 0,
        });
        assert_eq!(s.resident_bytes(), 0);
        s.apply(&RecordBody::KeyBound {
            tenant: 1,
            epc: epc(1),
            generation: 1,
            key: vec![0; 32],
        });
        assert_eq!(s.resident_bytes(), TICKET_OVERHEAD_BYTES + 32);
        s.apply(&RecordBody::KeyRotated {
            tenant: 1,
            epc: epc(1),
            generation: 2,
            key: vec![0; 48],
        });
        assert_eq!(s.resident_bytes(), TICKET_OVERHEAD_BYTES + 48);
        s.set_key(1, &epc(1), None, true); // evict
        assert_eq!(s.resident_bytes(), 0);
        s.apply(&RecordBody::TicketRevoked {
            tenant: 1,
            epc: epc(1),
        });
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn tick_refills_tokens_to_burst_cap() {
        let mut s = StoreState::new();
        s.apply(&RecordBody::TenantCreated {
            tenant: 1,
            max_tickets: 10,
            enroll_burst: 3,
            enroll_refill: 2,
        });
        let t = s.tenant_mut(1).unwrap();
        t.tokens = 0;
        s.tick();
        assert_eq!(s.tenant(1).unwrap().tokens, 2);
        s.tick();
        assert_eq!(s.tenant(1).unwrap().tokens, 3); // capped at burst
    }

    #[test]
    fn lru_resident_picks_oldest_and_respects_protection() {
        let mut s = StoreState::new();
        for i in 0..3u8 {
            s.apply(&RecordBody::TicketIssued {
                tenant: 1,
                epc: epc(i),
                model: 1,
                serial: i as u32,
            });
            s.apply(&RecordBody::KeyBound {
                tenant: 1,
                epc: epc(i),
                generation: 1,
                key: vec![i; 16],
            });
        }
        s.ticket_mut(1, &epc(0)).unwrap().last_access = 5;
        s.ticket_mut(1, &epc(1)).unwrap().last_access = 2;
        s.ticket_mut(1, &epc(2)).unwrap().last_access = 9;
        assert_eq!(s.lru_resident(None), vec![(1, epc(1)), (1, epc(0)), (1, epc(2))]);
        assert_eq!(s.lru_resident(Some((1, epc(1)))), vec![(1, epc(0)), (1, epc(2))]);
    }
}
