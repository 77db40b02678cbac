//! The durable manifest — a two-slot, checksummed commit record.
//!
//! Every recoverable service needs one tiny piece of state that is
//! *always* readable after a crash: "what was the last committed step, and
//! what was in flight?". The manifest provides it with the classic
//! versioned double-buffer:
//!
//! * two slots, each confined to its own cache line so a single torn
//!   write-back can damage at most one slot;
//! * each slot carries a sequence number and a SplitMix-folded checksum
//!   over `(seq, fields)`;
//! * a commit writes the slot the *older* sequence number lives in, then
//!   drains just that line with retries (quarantining it if the device
//!   keeps refusing — the quarantine copy is durable by construction);
//! * a load recomputes both checksums against the **durable** media view
//!   and picks the valid slot with the larger sequence number.
//!
//! A crash can therefore only ever revert the manifest to the previous
//! valid state — never present a corrupt one — and services are written so
//! that re-executing a step from the previous state is idempotent.

use lp_persist::drain_line_with_retry;
use nvm::{splitmix64, Addr, PersistMemory};

/// Domain separator folded into every slot checksum.
const MANIFEST_MAGIC: u64 = 0x4C50_4150_5053_4D4E; // "LPAPPSMN"

/// Flush retries per commit before the line is quarantined.
const COMMIT_RETRIES: u32 = 8;

/// A two-slot checksummed commit record in persistent memory.
///
/// Field layout per slot (u64 words): `[seq, f_0 .. f_{N-1}, checksum]`.
#[derive(Debug, Clone)]
pub struct DurableManifest {
    /// Base addresses of the two slots (each on its own cache line). A
    /// quarantine remap can move a slot, so these are updated on commit.
    slots: [Addr; 2],
    /// Number of payload fields `N`.
    fields: usize,
    /// Cached sequence number of the latest committed slot.
    seq: u64,
}

impl DurableManifest {
    /// Allocates the two slots (one cache line each) and commits an
    /// all-zero field state so a crash before the first real commit still
    /// loads a valid manifest.
    pub fn create(mem: &mut PersistMemory, fields: usize) -> Self {
        assert!(fields > 0, "manifest needs at least one field");
        let line = mem.config().line_size as u64;
        let words = (fields as u64 + 2) * 8;
        assert!(words <= line, "manifest slot must fit one cache line");
        let a = mem.alloc(line, line);
        let b = mem.alloc(line, line);
        let mut m = DurableManifest {
            slots: [a, b],
            fields,
            seq: 0,
        };
        let committed = m.commit(mem, &vec![0; fields]);
        assert!(
            committed || mem.power_failed(),
            "initial manifest commit refused without power loss"
        );
        m
    }

    /// Checksum over `(seq, fields)` with a domain separator.
    fn checksum(seq: u64, fields: &[u64]) -> u64 {
        let mut acc = splitmix64(MANIFEST_MAGIC ^ seq);
        for (i, f) in fields.iter().enumerate() {
            acc = splitmix64(acc ^ f.wrapping_add(i as u64 + 1));
        }
        // A checksum of 0 would collide with never-written media.
        acc | 1
    }

    /// Reads one slot from the durable media view; `Some((seq, fields))`
    /// if its checksum validates.
    fn load_slot(&self, mem: &PersistMemory, slot: usize) -> Option<(u64, Vec<u64>)> {
        let base = self.slots[slot];
        let seq = mem.read_durable_u64(base);
        let mut fields = Vec::with_capacity(self.fields);
        for i in 0..self.fields {
            fields.push(mem.read_durable_u64(base.index(i as u64 + 1, 8)));
        }
        let stored = mem.read_durable_u64(base.index(self.fields as u64 + 1, 8));
        (stored == Self::checksum(seq, &fields)).then_some((seq, fields))
    }

    /// Reads the latest durable state without touching the cached sequence
    /// number: the valid slot with the larger sequence number, or
    /// `(0, zeros)` if neither slot validates (only possible before the
    /// very first commit drained).
    pub fn read(&self, mem: &PersistMemory) -> (u64, Vec<u64>) {
        let a = self.load_slot(mem, 0);
        let b = self.load_slot(mem, 1);
        let best = match (a, b) {
            (Some(x), Some(y)) => Some(if x.0 >= y.0 { x } else { y }),
            (x, y) => x.or(y),
        };
        best.unwrap_or_else(|| (0, vec![0; self.fields]))
    }

    /// [`read`](Self::read)s the latest durable state and resumes the
    /// commit sequence from it, so the next commit overwrites the older
    /// slot of what is durable — not of what a lost commit left cached.
    pub fn load(&mut self, mem: &PersistMemory) -> (u64, Vec<u64>) {
        let (seq, fields) = self.read(mem);
        self.seq = seq;
        (seq, fields)
    }

    /// Commits a new field state: writes the older slot with `seq + 1`,
    /// then forces that one line durable (retry, then quarantine).
    /// Returns `false` only if power failed before durability.
    pub fn commit(&mut self, mem: &mut PersistMemory, fields: &[u64]) -> bool {
        assert_eq!(fields.len(), self.fields, "field count is fixed at create");
        if mem.power_failed() {
            return false;
        }
        let seq = self.seq + 1;
        let slot = (seq % 2) as usize;
        let base = self.slots[slot];
        let checksum = Self::checksum(seq, fields);
        let record = std::iter::once(seq).chain(fields.iter().copied());
        mem.write_run_u64(base, record.chain(std::iter::once(checksum)));
        if !drain_line_with_retry(mem, base.raw(), COMMIT_RETRIES, |_| {}) {
            if mem.power_failed() {
                return false;
            }
            // The device refuses this line; retire it. The quarantine copy
            // is durable, and the slot follows the remap.
            self.slots[slot] = mem.quarantine_line(base.raw());
        }
        if mem.power_failed() {
            return false;
        }
        self.seq = seq;
        true
    }

    /// The sequence number of the last successful commit.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{FaultConfig, NvmConfig};

    fn mem() -> PersistMemory {
        PersistMemory::new(NvmConfig {
            cache_lines: 64,
            associativity: 8,
            ..NvmConfig::default()
        })
    }

    #[test]
    fn commit_then_load_round_trips() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 3);
        assert!(m.commit(&mut mem, &[7, 8, 9]));
        assert!(m.commit(&mut mem, &[10, 11, 12]));
        let (seq, fields) = m.load(&mem);
        assert_eq!(fields, vec![10, 11, 12]);
        assert_eq!(seq, m.seq());
    }

    #[test]
    fn crash_reverts_to_previous_valid_state_not_garbage() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 2);
        assert!(m.commit(&mut mem, &[1, 100]));
        // Write the next slot but crash before it drains: the line never
        // reaches media, so load must return the previous commit.
        let seq = m.seq() + 1;
        let slot = (seq % 2) as usize;
        let base = m.slots[slot];
        mem.write_u64(base, seq);
        mem.write_u64(base.index(1, 8), 2);
        mem.write_u64(base.index(2, 8), 200);
        mem.write_u64(base.index(3, 8), DurableManifest::checksum(seq, &[2, 200]));
        mem.crash();
        let (_, fields) = m.load(&mem);
        assert_eq!(fields, vec![1, 100]);
    }

    #[test]
    fn torn_writeback_of_a_slot_falls_back_to_the_older_one() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 2);
        assert!(m.commit(&mut mem, &[5, 50]));
        // Tear every write-back, then attempt a commit: the drain may
        // persist a mangled line, whose checksum must not validate.
        mem.set_fault_config(Some(FaultConfig::torn(99, 10_000)));
        let acked = m.commit(&mut mem, &[6, 60]);
        mem.set_fault_config(None);
        // What holds today: never garbage. That an ACKed commit loads as
        // `[6, 60]` does not — see the ignored reproducer below.
        assert!(acked, "power never failed, so the commit reports success");
        let (_, fields) = m.load(&mem);
        assert!(fields == vec![5, 50] || fields == vec![6, 60]);
    }

    #[test]
    #[ignore = "ROADMAP item 1: manifest commit trusts a torn write-back's ACK"]
    fn an_acked_commit_loads_as_the_committed_fields_on_a_tearing_device() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 2);
        assert!(m.commit(&mut mem, &[5, 50]));
        mem.set_fault_config(Some(FaultConfig::torn(3, 10_000)));
        let acked = m.commit(&mut mem, &[6, 60]);
        mem.set_fault_config(None);
        let (_, fields) = m.load(&mem);
        assert!(!acked || fields == vec![6, 60], "acked, loads {fields:?}");
    }

    #[test]
    fn survives_a_device_that_refuses_the_line_forever() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 1);
        // Certain transient-refusal: every flush fails, so the commit
        // path must fall through to quarantine and still succeed.
        mem.set_fault_config(Some(FaultConfig::transient(7, 10_000)));
        assert!(m.commit(&mut mem, &[42]));
        mem.set_fault_config(None);
        let (_, fields) = m.load(&mem);
        assert_eq!(fields, vec![42]);
    }
}
