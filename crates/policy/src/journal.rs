//! The durable, checksummed policy journal.
//!
//! Every per-region mode switch is recorded here *before* the region ever
//! runs under the new mode, and recovery replays the journal to learn which
//! contract each region must be validated under. The write protocol makes
//! each transition crash-consistent:
//!
//! 1. the 32-byte record (sequence, region, old/new rung, checksum) is
//!    written to the next free slot,
//! 2. the slot's cache line is flushed (with retry on transient refusal),
//! 3. the record is read back **from the durable image** and its checksum
//!    re-verified — only then does the switch take effect in memory.
//!
//! A crash before step 3 completes leaves either no durable record or a
//! torn one; torn records fail the checksum and are ignored by replay, so
//! the region recovers under the *old* contract. A crash after step 3
//! recovers under the *new* contract. There is no third possibility — that
//! is the "old or new, never a hybrid" guarantee the fault campaign's
//! journal/data-agreement oracle checks.

use crate::mode::PolicyMode;
use nvm::{splitmix64, Addr, FlushOutcome, PersistMemory};

/// Bytes per journal record: four 8-byte words.
pub const RECORD_BYTES: u64 = 32;

/// Flush retries before an append reports the device refused durability.
const APPEND_RETRIES: u32 = 6;

const MAGIC: u64 = 0x1b9e_ca11_ab1e_0007;

fn record_checksum(seq: u64, region: u64, packed: u64) -> u64 {
    splitmix64(seq ^ splitmix64(region ^ splitmix64(packed ^ MAGIC)))
}

/// One replayed (valid) journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Global switch sequence number (starts at 1; replay order).
    pub seq: u64,
    /// The region (thread-block key) the switch applies to.
    pub region: u64,
    /// The mode the region ran under before the switch.
    pub old: PolicyMode,
    /// The mode the region runs under from this record on.
    pub new: PolicyMode,
}

/// A fixed-capacity journal of mode-switch records in device NVM.
#[derive(Debug, Clone)]
pub struct PolicyJournal {
    base: Addr,
    capacity: u64,
    cursor: u64,
    next_seq: u64,
}

impl PolicyJournal {
    /// Allocates a journal of `capacity` records (device memory is zeroed,
    /// and a zero sequence word marks a slot empty).
    pub fn create(mem: &mut PersistMemory, capacity: u64) -> Self {
        assert!(capacity > 0, "empty journal");
        let base = mem.alloc(capacity * RECORD_BYTES, 128);
        Self {
            base,
            capacity,
            cursor: 0,
            next_seq: 1,
        }
    }

    /// Record capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Records appended (and durably verified) so far this power cycle.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Byte range `(base, len)` of the journal storage.
    pub fn storage_range(&self) -> (u64, u64) {
        (self.base.raw(), self.capacity * RECORD_BYTES)
    }

    fn slot(&self, i: u64) -> Addr {
        self.base.offset(i * RECORD_BYTES)
    }

    /// Appends a switch record and makes it durable. Returns `true` only
    /// after the record has been flushed **and** read back intact from the
    /// durable image; on `false` (device refused, tore the write-back, or
    /// the journal is full) the caller must keep the region on `old`.
    pub fn append(
        &mut self,
        mem: &mut PersistMemory,
        region: u64,
        old: PolicyMode,
        new: PolicyMode,
    ) -> bool {
        if self.cursor >= self.capacity {
            return false;
        }
        let slot = self.slot(self.cursor);
        let seq = self.next_seq;
        let packed = old.rank() as u64 | ((new.rank() as u64) << 8);
        mem.write_u64(slot, seq);
        mem.write_u64(slot.offset(8), region);
        mem.write_u64(slot.offset(16), packed);
        mem.write_u64(slot.offset(24), record_checksum(seq, region, packed));
        for _ in 0..APPEND_RETRIES {
            if mem.power_failed() {
                return false;
            }
            match mem.flush_line(slot) {
                FlushOutcome::TransientFail => continue,
                FlushOutcome::Persisted | FlushOutcome::Clean => {
                    // The device *claimed* durability; believe only the
                    // durable image (a torn write-back also claims success).
                    if self.read_record(mem, self.cursor).is_some() {
                        self.cursor += 1;
                        self.next_seq = seq + 1;
                        return true;
                    }
                }
            }
        }
        // Durability refused: blank the slot in cache so a later natural
        // eviction persists an empty record, not a half-written switch.
        for w in 0..4 {
            mem.write_u64(slot.offset(8 * w), 0);
        }
        false
    }

    /// Reads slot `i` from the durable image; `None` for empty/torn/corrupt.
    fn read_record(&self, mem: &PersistMemory, i: u64) -> Option<JournalRecord> {
        let slot = self.slot(i);
        let seq = mem.read_durable_u64(slot);
        if seq == 0 {
            return None;
        }
        let region = mem.read_durable_u64(slot.offset(8));
        let packed = mem.read_durable_u64(slot.offset(16));
        let check = mem.read_durable_u64(slot.offset(24));
        if check != record_checksum(seq, region, packed) {
            return None;
        }
        let old = PolicyMode::from_rank((packed & 0xff) as u8)?;
        let new = PolicyMode::from_rank(((packed >> 8) & 0xff) as u8)?;
        Some(JournalRecord {
            seq,
            region,
            old,
            new,
        })
    }

    /// Replays the durable journal: returns the longest *contiguous* valid
    /// record prefix (seq 1, 2, 3, …) in sequence order and resynchronises
    /// the append cursor/sequence counter (the reboot path — volatile
    /// state is gone, the durable image is truth).
    ///
    /// Write-ahead-log prefix rule: a corrupted record in the *middle* of
    /// the journal (durable bit rot — sequential appends cannot leave a
    /// gap) ends replay at the last record before the gap, even when later
    /// slots still checksum clean. A post-gap switch chains off state the
    /// gap destroyed, so honouring it could validate a region under a
    /// contract whose provenance is gone. Discarding it is always safe:
    /// the region is judged under the older journal-proven contract, at
    /// worst failing validation and re-executing — conservative, never a
    /// hybrid. The sequence counter still resumes past every valid seq
    /// seen (discarded ones included) so no seq is ever issued twice,
    /// which keeps a post-gap zombie from ever rejoining the prefix.
    pub fn replay(&mut self, mem: &PersistMemory) -> Vec<JournalRecord> {
        let mut records = Vec::new();
        let mut used = 0;
        let mut max_seq = 0;
        for i in 0..self.capacity {
            if let Some(r) = self.read_record(mem, i) {
                max_seq = max_seq.max(r.seq);
                used = i + 1;
                records.push(r);
            } else if mem.read_durable_u64(self.slot(i)) != 0 {
                // Torn/corrupt slot: burned, never reused.
                used = i + 1;
            }
        }
        records.sort_by_key(|r| r.seq);
        let mut keep = 0;
        while keep < records.len() && records[keep].seq == keep as u64 + 1 {
            keep += 1;
        }
        records.truncate(keep);
        self.cursor = used;
        self.next_seq = max_seq + 1;
        records
    }

    /// The effective per-region modes after replaying `records` over a
    /// launch of `num_regions` regions (all regions start at LP).
    pub fn effective_modes(records: &[JournalRecord], num_regions: u64) -> Vec<PolicyMode> {
        let mut modes = vec![PolicyMode::Lp; num_regions as usize];
        for r in records {
            if let Some(m) = modes.get_mut(r.region as usize) {
                *m = r.new;
            }
        }
        modes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{FaultConfig, NvmConfig};

    fn mem() -> PersistMemory {
        PersistMemory::new(NvmConfig::default())
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let mut m = mem();
        let mut j = PolicyJournal::create(&mut m, 16);
        assert!(j.append(&mut m, 3, PolicyMode::Lp, PolicyMode::Epoch));
        assert!(j.append(&mut m, 5, PolicyMode::Lp, PolicyMode::Checkpoint));
        assert!(j.append(&mut m, 3, PolicyMode::Epoch, PolicyMode::Eager));
        m.crash();
        m.power_on();
        let records = j.replay(&m);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[2].new, PolicyMode::Eager);
        let modes = PolicyJournal::effective_modes(&records, 8);
        assert_eq!(modes[3], PolicyMode::Eager);
        assert_eq!(modes[5], PolicyMode::Checkpoint);
        assert_eq!(modes[0], PolicyMode::Lp);
        // Cursor resynchronised: next append lands after the survivors.
        assert_eq!(j.cursor(), 3);
        assert!(j.append(&mut m, 0, PolicyMode::Lp, PolicyMode::Epoch));
        assert_eq!(j.replay(&m).len(), 4);
    }

    #[test]
    fn unflushed_record_does_not_survive_a_crash() {
        let mut m = mem();
        let mut j = PolicyJournal::create(&mut m, 16);
        assert!(j.append(&mut m, 1, PolicyMode::Lp, PolicyMode::Epoch));
        // Write a record by hand without the durability handshake.
        let slot = j.slot(1);
        m.write_u64(slot, 99);
        m.crash();
        m.power_on();
        let records = j.replay(&m);
        assert_eq!(records.len(), 1, "volatile record must vanish");
        assert_eq!(records[0].region, 1);
    }

    #[test]
    fn torn_append_is_refused_and_replay_ignores_the_slot() {
        let mut m = mem();
        let mut j = PolicyJournal::create(&mut m, 16);
        assert!(j.append(&mut m, 1, PolicyMode::Lp, PolicyMode::Epoch));
        // Every write-back now tears: the device claims success but
        // persists only a prefix, so the durable read-back fails.
        m.set_fault_config(Some(FaultConfig {
            seed: 7,
            torn_writeback_bp: 10_000,
            transient_persist_bp: 0,
            stuck_line_bp: 0,
            ecc_error_bp: 0,
            silent_error_bp: 0,
        }));
        let ok = j.append(&mut m, 2, PolicyMode::Lp, PolicyMode::Eager);
        m.set_fault_config(None);
        if ok {
            // A tear can land after the full 4-word record (a strict prefix
            // of the 16-word line): then the record is durable and valid.
            assert_eq!(j.replay(&m).len(), 2);
        } else {
            m.crash();
            m.power_on();
            let records = j.replay(&m);
            assert_eq!(records.len(), 1, "torn record must be ignored");
            assert_eq!(
                PolicyJournal::effective_modes(&records, 4)[2],
                PolicyMode::Lp,
                "refused switch leaves the old contract in force"
            );
        }
    }

    #[test]
    fn transient_refusal_retries_then_gives_up_cleanly() {
        let mut m = mem();
        let mut j = PolicyJournal::create(&mut m, 16);
        m.set_fault_config(Some(FaultConfig {
            seed: 11,
            torn_writeback_bp: 0,
            transient_persist_bp: 10_000,
            stuck_line_bp: 0,
            ecc_error_bp: 0,
            silent_error_bp: 0,
        }));
        assert!(!j.append(&mut m, 0, PolicyMode::Lp, PolicyMode::Epoch));
        m.set_fault_config(None);
        // The blanked slot must not resurrect as a record via eviction.
        m.flush_all();
        assert!(j.replay(&m).is_empty());
    }

    #[test]
    fn full_journal_refuses_further_switches() {
        let mut m = mem();
        let mut j = PolicyJournal::create(&mut m, 2);
        assert!(j.append(&mut m, 0, PolicyMode::Lp, PolicyMode::Epoch));
        assert!(j.append(&mut m, 1, PolicyMode::Lp, PolicyMode::Epoch));
        assert!(!j.append(&mut m, 2, PolicyMode::Lp, PolicyMode::Epoch));
    }

    #[test]
    fn corrupted_middle_record_stops_replay_at_the_valid_prefix() {
        let mut m = mem();
        let mut j = PolicyJournal::create(&mut m, 8);
        assert!(j.append(&mut m, 0, PolicyMode::Lp, PolicyMode::Epoch)); // seq 1
        assert!(j.append(&mut m, 1, PolicyMode::Lp, PolicyMode::Eager)); // seq 2
        assert!(j.append(&mut m, 2, PolicyMode::Lp, PolicyMode::Checkpoint)); // seq 3
        assert!(j.append(&mut m, 0, PolicyMode::Epoch, PolicyMode::Eager)); // seq 4
        assert!(j.append(&mut m, 3, PolicyMode::Lp, PolicyMode::Epoch)); // seq 5
                                                                         // Durable bit rot in the *middle* record (seq 3): flip its checksum
                                                                         // word in the durable image. Slots 3 and 4 still checksum clean.
        let slot = j.slot(2);
        let bad = m.read_durable_u64(slot.offset(24)) ^ 1;
        m.write_u64(slot.offset(24), bad);
        m.flush_all();
        m.crash();
        m.power_on();

        let records = j.replay(&m);
        assert_eq!(
            records.len(),
            2,
            "replay must stop at the gap, not skip it: {records:?}"
        );
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[1].seq, 2);

        // Recovery picks exactly one contract per region — the last one the
        // surviving prefix proves. The rotted switch (region 2) and every
        // post-gap switch (regions 0, 3) revert to their pre-switch modes:
        // old or new, never a hybrid.
        let modes = PolicyJournal::effective_modes(&records, 4);
        assert_eq!(modes[0], PolicyMode::Epoch, "post-gap seq 4 discarded");
        assert_eq!(modes[1], PolicyMode::Eager);
        assert_eq!(modes[2], PolicyMode::Lp, "rotted seq 3 falls back to old");
        assert_eq!(modes[3], PolicyMode::Lp, "post-gap seq 5 discarded");

        // The sequence counter resumes past every seq seen (discarded ones
        // included), so the discarded suffix can never rejoin the prefix:
        // the gap at seq 3 is permanent and a fresh append stays post-gap.
        assert!(j.append(&mut m, 1, PolicyMode::Eager, PolicyMode::Lp)); // seq 6
        let records = j.replay(&m);
        assert_eq!(records.len(), 2, "no zombie resurrection: {records:?}");
        assert_eq!(
            PolicyJournal::effective_modes(&records, 4)[1],
            PolicyMode::Eager
        );
    }

    #[test]
    fn checksum_rejects_bit_rot() {
        let mut m = mem();
        let mut j = PolicyJournal::create(&mut m, 4);
        assert!(j.append(&mut m, 0, PolicyMode::Lp, PolicyMode::Checkpoint));
        // Corrupt the durable packed-mode word in place.
        let slot = j.slot(0);
        let bad = m.read_durable_u64(slot.offset(16)) ^ 1;
        m.write_u64(slot.offset(16), bad);
        m.flush_all();
        assert!(j.replay(&m).is_empty(), "corrupt record must be rejected");
    }
}
