//! The device-resident hash table: layout and host-side accessors.

use nvm::{Addr, PersistMemory};
use simt::BlockCtx;

/// Key tag for a never-used slot.
pub const EMPTY: u64 = 0;
/// Key tag for a deleted slot. Inserts do not reuse tombstones (keeps probe
/// sequences stable — simpler crash-recovery reasoning).
pub const TOMBSTONE: u64 = u64::MAX;
/// Value returned by searches for absent keys.
pub const NOT_FOUND: u64 = u64::MAX;

/// Buckets a probe sequence visits before giving up. Sized together with
/// the store's ~25 % load factor so the probability of a full probe window
/// is negligible — and inserts *panic* rather than silently dropping a
/// record if it ever happens.
pub const PROBE_BUCKETS: u64 = 8;

/// A bucketed open hash table in device memory.
///
/// Layout: `buckets × slots` entries of `(key, value)` u64 pairs,
/// bucket-major. Keys `0` and `u64::MAX` are reserved ([`EMPTY`],
/// [`TOMBSTONE`]).
#[derive(Debug, Clone)]
pub struct KvStore {
    base: Addr,
    buckets: u64,
    slots: u64,
}

impl KvStore {
    /// Allocates a table with `buckets × slots` capacity.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn create(mem: &mut PersistMemory, buckets: u64, slots: u64) -> Self {
        assert!(buckets > 0 && slots > 0, "empty store");
        let base = mem.alloc(buckets * slots * 16, 8);
        Self {
            base,
            buckets,
            slots,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> u64 {
        self.buckets
    }

    /// Slots per bucket.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Total (key, value) capacity.
    pub fn capacity(&self) -> u64 {
        self.buckets * self.slots
    }

    /// Home bucket of `key`.
    pub fn bucket_of(&self, key: u64) -> u64 {
        gpu_lp::table::splitmix64(key) % self.buckets
    }

    /// Device address of the key word of (bucket, slot).
    fn key_addr(&self, bucket: u64, slot: u64) -> Addr {
        self.base.index(bucket * self.slots + slot, 16)
    }

    /// Device address of the value word of (bucket, slot).
    fn value_addr(&self, bucket: u64, slot: u64) -> Addr {
        self.key_addr(bucket, slot).offset(8)
    }

    /// The probe sequence for `key`: up to [`PROBE_BUCKETS`] consecutive
    /// buckets starting at the home bucket (wrapping).
    fn probe_buckets(&self, key: u64) -> impl Iterator<Item = u64> + '_ {
        let home = self.bucket_of(key);
        let n = self.buckets;
        (0..PROBE_BUCKETS.min(n)).map(move |i| (home + i) % n)
    }

    /// The device side of a probe: walks `key`'s probe window, loading each
    /// slot's key word and asking `take` whether this operation takes that
    /// slot (`take` may claim it first, e.g. by CAS). Returns the value
    /// address of the first slot taken; each slot passed over costs one ALU
    /// op.
    pub fn probe(
        &self,
        ctx: &mut BlockCtx<'_>,
        key: u64,
        mut take: impl FnMut(&mut BlockCtx<'_>, u64, Addr) -> bool,
    ) -> Option<Addr> {
        for b in self.probe_buckets(key) {
            for s in 0..self.slots {
                let kaddr = self.key_addr(b, s);
                let word = ctx.load_u64(kaddr);
                if take(ctx, word, kaddr) {
                    return Some(self.value_addr(b, s));
                }
                ctx.charge_alu(1);
            }
        }
        None
    }

    /// Host-side lookup (recovery/verification path; reads through the
    /// cache without cost accounting): one run of key words per probe
    /// bucket, stopping at the match, then the matching slot's value.
    pub fn lookup_host(&self, mem: &mut PersistMemory, key: u64) -> Option<u64> {
        for b in self.probe_buckets(key) {
            let mut found = false;
            let read = mem.scan_u64(self.key_addr(b, 0), 16, self.slots, |k| {
                found = k == key;
                !found
            });
            if found {
                return Some(mem.read_u64(self.value_addr(b, read - 1)));
            }
        }
        None
    }

    /// Host-side count of live (non-empty, non-tombstone) entries: one run
    /// over every key word, bucket-major.
    pub fn live_entries(&self, mem: &mut PersistMemory) -> u64 {
        let mut n = 0;
        mem.scan_u64(self.key_addr(0, 0), 16, self.capacity(), |k| {
            n += u64::from(k != EMPTY && k != TOMBSTONE);
            true
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::NvmConfig;

    fn store() -> (PersistMemory, KvStore) {
        let mut mem = PersistMemory::new(NvmConfig::default());
        let st = KvStore::create(&mut mem, 64, 8);
        (mem, st)
    }

    #[test]
    fn geometry() {
        let (_, st) = store();
        assert_eq!(st.capacity(), 512);
        assert_eq!(st.probe_buckets(123).count(), PROBE_BUCKETS as usize);
    }

    #[test]
    fn addresses_do_not_alias() {
        let (_, st) = store();
        let a = st.key_addr(0, 0);
        let b = st.key_addr(0, 1);
        let c = st.key_addr(1, 0);
        assert_eq!(b.raw() - a.raw(), 16);
        assert_eq!(c.raw() - a.raw(), 8 * 16);
    }

    #[test]
    fn host_lookup_sees_written_entries() {
        let (mut mem, st) = store();
        let key = 42u64;
        let b = st.bucket_of(key);
        mem.write_u64(st.key_addr(b, 3), key);
        mem.write_u64(st.value_addr(b, 3), 777);
        assert_eq!(st.lookup_host(&mut mem, key), Some(777));
        assert_eq!(st.lookup_host(&mut mem, 43), None);
    }

    #[test]
    fn live_entries_ignores_tombstones() {
        let (mut mem, st) = store();
        mem.write_u64(st.key_addr(0, 0), 5);
        mem.write_u64(st.key_addr(0, 1), TOMBSTONE);
        assert_eq!(st.live_entries(&mut mem), 1);
    }

    /// [`KvStore::lookup_host`] as it read before line runs: one
    /// `read_u64` per key word. The reference the differential test holds
    /// the run-based lookup to.
    fn lookup_host_per_word(st: &KvStore, mem: &mut PersistMemory, key: u64) -> Option<u64> {
        for b in st.probe_buckets(key) {
            for s in 0..st.slots {
                if mem.read_u64(st.key_addr(b, s)) == key {
                    return Some(mem.read_u64(st.value_addr(b, s)));
                }
            }
        }
        None
    }

    /// [`KvStore::live_entries`] as it read before line runs.
    fn live_entries_per_word(st: &KvStore, mem: &mut PersistMemory) -> u64 {
        let mut n = 0;
        for b in 0..st.buckets {
            for s in 0..st.slots {
                let k = mem.read_u64(st.key_addr(b, s));
                if k != EMPTY && k != TOMBSTONE {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn line_runs_read_what_per_word_reads_read() {
        // A tiny cache (every lookup misses and evicts) with fill-time
        // media errors on: both readers must roll the same faults.
        let mut mem = PersistMemory::new(NvmConfig::tiny_cache());
        let st = KvStore::create(&mut mem, 64, 8);
        let keys: Vec<u64> = (1..=200u64).map(|k| k * 7_919).collect();
        for (i, &k) in keys.iter().enumerate() {
            let b = st.bucket_of(k);
            let s = (0..st.slots)
                .find(|&s| mem.read_u64(st.key_addr(b, s)) == EMPTY)
                .expect("home bucket has room");
            let tag = if i % 9 == 4 { TOMBSTONE } else { k };
            mem.write_u64(st.key_addr(b, s), tag);
            mem.write_u64(st.value_addr(b, s), k ^ 0xABCD);
        }
        mem.flush_all();
        mem.set_fault_config(Some(nvm::FaultConfig::media(11, 2_500, 800)));
        let mut old = mem.clone();
        // Present keys, tombstoned ones, and an absent key, which walks
        // every slot of all 8 probe buckets.
        let absent = 3;
        assert!(!keys.contains(&absent));
        for &k in keys.iter().chain([absent].iter()) {
            let loads = mem.stats().load_ops;
            assert_eq!(
                st.lookup_host(&mut mem, k),
                lookup_host_per_word(&st, &mut old, k),
                "key {k}"
            );
            assert_eq!(mem.stats(), old.stats(), "key {k}");
            assert_eq!(mem.take_ecc_log(), old.take_ecc_log(), "key {k}");
            if k == absent {
                let walked = mem.stats().load_ops - loads;
                assert_eq!(walked, PROBE_BUCKETS * st.slots);
            }
        }
        assert_eq!(
            st.live_entries(&mut mem),
            live_entries_per_word(&st, &mut old)
        );
        assert_eq!(mem.stats(), old.stats());
        assert_eq!(mem.dirty_line_info(), old.dirty_line_info());
        assert!(mem.stats().ecc_detected_errors > 0, "faults were rolled");
    }

    #[test]
    fn probe_wraps_at_table_end() {
        let (_, st) = store();
        // Find a key whose home bucket is the last one.
        let key = (0..10_000u64).find(|&k| st.bucket_of(k) == 63).unwrap();
        let probes: Vec<u64> = st.probe_buckets(key).collect();
        assert_eq!(probes[..4], [63, 0, 1, 2]);
        assert_eq!(probes.len(), PROBE_BUCKETS as usize);
    }
}
