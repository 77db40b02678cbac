//! The end-to-end MEGA-KV application: builds the store, generates the
//! §VII-4 operation streams, and runs each batch kernel with or without
//! Lazy Persistency.

use crate::batch::{generate_streams, value_of, Batch};
use crate::kernels::{BatchKernel, OPS_PER_BLOCK};
use crate::store::KvStore;
use gpu_lp::{LpConfig, LpKernel, LpRuntime, ResilientRecovery, ResilientReport};
use nvm::PersistMemory;
use simt::{CrashPlan, Gpu, LaunchStats};

/// Which batched operation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Insert the full record stream.
    Insert,
    /// Search every record.
    Search,
    /// Delete half the records.
    Delete,
}

impl OpKind {
    /// All three, in the pipeline's natural order.
    pub const ALL: [OpKind; 3] = [OpKind::Insert, OpKind::Search, OpKind::Delete];

    /// Display name matching the paper's §VII-4.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Search => "search",
            OpKind::Delete => "delete",
        }
    }

    /// Name of the kernel that runs the batch, as `LaunchStats` reports it.
    pub fn kernel_name(self) -> &'static str {
        match self {
            OpKind::Insert => "megakv-insert",
            OpKind::Search => "megakv-search",
            OpKind::Delete => "megakv-delete",
        }
    }
}

/// The MEGA-KV harness: store + batches in one simulated memory.
#[derive(Debug)]
pub struct MegaKv {
    store: KvStore,
    insert: Batch,
    search: Batch,
    delete: Batch,
}

impl MegaKv {
    /// Builds the store (sized ~8× the record count, i.e. ~25 % load, so
    /// bucket-cluster overflow is out of reach) and uploads the three
    /// §VII-4 operation streams (insert / search / delete over `records`
    /// keys).
    pub fn new(mem: &mut PersistMemory, records: usize, seed: u64) -> Self {
        let buckets = (records as u64 / 2).max(16);
        let store = KvStore::create(mem, buckets, 8);
        let (ins, sea, del) = generate_streams(records, seed);
        let app = Self {
            store,
            insert: Batch::upload(mem, ins),
            search: Batch::upload(mem, sea),
            delete: Batch::upload(mem, del),
        };
        mem.flush_all();
        app
    }

    /// The device hash table.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// The batch driving `op`.
    pub fn batch(&self, op: OpKind) -> &Batch {
        match op {
            OpKind::Insert => &self.insert,
            OpKind::Search => &self.search,
            OpKind::Delete => &self.delete,
        }
    }

    /// Builds an LP runtime sized for `op`'s launch.
    pub fn lp_runtime(&self, mem: &mut PersistMemory, op: OpKind, config: LpConfig) -> LpRuntime {
        let blocks = (self.batch(op).len() as u64).div_ceil(OPS_PER_BLOCK as u64);
        LpRuntime::setup(mem, blocks, OPS_PER_BLOCK as u64, config)
    }

    /// The kernel running `op`'s batch.
    fn kernel<'a>(
        &'a self,
        op: OpKind,
        lp: Option<&'a LpRuntime>,
    ) -> LpKernel<'a, BatchKernel<'a>> {
        let region = BatchKernel {
            op,
            store: &self.store,
            batch: self.batch(op),
        };
        LpKernel::new(region, lp)
    }

    /// Runs `op` to completion and returns its launch stats.
    pub fn run(
        &self,
        gpu: &Gpu,
        mem: &mut PersistMemory,
        op: OpKind,
        lp: Option<&LpRuntime>,
    ) -> LaunchStats {
        let k = self.kernel(op, lp);
        gpu.launch(&k, mem).expect("launch failed")
    }

    /// Runs `op` with a crash injected after `crash_after_stores` global
    /// stores, then recovers. Returns the recovery report.
    pub fn run_with_crash_and_recover(
        &self,
        gpu: &Gpu,
        mem: &mut PersistMemory,
        op: OpKind,
        lp: &LpRuntime,
        crash_after_stores: u64,
    ) -> ResilientReport {
        let k = self.kernel(op, Some(lp));
        let outcome = gpu
            .launch_with_plan(&k, mem, CrashPlan::after_stores(crash_after_stores))
            .expect("launch failed");
        if !outcome.crashed() {
            mem.flush_all();
        }
        ResilientRecovery::new(gpu).recover(&k, lp, mem)
    }

    /// After the insert batch: every key present with its derived value.
    pub fn verify_inserts(&self, mem: &mut PersistMemory) -> bool {
        self.insert
            .host_keys
            .iter()
            .all(|&k| self.store.lookup_host(mem, k) == Some(value_of(k)))
    }

    /// After the search batch: every result slot holds the derived value.
    pub fn verify_searches(&self, mem: &mut PersistMemory) -> bool {
        let mut keys = self.search.host_keys.iter();
        let mut ok = true;
        mem.scan_u64(self.search.out, 8, keys.len() as u64, |got| {
            ok = keys.next().is_some_and(|&k| got == value_of(k));
            ok
        });
        ok
    }

    /// After the delete batch: deleted keys absent, the rest intact.
    pub fn verify_deletes(&self, mem: &mut PersistMemory) -> bool {
        let deleted: std::collections::HashSet<u64> =
            self.delete.host_keys.iter().copied().collect();
        self.insert.host_keys.iter().all(|&k| {
            let found = self.store.lookup_host(mem, k);
            if deleted.contains(&k) {
                found.is_none()
            } else {
                found == Some(value_of(k))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::NvmConfig;
    use simt::DeviceConfig;

    fn world(records: usize) -> (Gpu, PersistMemory, MegaKv) {
        let mut mem = PersistMemory::new(NvmConfig {
            cache_lines: 1024,
            associativity: 8,
            ..NvmConfig::default()
        });
        let app = MegaKv::new(&mut mem, records, 0x4B56);
        (Gpu::new(DeviceConfig::test_gpu()), mem, app)
    }

    #[test]
    fn pipeline_baseline() {
        let (gpu, mut mem, app) = world(2048);
        app.run(&gpu, &mut mem, OpKind::Insert, None);
        assert!(app.verify_inserts(&mut mem));
        app.run(&gpu, &mut mem, OpKind::Search, None);
        assert!(app.verify_searches(&mut mem));
        app.run(&gpu, &mut mem, OpKind::Delete, None);
        assert!(app.verify_deletes(&mut mem));
    }

    #[test]
    fn pipeline_with_lp() {
        let (gpu, mut mem, app) = world(2048);
        for op in OpKind::ALL {
            let rt = app.lp_runtime(&mut mem, op, LpConfig::recommended());
            app.run(&gpu, &mut mem, op, Some(&rt));
        }
        assert!(app.verify_searches(&mut mem));
        assert!(app.verify_deletes(&mut mem));
    }

    #[test]
    fn insert_crash_recovers() {
        let (gpu, mut mem, app) = world(2048);
        let rt = app.lp_runtime(&mut mem, OpKind::Insert, LpConfig::recommended());
        let report = app.run_with_crash_and_recover(&gpu, &mut mem, OpKind::Insert, &rt, 500);
        assert!(report.all_durable, "{report:?}");
        assert!(app.verify_inserts(&mut mem));
    }

    #[test]
    fn search_crash_recovers() {
        let (gpu, mut mem, app) = world(2048);
        app.run(&gpu, &mut mem, OpKind::Insert, None);
        mem.flush_all();
        let rt = app.lp_runtime(&mut mem, OpKind::Search, LpConfig::recommended());
        let report = app.run_with_crash_and_recover(&gpu, &mut mem, OpKind::Search, &rt, 300);
        assert!(report.all_durable, "{report:?}");
        assert!(app.verify_searches(&mut mem));
    }

    #[test]
    fn delete_crash_recovers() {
        let (gpu, mut mem, app) = world(2048);
        app.run(&gpu, &mut mem, OpKind::Insert, None);
        mem.flush_all();
        let rt = app.lp_runtime(&mut mem, OpKind::Delete, LpConfig::recommended());
        let report = app.run_with_crash_and_recover(&gpu, &mut mem, OpKind::Delete, &rt, 200);
        assert!(report.all_durable, "{report:?}");
        assert!(app.verify_deletes(&mut mem));
    }
}
