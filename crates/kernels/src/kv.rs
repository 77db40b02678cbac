//! MEGA-KV's three batch operations (§VII-4) as [`Workload`]s, so the
//! key-value store is staged, measured, crashed and recovered through the
//! same path as the Table I kernels.

use crate::workload::Workload;
use gpu_lp::{LpRuntime, Recoverable};
use megakv::app::OpKind;
use megakv::kernels::OPS_PER_BLOCK;
use megakv::MegaKv;
use nvm::PersistMemory;
use simt::{Gpu, LaunchConfig};

/// One batched MEGA-KV operation against a store of `records` keys.
#[derive(Debug)]
pub struct KvBatch {
    op: OpKind,
    records: usize,
    seed: u64,
    app: Option<MegaKv>,
}

impl KvBatch {
    /// A batch of `op` over `records` keys. `setup` must follow.
    ///
    /// The record count is an argument because its two callers pin
    /// different ones: the subject table sizes batches for the crash
    /// campaign, the §VII-4 experiment like the paper (16 K).
    pub fn new(op: OpKind, records: usize, seed: u64) -> Self {
        Self {
            op,
            records,
            seed,
            app: None,
        }
    }

    /// Operations in the batch: every record is inserted and searched,
    /// every second one deleted.
    fn ops(&self) -> u64 {
        let records = self.records as u64;
        match self.op {
            OpKind::Insert | OpKind::Search => records,
            OpKind::Delete => records.div_ceil(2),
        }
    }

    fn app(&self) -> &MegaKv {
        self.app.as_ref().expect("Workload::setup runs first")
    }
}

impl Workload for KvBatch {
    fn setup(&mut self, mem: &mut PersistMemory) {
        self.app = Some(MegaKv::new(mem, self.records, self.seed));
    }

    /// Search and delete operate on a populated, durable store: the
    /// inserts run first, uninstrumented, and are persisted — what the
    /// pipeline's earlier batches would have left behind.
    fn warm_up(&self, gpu: &Gpu, mem: &mut PersistMemory) {
        if self.op != OpKind::Insert {
            self.app().run(gpu, mem, OpKind::Insert, None);
            mem.flush_all();
        }
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.ops(), OPS_PER_BLOCK)
    }

    fn kernel<'a>(&'a self, lp: Option<&'a LpRuntime>) -> Box<dyn Recoverable + 'a> {
        self.app().kernel(self.op, lp)
    }

    fn payload_bytes(&self) -> u64 {
        // Insert persists a key and a value per operation; search a result
        // slot; delete a tombstoned key.
        self.ops()
            * match self.op {
                OpKind::Insert => 16,
                OpKind::Search | OpKind::Delete => 8,
            }
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        match self.op {
            OpKind::Insert => self.app().verify_inserts(mem),
            OpKind::Search => self.app().verify_searches(mem),
            OpKind::Delete => self.app().verify_deletes(mem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_the_uploaded_batch() {
        for op in OpKind::ALL {
            let (gpu, mut mem) = crate::test_world();
            let mut w = KvBatch::new(op, 1000, 7);
            let planned = w.launch_config();
            crate::stage_baseline(&mut w, &gpu, &mut mem);
            assert_eq!(w.kernel(None).config(), planned, "{op:?}");
            assert_eq!(w.app().batch(op).len() as u64, w.ops(), "{op:?}");
        }
    }
}
