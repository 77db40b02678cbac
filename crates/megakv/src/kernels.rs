//! One batched KV operation (insert / search / delete) as an LP
//! [`Region`]: [`gpu_lp::LpKernel`] runs it with or without Lazy
//! Persistency instrumentation and recovers it after a crash.
//!
//! One thread per operation, 256 operations per thread block (one LP
//! region). Recovery recomputation derives each operation's expected
//! post-state image from the table/result arrays in memory, so a block
//! whose effects did not fully persist fails validation and is re-executed
//! — all three operations are idempotent.

use crate::app::OpKind;
use crate::batch::Batch;
use crate::store::{KvStore, EMPTY, NOT_FOUND, TOMBSTONE};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, Region};
use nvm::PersistMemory;
use simt::{BlockCtx, LaunchConfig};

/// Operations per thread block.
pub const OPS_PER_BLOCK: u32 = 256;

/// Store image recorded by a delete op once the key is gone.
const DELETED_IMAGE: u64 = 0xDE1E_7E00_0000_0001;

/// One batched operation over the store:
/// - insert: `store[key] = value_of(key)`;
/// - search: `out[i] = store[key[i]]` (or [`NOT_FOUND`]), results landing
///   in `batch.out`;
/// - delete: tombstones the key's slot.
#[derive(Debug)]
pub struct BatchKernel<'a> {
    /// Which operation every thread of the batch runs.
    pub op: OpKind,
    /// The device hash table.
    pub store: &'a KvStore,
    /// The operation batch.
    pub batch: &'a Batch,
}

impl BatchKernel<'_> {
    fn insert(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let i = ctx.global_thread_id(t);
            if i >= self.batch.len() as u64 {
                continue;
            }
            let key = ctx.load_u64(self.batch.keys.index(i, 8));
            let value = crate::batch::value_of(key);
            // MEGA-KV insert pipeline work per op: two hash functions,
            // signature construction, slot scoring, value serialisation.
            ctx.charge_alu(1600);
            // Cheap non-atomic peek first; CAS only to claim. A slot that
            // already holds the key is a re-insert (e.g. recovery
            // re-execution), which refreshes the value.
            let slot = self.store.probe(ctx, key, |ctx, k, kaddr| {
                if k != EMPTY {
                    return k == key;
                }
                let old = lp.atomic_cas_u64(ctx, kaddr, EMPTY, key);
                old == EMPTY || old == key
            });
            // Dropping a record silently would corrupt the store (and was
            // caught by the crash-property suite at an unlucky seed): the
            // probe window must never be exhausted at this load factor.
            let Some(value_addr) = slot else {
                panic!("KV store probe window exhausted for key {key}: resize the store");
            };
            // The key and value stores are this op's persistent effect.
            lp.update(ctx, t, key);
            lp.store_u64(ctx, t, value_addr, value);
        }
    }

    fn search(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let i = ctx.global_thread_id(t);
            if i >= self.batch.len() as u64 {
                continue;
            }
            let key = ctx.load_u64(self.batch.keys.index(i, 8));
            let mut result = NOT_FOUND;
            // Hashing + signature comparison + result marshalling per op.
            ctx.charge_alu(900);
            if let Some(value_addr) = self.store.probe(ctx, key, |_, k, _| k == key) {
                result = ctx.load_u64(value_addr);
            }
            lp.store_u64(ctx, t, self.batch.out.index(i, 8), result);
        }
    }

    fn delete(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let i = ctx.global_thread_id(t);
            if i >= self.batch.len() as u64 {
                continue;
            }
            let key = ctx.load_u64(self.batch.keys.index(i, 8));
            // Hashing + signature match per op (deletes skip the value path).
            ctx.charge_alu(600);
            self.store.probe(ctx, key, |ctx, k, kaddr| {
                if k == key {
                    lp.atomic_cas_u64(ctx, kaddr, key, TOMBSTONE);
                }
                k == key
            });
            // Post-state image: the key is absent, whether or not it was
            // ever present (deletes are idempotent).
            lp.update(ctx, t, DELETED_IMAGE);
        }
    }

    fn insert_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let tpb = OPS_PER_BLOCK as u64;
        for t in 0..tpb {
            let i = block * tpb + t;
            if i >= self.batch.len() as u64 {
                continue;
            }
            let key = self.batch.host_keys[i as usize];
            // Expected post-state: key present with its value. If the key
            // or value store was lost, the images differ and the region is
            // re-executed.
            match self.store.lookup_host(mem, key) {
                Some(v) => {
                    images.push(key);
                    images.push(v);
                }
                None => {
                    images.push(NOT_FOUND); // key missing: guaranteed mismatch
                    images.push(NOT_FOUND);
                }
            }
        }
        // The kernel folded (key, value) per op: the read-back pair stream
        // is in the same order.
    }

    fn search_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let tpb = OPS_PER_BLOCK as u64;
        let first = block * tpb;
        let count = tpb.min((self.batch.len() as u64).saturating_sub(first));
        read_back_images::<1, 8>(mem, [self.batch.out.index(first, 8)], count, images);
    }

    fn delete_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let tpb = OPS_PER_BLOCK as u64;
        for t in 0..tpb {
            let i = block * tpb + t;
            if i >= self.batch.len() as u64 {
                continue;
            }
            let key = self.batch.host_keys[i as usize];
            // If the tombstone did not persist the key is still visible —
            // image mismatch, region re-executes.
            images.push(match self.store.lookup_host(mem, key) {
                None => DELETED_IMAGE,
                Some(_) => key,
            });
        }
    }
}

impl Region for BatchKernel<'_> {
    fn name(&self) -> &str {
        self.op.kernel_name()
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.batch.len() as u64, OPS_PER_BLOCK)
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        match self.op {
            OpKind::Insert => self.insert(ctx, lp),
            OpKind::Search => self.search(ctx, lp),
            OpKind::Delete => self.delete(ctx, lp),
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        match self.op {
            OpKind::Insert => self.insert_images(mem, block, images),
            OpKind::Search => self.search_images(mem, block, images),
            OpKind::Delete => self.delete_images(mem, block, images),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::value_of;
    use gpu_lp::LpKernel;
    use nvm::NvmConfig;
    use simt::{DeviceConfig, Gpu};

    fn world(records: usize) -> (Gpu, PersistMemory, KvStore) {
        let mut mem = PersistMemory::new(NvmConfig::default());
        let store = KvStore::create(&mut mem, (records as u64 / 4).max(8), 8);
        (Gpu::new(DeviceConfig::test_gpu()), mem, store)
    }

    #[test]
    fn insert_then_search_finds_values() {
        let (gpu, mut mem, store) = world(512);
        let keys: Vec<u64> = (1..=512).collect();
        let ins = Batch::upload(&mut mem, keys.clone());
        gpu.launch(
            &LpKernel::new(
                BatchKernel {
                    op: OpKind::Insert,
                    store: &store,
                    batch: &ins,
                },
                None,
            ),
            &mut mem,
        )
        .unwrap();
        let se = Batch::upload(&mut mem, keys.clone());
        gpu.launch(
            &LpKernel::new(
                BatchKernel {
                    op: OpKind::Search,
                    store: &store,
                    batch: &se,
                },
                None,
            ),
            &mut mem,
        )
        .unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                mem.read_u64(se.out.index(i as u64, 8)),
                value_of(k),
                "key {k}"
            );
        }
    }

    #[test]
    fn search_missing_reports_not_found() {
        let (gpu, mut mem, store) = world(64);
        let se = Batch::upload(&mut mem, vec![9999]);
        gpu.launch(
            &LpKernel::new(
                BatchKernel {
                    op: OpKind::Search,
                    store: &store,
                    batch: &se,
                },
                None,
            ),
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_u64(se.out.index(0, 8)), NOT_FOUND);
    }

    #[test]
    fn delete_removes_only_targets() {
        let (gpu, mut mem, store) = world(128);
        let keys: Vec<u64> = (1..=128).collect();
        let ins = Batch::upload(&mut mem, keys.clone());
        gpu.launch(
            &LpKernel::new(
                BatchKernel {
                    op: OpKind::Insert,
                    store: &store,
                    batch: &ins,
                },
                None,
            ),
            &mut mem,
        )
        .unwrap();
        let dels: Vec<u64> = keys.iter().copied().filter(|k| k % 2 == 0).collect();
        let del = Batch::upload(&mut mem, dels.clone());
        gpu.launch(
            &LpKernel::new(
                BatchKernel {
                    op: OpKind::Delete,
                    store: &store,
                    batch: &del,
                },
                None,
            ),
            &mut mem,
        )
        .unwrap();
        for k in keys {
            let found = store.lookup_host(&mut mem, k);
            if k % 2 == 0 {
                assert_eq!(found, None, "key {k} should be gone");
            } else {
                assert_eq!(found, Some(value_of(k)), "key {k} should remain");
            }
        }
    }

    #[test]
    fn insert_is_idempotent() {
        let (gpu, mut mem, store) = world(64);
        let ins = Batch::upload(&mut mem, (1..=64).collect());
        let k = LpKernel::new(
            BatchKernel {
                op: OpKind::Insert,
                store: &store,
                batch: &ins,
            },
            None,
        );
        gpu.launch(&k, &mut mem).unwrap();
        gpu.launch(&k, &mut mem).unwrap(); // re-execution must not duplicate
        assert_eq!(store.live_entries(&mut mem), 64);
    }
}
