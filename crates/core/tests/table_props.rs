//! Property-based tests for the checksum tables: no organisation may ever
//! lose or corrupt a published checksum, under arbitrary key sets, load
//! factors, and hash seeds.

use gpu_lp::table::{AtomicPolicy, ChecksumTable, ChecksumTableOps, LockPolicy, TableKind};
use nvm::{NvmConfig, PersistMemory};
use proptest::prelude::*;
use simt::{BlockCtx, DeviceConfig, DeviceState, Dim3, LaunchConfig};
use std::collections::BTreeSet;

fn rig() -> (PersistMemory, DeviceConfig, LaunchConfig) {
    (
        PersistMemory::new(NvmConfig::default()),
        DeviceConfig::test_gpu(),
        LaunchConfig {
            grid: Dim3::x(64),
            block: Dim3::x(64),
        },
    )
}

fn checksums_for(k: u64) -> [u64; 2] {
    [k.wrapping_mul(0x9E37_79B9), !k]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cuckoo_roundtrips_any_keyset(
        keys in prop::collection::btree_set(0u64..100_000, 1..256),
        load_factor in 0.25f64..0.49,
        seed in any::<u64>(),
    ) {
        let (mut mem, cfg, lc) = rig();
        let t = ChecksumTable::create(
            &mut mem,
            TableKind::Cuckoo { load_factor, max_displacements: 32 },
            keys.len() as u64,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            seed,
        );
        let mut dev = DeviceState::new(&cfg, 64, 128);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        for &k in &keys {
            t.insert(&mut ctx, k, &checksums_for(k));
        }
        let _ = ctx.into_cost();
        for &k in &keys {
            prop_assert_eq!(t.lookup(&mut mem, k), Some(checksums_for(k).to_vec()), "key {}", k);
        }
        // Absent keys stay absent.
        let absent: Vec<u64> = (200_000..200_016).collect();
        for k in absent {
            prop_assert_eq!(t.lookup(&mut mem, k), None);
        }
    }

    #[test]
    fn quad_racy_mode_still_roundtrips(
        keys in prop::collection::btree_set(0u64..50_000, 1..128),
        seed in any::<u64>(),
    ) {
        // The racy (§IV-D3) emulation may lose slot races — slower, but it
        // must remain *correct*: every key retrievable with its checksums.
        let (mut mem, cfg, lc) = rig();
        let t = ChecksumTable::create(
            &mut mem,
            TableKind::QuadraticProbing { load_factor: 0.6 },
            keys.len() as u64,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Racy,
            seed,
        );
        let mut dev = DeviceState::new(&cfg, keys.len() as u64, 128);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        for &k in &keys {
            t.insert(&mut ctx, k, &checksums_for(k));
        }
        let _ = ctx.into_cost();
        for &k in &keys {
            let got = t.lookup(&mut mem, k);
            // A lost race means the key landed at a later probe index; the
            // lookup walks the same sequence, so it must still be found.
            prop_assert_eq!(got, Some(checksums_for(k).to_vec()), "key {}", k);
        }
    }

    #[test]
    fn cuckoo_racy_mode_still_roundtrips(
        keys in prop::collection::btree_set(0u64..50_000, 1..256),
        seed in any::<u64>(),
    ) {
        // At the V100's 2 560 concurrent blocks the racy exchange loses
        // modelled races. A lost race costs a redo of the exchange; the
        // occupant it displaced must still move to the other table.
        let (mut mem, _, lc) = rig();
        let cfg = DeviceConfig::v100();
        let t = ChecksumTable::create(
            &mut mem,
            TableKind::cuckoo(),
            keys.len() as u64,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Racy,
            seed,
        );
        let mut dev = DeviceState::new(&cfg, 4096, 128);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        for &k in &keys {
            t.insert(&mut ctx, k, &checksums_for(k));
        }
        let _ = ctx.into_cost();
        for &k in &keys {
            prop_assert_eq!(t.lookup(&mut mem, k), Some(checksums_for(k).to_vec()), "key {}", k);
        }
    }

    #[test]
    fn global_array_is_exact_and_isolated(
        updates in prop::collection::vec((0u64..512, any::<u64>(), any::<u64>()), 1..128),
    ) {
        let (mut mem, cfg, lc) = rig();
        let t = ChecksumTable::create(
            &mut mem, TableKind::GlobalArray, 512, 2, LockPolicy::LockFree, AtomicPolicy::Atomic, 0,
        );
        let mut dev = DeviceState::new(&cfg, 512, 128);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut shadow = std::collections::HashMap::new();
        for &(k, a, b) in &updates {
            t.insert(&mut ctx, k, &[a, b]);
            shadow.insert(k, vec![a, b]);
        }
        let _ = ctx.into_cost();
        for (k, want) in shadow {
            prop_assert_eq!(t.lookup(&mut mem, k), Some(want));
        }
    }

    #[test]
    fn tables_agree_after_interleaved_reinserts(
        keys in prop::collection::vec(0u64..256, 1..200),
    ) {
        // Re-inserting a key (recovery re-execution) must always leave the
        // *latest* checksums visible, for every organisation.
        let unique: BTreeSet<u64> = keys.iter().copied().collect();
        let (mut mem, cfg, lc) = rig();
        let mut create = |kind, seed| {
            ChecksumTable::create(&mut mem, kind, 256, 1, LockPolicy::LockFree, AtomicPolicy::Atomic, seed)
        };
        let quad = create(TableKind::QuadraticProbing { load_factor: 0.6 }, 3);
        let cuckoo = create(TableKind::Cuckoo { load_factor: 0.45, max_displacements: 32 }, 5);
        let array = create(TableKind::GlobalArray, 0);
        let mut dev = DeviceState::new(&cfg, 64, 128);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut version = std::collections::HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            let cs = [k + i as u64];
            quad.insert(&mut ctx, k, &cs);
            cuckoo.insert(&mut ctx, k, &cs);
            array.insert(&mut ctx, k, &cs);
            version.insert(k, cs[0]);
        }
        let _ = ctx.into_cost();
        for &k in &unique {
            let want = Some(vec![version[&k]]);
            prop_assert_eq!(quad.lookup(&mut mem, k), want.clone(), "quad key {}", k);
            prop_assert_eq!(cuckoo.lookup(&mut mem, k), want.clone(), "cuckoo key {}", k);
            prop_assert_eq!(array.lookup(&mut mem, k), want, "array key {}", k);
        }
    }
}
