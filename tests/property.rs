//! Property-based tests on the system's core invariants, spanning crates:
//! checksum algebra, checksum tables, the cache persistence model, and the
//! headline invariant — *recovery from a crash at any point reproduces the
//! crash-free output*.

use lpgpu::gpu_lp::checksum::ChecksumSet;
use lpgpu::gpu_lp::table::{AtomicPolicy, ChecksumTable, ChecksumTableOps, LockPolicy, TableKind};
use lpgpu::gpu_lp::{LpConfig, ResilientRecovery};
use lpgpu::lp_kernels::{stage, workload_by_name, world, Scale};
use lpgpu::nvm::{NvmConfig, PersistMemory};
use lpgpu::simt::{BlockCtx, CrashPlan, DeviceConfig, DeviceState, Dim3, LaunchConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Modular+parity detects any single-value corruption.
    #[test]
    fn checksum_pair_detects_single_corruption(
        values in prop::collection::vec(any::<u64>(), 1..128),
        idx in any::<prop::sample::Index>(),
        flip in 0u32..64,
    ) {
        let set = ChecksumSet::modular_parity();
        let good = set.digest(values.iter().copied());
        let mut bad = values.clone();
        let i = idx.index(bad.len());
        bad[i] ^= 1u64 << flip;
        prop_assert_ne!(set.digest(bad), good, "flipped bit went undetected");
    }

    /// Modular+parity detects any lost suffix (the cache-line-loss shape).
    #[test]
    fn checksum_pair_detects_lost_suffix(
        values in prop::collection::vec(1u64..u64::MAX, 2..128),
        keep in any::<prop::sample::Index>(),
    ) {
        let set = ChecksumSet::modular_parity();
        let good = set.digest(values.iter().copied());
        let keep = keep.index(values.len() - 1); // 0..len-1: always drops >=1
        let truncated = set.digest(values[..keep].iter().copied());
        prop_assert_ne!(truncated, good);
    }

    /// Checksum digests are order-independent (the LP associativity
    /// requirement) for the modular+parity pair.
    #[test]
    fn checksum_pair_is_order_independent(
        mut values in prop::collection::vec(any::<u64>(), 1..64),
        seed in any::<u64>(),
    ) {
        let set = ChecksumSet::modular_parity();
        let a = set.digest(values.iter().copied());
        // Deterministic shuffle.
        let n = values.len();
        for i in (1..n).rev() {
            let j = (lpgpu::gpu_lp::table::splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
            values.swap(i, j);
        }
        prop_assert_eq!(set.digest(values), a);
    }

    /// Quadratic-probing table: every inserted key is retrievable with its
    /// exact checksums, at any load factor, under arbitrary key subsets.
    #[test]
    fn quad_table_never_loses_keys(
        keys in prop::collection::btree_set(0u64..10_000, 1..200),
        load_factor in 0.3f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut mem = PersistMemory::new(NvmConfig::default());
        let t = ChecksumTable::create(
            &mut mem,
            TableKind::QuadraticProbing { load_factor },
            keys.len() as u64,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            seed,
        );
        let cfg = DeviceConfig::test_gpu();
        let mut dev = DeviceState::new(&cfg, 64, 128);
        let lc = LaunchConfig { grid: Dim3::x(64), block: Dim3::x(64) };
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        for &k in &keys {
            t.insert(&mut ctx, k, &[k.wrapping_mul(3), !k]);
        }
        let _ = ctx.into_cost();
        for &k in &keys {
            prop_assert_eq!(t.lookup(&mut mem, k), Some(vec![k.wrapping_mul(3), !k]));
        }
    }

    /// Cache model: after any access sequence, the volatile view reflects
    /// every write, and flush+crash preserves it exactly.
    #[test]
    fn cache_views_reconcile(
        writes in prop::collection::vec((0u64..512, any::<u64>()), 1..100),
    ) {
        let mut mem = PersistMemory::new(NvmConfig {
            line_size: 64,
            cache_lines: 8,
            associativity: 2,
            ..NvmConfig::default()
        });
        let base = mem.alloc(512 * 8, 8);
        let mut shadow = vec![0u64; 512];
        for &(i, v) in &writes {
            mem.write_u64(base.index(i, 8), v);
            shadow[i as usize] = v;
        }
        for i in 0..512u64 {
            prop_assert_eq!(mem.read_u64(base.index(i, 8)), shadow[i as usize]);
        }
        mem.flush_all();
        mem.crash();
        for i in 0..512u64 {
            prop_assert_eq!(mem.read_u64(base.index(i, 8)), shadow[i as usize]);
        }
    }
}

proptest! {
    // The headline property is expensive (full kernel + recovery per case).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash anywhere, recover, get the crash-free output — for a compute
    /// kernel (SPMV) and a histogram kernel (HISTO).
    #[test]
    fn recovery_from_any_crash_point_is_exact(
        crash_point in 0u64..20_000,
        workload_pick in 0usize..2,
        seed in 0u64..1000,
    ) {
        let name = ["SPMV", "HISTO"][workload_pick];
        let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 256, 8);
        let mut w = workload_by_name(name, Scale::Test, seed).unwrap();
        let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
        let kernel = w.kernel(Some(&rt));
        let outcome = gpu
            .launch_with_plan(kernel.as_ref(), &mut mem, CrashPlan::after_stores(crash_point))
            .expect("launch");
        if !outcome.crashed() {
            mem.flush_all();
        }
        let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
        prop_assert!(report.all_durable);
        prop_assert!(w.verify(&mut mem), "{}: output wrong after recovery at {}", name, crash_point);
    }
}
