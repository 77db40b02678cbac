//! The observed launches of the other kernels that stage global tiles into
//! shared memory, pinned the way `tmm_pin.rs` pins TMM's. MRI-Q, CUTCP and
//! TPACF read their staged records with `BlockCtx::shm_read_f32s`, and
//! CUTCP and TPACF stage them with `BlockCtx::stage_shm_f32`; both test the
//! observer once, and their observed paths must still report every access
//! exactly as the per-element loops they replaced did. The constants were
//! taken from the per-element kernels. A second test holds each kernel's
//! plain launch to its observed one: the same `LaunchStats`, `NvmStats`
//! and output image, so the unobserved fast paths book what the
//! per-element accesses booked.

use gpu_lp::LpConfig;
use lp_kernels::{stage, test_world as world, workload_by_name, Scale};
use simt::{AccessKind, AccessObserver, LaunchConfig};

/// FNV-1a over every observer callback, in order, with its arguments.
struct StreamDigest {
    events: u64,
    hash: u64,
}

impl StreamDigest {
    fn new() -> Self {
        Self {
            events: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn event(&mut self, tag: u64, fields: &[u64]) {
        self.events += 1;
        for &v in std::iter::once(&tag).chain(fields) {
            for b in v.to_le_bytes() {
                self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

fn kind_code(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
        AccessKind::Atomic => 2,
    }
}

impl AccessObserver for StreamDigest {
    fn on_launch_begin(&mut self, _kernel: &str, lc: &LaunchConfig) {
        self.event(0, &[lc.num_blocks(), lc.threads_per_block()]);
    }

    fn on_launch_end(&mut self) {
        self.event(1, &[]);
    }

    fn on_block_begin(&mut self, block: u64) {
        self.event(2, &[block]);
    }

    fn on_block_end(&mut self, block: u64) {
        self.event(3, &[block]);
    }

    fn on_barrier(&mut self, block: u64) {
        self.event(4, &[block]);
    }

    fn on_shared_access(&mut self, block: u64, thread: u64, word: usize, kind: AccessKind) {
        self.event(5, &[block, thread, word as u64, kind_code(kind)]);
    }

    fn on_global_access(
        &mut self,
        block: u64,
        thread: u64,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        locked: bool,
    ) {
        self.event(
            6,
            &[
                block,
                thread,
                addr,
                bytes,
                kind_code(kind),
                u64::from(locked),
            ],
        );
    }

    fn on_region_begin(&mut self, block: u64) {
        self.event(7, &[block]);
    }

    fn on_region_end(&mut self, block: u64) {
        self.event(8, &[block]);
    }

    fn on_protected_store(&mut self, block: u64, addr: u64) {
        self.event(9, &[block, addr]);
    }
}

const SEED: u64 = 7;

/// `(kernel, events, stream hash)` of each observed test-scale launch.
const PINNED: [(&str, u64, u64); 3] = [
    ("MRI-Q", 75_026, 0x1664_84c9_ce68_7014),
    ("CUTCP", 68_810, 0xe505_2a12_d263_7cdc),
    ("TPACF", 22_282, 0x4006_f109_a2a3_43c4),
];

#[test]
fn observer_event_streams_are_pinned() {
    for (name, events, hash) in PINNED {
        let mut w = workload_by_name(name, Scale::Test, SEED).expect("subject exists");
        let (gpu, mut mem) = world();
        let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
        let kernel = w.kernel(Some(&rt));
        let mut digest = StreamDigest::new();
        gpu.launch_observed(kernel.as_ref(), &mut mem, &mut digest)
            .expect("observed launch failed");
        assert_eq!(
            (digest.events, digest.hash),
            (events, hash),
            "{name}: {} events, hash {:#x}",
            digest.events,
            digest.hash
        );
    }
}

#[test]
fn plain_launches_book_what_observed_launches_book() {
    for name in ["TMM", "MRI-Q", "CUTCP", "TPACF"] {
        let mut w = workload_by_name(name, Scale::Test, SEED).expect("subject exists");
        let (gpu, mut plain) = world();
        let rt = stage(w.as_mut(), &gpu, &mut plain, &LpConfig::recommended());
        let mut observed = plain.clone();
        let kernel = w.kernel(Some(&rt));
        let stats = gpu.launch(kernel.as_ref(), &mut plain).expect("launch");
        let observed_stats = gpu
            .launch_observed(kernel.as_ref(), &mut observed, &mut StreamDigest::new())
            .expect("observed launch");
        assert_eq!(stats, observed_stats, "{name}");
        assert_eq!(plain.stats(), observed.stats(), "{name}");
        assert_eq!(
            plain.dirty_line_info(),
            observed.dirty_line_info(),
            "{name}"
        );
        assert!(w.verify(&mut plain), "{name}");
        assert!(w.verify(&mut observed), "{name}");
        assert_eq!(plain.stats(), observed.stats(), "{name} read-back");
    }
}
