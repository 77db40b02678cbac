//! TMM's observed launch, pinned. TMM multiplies its shared tiles with one
//! `BlockCtx::shm_tile_dots_f32` call per phase, whose unobserved path skips
//! the per-element observer test; the observed path must still report every
//! access exactly as each thread's per-element `shm_read_f32` loop did.
//! The constants below were taken from the per-element kernel: the
//! sanitizer's counters and findings, and a digest of the whole event
//! stream an observer sees.

use gpu_lp::LpConfig;
use lp_kernels::{stage, test_world as world, workload_by_name, Scale};
use lp_sanitizer::{sanitize_launch_exempt, AccessStats};
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

#[test]
fn tmm_sanitizer_report_is_pinned() {
    let mut w = workload_by_name("TMM", Scale::Test, SEED).expect("TMM exists");
    let (gpu, mut mem) = world();
    let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
    let kernel = w.kernel(Some(&rt));
    let (_, report) = sanitize_launch_exempt(&gpu, kernel.as_ref(), &mut mem, &rt.table_ranges())
        .expect("sanitized launch failed");
    assert!(report.is_clean(), "TMM findings:\n{report}");
    assert_eq!(
        report.stats,
        AccessStats {
            shared_accesses: 82_176,
            global_loads: 16_384,
            global_stores: 1_152,
            global_atomics: 0,
            barriers: 1_088,
            regions: 64,
            regions_committed: 64,
            covered_stores: 1_024,
            multi_writer_lines: 32,
        }
    );
}

#[test]
fn tmm_observer_event_stream_is_pinned() {
    let mut w = workload_by_name("TMM", Scale::Test, SEED).expect("TMM exists");
    let (gpu, mut mem) = world();
    let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
    let kernel = w.kernel(Some(&rt));
    let mut digest = StreamDigest::new();
    gpu.launch_observed(kernel.as_ref(), &mut mem, &mut digest)
        .expect("observed launch failed");
    assert_eq!(
        (digest.events, digest.hash),
        (102_082, 0xc5ad_76cd_9863_eab4)
    );
}
