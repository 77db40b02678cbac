//! Property: recovery on a corrupted durable image gives a verdict.
//!
//! Faults off, so the device itself is perfect: a clean launch of a
//! `Fill` region is flushed, random bytes of its output and of the
//! checksum table (`LpRuntime::table_ranges`) are flipped and made
//! durable, and the power is cut. Under each table organisation
//! `ResilientRecovery::recover` must then never panic, and must end
//! `all_durable` (every flip is repairable by re-execution on a perfect
//! device) with the output right again.
//!
//! One exception is LP's by design: a region whose flips cancel in both
//! checksums (a compensating pair, the false-negative class of §IV-B)
//! validates as it stands. The test digests each corrupted region itself
//! before recovery, and only such a region may stay wrong. Input arrays
//! are LP's trusted durable inputs; `Fill` reads none.

use gpu_lp::checksum::{f32_store_image, read_back_images};
use gpu_lp::{
    ChecksumSet, LpBlockSession, LpConfig, LpKernel, LpRuntime, Region, ResilientRecovery,
};
use nvm::{Addr, NvmConfig, PersistMemory};
use proptest::prelude::*;
use simt::{BlockCtx, DeviceConfig, Gpu, LaunchConfig};

const N: u64 = 1024;
const TPB: u64 = 64;
const REGIONS: u64 = N / TPB;

fn value(i: u64) -> f32 {
    (i % 89) as f32 * 0.25
}

/// `out[i] = value(i)`, one protected store per thread.
struct Fill {
    out: Addr,
}

impl Region for Fill {
    fn name(&self) -> &str {
        "fill_lp_corrupt"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(N, TPB as u32)
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        for t in 0..ctx.threads_per_block() {
            let i = ctx.global_thread_id(t);
            lp.store_f32(ctx, t, self.out.index(i, 4), value(i));
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        read_back_images::<1, 4>(mem, [self.out.index(block * TPB, 4)], TPB, images);
    }
}

/// The regions whose output words differ from `value`.
fn wrong_regions(mem: &mut PersistMemory, out: Addr) -> Vec<u64> {
    let mut wrong: Vec<u64> = (0..N)
        .filter(|&i| mem.read_f32(out.index(i, 4)).to_bits() != value(i).to_bits())
        .map(|i| i / TPB)
        .collect();
    wrong.dedup();
    wrong
}

/// Whether `set` cannot tell region `r`'s output in `mem` from the one
/// `Fill` wrote.
fn undetectable(set: &ChecksumSet, mem: &mut PersistMemory, out: Addr, r: u64) -> bool {
    let mut images = Vec::new();
    read_back_images::<1, 4>(mem, [out.index(r * TPB, 4)], TPB, &mut images);
    let written = (r * TPB..(r + 1) * TPB).map(|i| f32_store_image(value(i)));
    set.digest(images) == set.digest(written)
}

/// XORs the byte at `addr` with `mask`.
fn flip(mem: &mut PersistMemory, addr: u64, mask: u8) {
    let mut byte = [0u8];
    mem.read_bytes(Addr::new(addr), &mut byte);
    mem.write_bytes(Addr::new(addr), &[byte[0] ^ mask]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recovery_on_corrupted_output_or_table_bytes_gives_a_verdict(
        config in 0usize..3,
        flips in prop::collection::vec((any::<bool>(), any::<u64>(), 1u8..=255), 1..12),
    ) {
        let config = [LpConfig::recommended(), LpConfig::quad(), LpConfig::cuckoo()][config].clone();
        let table = config.table;
        let gpu = Gpu::new(DeviceConfig::test_gpu());
        let mut mem = PersistMemory::new(NvmConfig {
            cache_lines: 64,
            associativity: 4,
            ..NvmConfig::default()
        });
        let out = mem.alloc(4 * N, 8);
        let rt = LpRuntime::setup(&mut mem, REGIONS, TPB, config);
        let kernel = LpKernel::new(Fill { out }, Some(&rt));
        gpu.launch(&kernel, &mut mem).unwrap();
        mem.flush_all();

        let tables = rt.table_ranges();
        let table_bytes: u64 = tables.iter().map(|&(_, len)| len).sum();
        for (in_output, pos, mask) in flips {
            // Byte `pos` of the output, or of the table ranges end to end.
            let mut at = pos % if in_output { 4 * N } else { table_bytes };
            let ranges = if in_output { vec![(out.raw(), 4 * N)] } else { tables.clone() };
            for (base, len) in ranges {
                if at < len {
                    flip(&mut mem, base + at, mask);
                    break;
                }
                at -= len;
            }
        }
        mem.flush_all();
        mem.crash();

        // The corrupted regions the checksums themselves cannot see, read
        // on a fork so recovery starts from the crash as it is.
        let mut fork = mem.clone();
        let blind: Vec<u64> = wrong_regions(&mut fork, out)
            .into_iter()
            .filter(|&r| undetectable(&rt.config().checksums, &mut fork, out, r))
            .collect();

        let report = ResilientRecovery::new(&gpu).recover(&kernel, &rt, &mut mem);
        prop_assert!(report.all_durable, "{table:?}: {report:?}");
        mem.crash();
        let wrong = wrong_regions(&mut mem, out);
        prop_assert!(
            wrong.iter().all(|r| blind.contains(r)),
            "{table:?}: recovered, yet regions {wrong:?} are wrong \
             (ones the checksums cannot see: {blind:?}): {report:?}"
        );
    }
}
