//! Holds [`PersistMemory::scan_u64`] and [`PersistMemory::scan_u32`] to the
//! loop of typed reads they replace: every random op sequence runs on two
//! memories, one reading its runs with `scan_*` and one expanding each run
//! into per-word `read_*` calls, and after every step the returned words,
//! [`crate::NvmStats`], dirty lines, crash loss, ECC log and durable image
//! must agree. Test-only.

use crate::{Addr, FaultConfig, NvmConfig, PersistMemory};
use proptest::prelude::*;

const LINE: u64 = 16;
/// Lines of address space the ops touch: several times the largest
/// geometry below, so sets fill, evict and overflow.
const SPACE_LINES: u64 = 24;
/// `(cache_lines, associativity)`: 2 and 3 sets, 2- to 4-way.
const GEOMETRIES: [(usize, usize); 4] = [(4, 2), (6, 2), (9, 3), (8, 4)];
const STRIDES: [u64; 3] = [4, 8, 16];

/// What one step returned to its caller.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// The words a run (or a single read) handed out, and its count.
    Words(Vec<u64>, u64),
    Count(u64),
    Flush(crate::FlushOutcome),
    Moved(Addr),
    Nothing,
}

/// How a side reads a run.
#[derive(Clone, Copy)]
enum Runs {
    Scan,
    PerWord,
}

/// A run of `count` `width`-byte words at `start + i * stride`; `f` stops
/// it after word `stop` (never, if `stop >= count`).
fn run(
    mem: &mut PersistMemory,
    how: Runs,
    (start, stride, count, width, stop): (Addr, u64, u64, u64, u64),
) -> Outcome {
    let mut seen = Vec::new();
    let mut f = |w: u64| {
        seen.push(w);
        seen.len() as u64 <= stop
    };
    let read = match (how, width) {
        (Runs::Scan, 8) => mem.scan_u64(start, stride, count, &mut f),
        (Runs::Scan, _) => mem.scan_u32(start, stride, count, |w| f(u64::from(w))),
        (Runs::PerWord, _) => {
            let mut read = count;
            for i in 0..count {
                let a = start.offset(i * stride);
                let w = if width == 8 {
                    mem.read_u64(a)
                } else {
                    u64::from(mem.read_u32(a))
                };
                if !f(w) {
                    read = i + 1;
                    break;
                }
            }
            read
        }
    };
    Outcome::Words(seen, read)
}

fn step(mem: &mut PersistMemory, how: Runs, base: Addr, (kind, x, y): (u8, u64, u64)) -> Outcome {
    let space = SPACE_LINES * LINE;
    let addr = x % space;
    match kind {
        0..=6 => {
            // 1..=12 bytes: straddles a line boundary now and then.
            let len = (1 + y % 12).min(space - addr) as usize;
            let bytes: Vec<u8> = (0..len).map(|i| (y >> 8) as u8 ^ i as u8).collect();
            mem.set_writer(Some(y % 3));
            mem.write_bytes(base.offset(addr), &bytes);
            Outcome::Nothing
        }
        7 | 8 => {
            let a = base.offset(addr.min(space - 8));
            Outcome::Words(vec![mem.read_u64(a)], 1)
        }
        9..=15 => {
            let stride = STRIDES[(y % 3) as usize];
            let width = if y & 4 == 0 { 8 } else { 4 };
            let start = addr.min(space - width);
            let fit = (space - width - start) / stride + 1;
            let count = ((y >> 8) % 14).min(fit);
            let stop = (y >> 16) % 16;
            run(mem, how, (base.offset(start), stride, count, width, stop))
        }
        16 => Outcome::Count(mem.flush_all_result()),
        17 => Outcome::Flush(mem.flush_line_checked(base.offset(addr))),
        18 => {
            mem.crash();
            Outcome::Nothing
        }
        19 => Outcome::Moved(mem.quarantine_line(base.raw() + addr)),
        20 => {
            mem.arm_crash_after_evictions(y % 4);
            Outcome::Nothing
        }
        21 => {
            mem.arm_crash_during_flush(y % 4);
            Outcome::Nothing
        }
        22 => {
            mem.power_on();
            Outcome::Nothing
        }
        23 => {
            mem.invalidate_clean_lines();
            Outcome::Nothing
        }
        _ => {
            // A clone must carry the whole state, remap table included.
            *mem = mem.clone();
            Outcome::Nothing
        }
    }
}

fn equivalent(geometry: usize, faults: Option<FaultConfig>, ops: &[(u8, u64, u64)]) {
    let (cache_lines, associativity) = GEOMETRIES[geometry];
    let mut scan = PersistMemory::new(NvmConfig {
        line_size: LINE as usize,
        cache_lines,
        associativity,
    });
    scan.set_fault_config(faults);
    let base = scan.alloc(SPACE_LINES * LINE, LINE);
    let mut words = scan.clone();
    for (i, &op) in ops.iter().enumerate() {
        let at = format!("step {i} {op:?} on {cache_lines}x{associativity}");
        assert_eq!(
            step(&mut scan, Runs::Scan, base, op),
            step(&mut words, Runs::PerWord, base, op),
            "{at}"
        );
        assert_eq!(scan.stats(), words.stats(), "{at}");
        assert_eq!(scan.dirty_line_info(), words.dirty_line_info(), "{at}");
        assert_eq!(
            format!("{:?}", scan.take_crash_loss()),
            format!("{:?}", words.take_crash_loss()),
            "{at}"
        );
        assert_eq!(scan.take_ecc_log(), words.take_ecc_log(), "{at}");
        assert_eq!(scan.power_failed(), words.power_failed(), "{at}");
        assert_eq!(scan.dropped_stores(), words.dropped_stores(), "{at}");
        let mut a = vec![0u8; (SPACE_LINES * LINE) as usize];
        let mut b = a.clone();
        scan.read_durable_bytes(base, &mut a);
        words.read_durable_bytes(base, &mut b);
        assert!(a == b, "durable image differs at {at}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A perfect device.
    #[test]
    fn scans_equal_per_word_reads_with_faults_off(
        geometry in 0usize..GEOMETRIES.len(),
        ops in prop::collection::vec((0u8..25, any::<u64>(), any::<u64>()), 1..160),
    ) {
        equivalent(geometry, None, &ops);
    }

    /// Each of the five fault classes on or off: a scan must hand the one
    /// sequential fault PRNG the same fills in the same order as the
    /// per-word loop, or images, counters and ECC logs drift apart.
    #[test]
    fn scans_equal_per_word_reads_under_faults(
        geometry in 0usize..GEOMETRIES.len(),
        seed in any::<u64>(),
        classes in 0u32..32,
        ops in prop::collection::vec((0u8..25, any::<u64>(), any::<u64>()), 1..160),
    ) {
        let on = |bit: u32, bp: u32| if classes & (1 << bit) != 0 { bp } else { 0 };
        let faults = FaultConfig {
            seed,
            torn_writeback_bp: on(0, 2_000),
            transient_persist_bp: on(1, 2_000),
            stuck_line_bp: on(2, 1_500),
            ecc_error_bp: on(3, 2_000),
            silent_error_bp: on(4, 1_500),
        };
        equivalent(geometry, Some(faults), &ops);
    }
}
