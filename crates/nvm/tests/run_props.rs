//! Holds the run accessors — [`PersistMemory::scan_u64`] /
//! [`PersistMemory::scan_u32`], [`PersistMemory::write_run_u32`] and
//! [`PersistMemory::read_runs`] — to the loops of typed accesses they
//! replace. Every random op sequence runs on two memories, one issuing its
//! runs through the run accessors and a deep-copied twin expanding each run
//! into per-word `read_*`/`write_*` calls. After every step the returned
//! words, [`nvm::NvmStats`], dirty lines with their writer tags, crash loss, ECC
//! log, power state and durable image must agree. The ops that follow a run
//! (and a final tail that reads every word and flushes) miss, evict and
//! flush in LRU order, so a run that stamped a line differently shows.
//!
//! Runs start anywhere, so words straddle lines; the fault classes, the
//! quarantine remap, eviction triggers that fire mid-run, power-failed
//! memories and streams sharing a line all come up in the op mix.

use nvm::{Addr, FaultConfig, FlushOutcome, NvmConfig, PersistMemory};
use proptest::prelude::*;

const LINE: u64 = 16;
/// Lines of address space the ops touch: several times the largest
/// geometry below, so sets fill, evict and overflow.
const SPACE_LINES: u64 = 24;
const SPACE: u64 = SPACE_LINES * LINE;
/// `(cache_lines, associativity)`: 2 and 3 sets, 2- to 4-way.
const GEOMETRIES: [(usize, usize); 4] = [(4, 2), (6, 2), (9, 3), (8, 4)];
const STRIDES: [u64; 3] = [4, 8, 16];

/// What one step returned to its caller.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// The words a run (or a single read) handed out, and its count.
    Words(Vec<u64>, u64),
    Count(u64),
    Flush(FlushOutcome),
    Moved(Addr),
    Nothing,
}

/// How a side issues a run.
#[derive(Clone, Copy)]
enum Runs {
    Bulk,
    PerWord,
}

/// A run of `count` `width`-byte words at `start + i * stride`; `f` stops
/// it after word `stop` (never, if `stop >= count`).
fn scan(
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
        (Runs::Bulk, 8) => mem.scan_u64(start, stride, count, &mut f),
        (Runs::Bulk, _) => mem.scan_u32(start, stride, count, |w| f(u64::from(w))),
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

/// `count` consecutive `u32` stores from `start`, values drawn from `seed`.
fn write_run(mem: &mut PersistMemory, how: Runs, start: Addr, count: u64, seed: u64) -> Outcome {
    let value = |i: u64| (seed ^ i.wrapping_mul(0x9e37_79b9)) as u32;
    match how {
        Runs::Bulk => {
            let words: Vec<u32> = (0..count).map(value).collect();
            mem.write_run_u32(start, words.iter().copied());
        }
        Runs::PerWord => {
            for i in 0..count {
                mem.write_u32(start.offset(4 * i), value(i));
            }
        }
    }
    Outcome::Nothing
}

/// `M` contiguous streams of `count` `N`-byte words read in lockstep.
fn read_runs<const M: usize, const N: usize>(
    mem: &mut PersistMemory,
    how: Runs,
    starts: [Addr; M],
    count: u64,
) -> Outcome {
    let widen = |w: [u8; N]| {
        let mut b = [0u8; 8];
        b[..N].copy_from_slice(&w);
        u64::from_le_bytes(b)
    };
    let mut seen = Vec::new();
    match how {
        Runs::Bulk => mem.read_runs::<M, N>(starts, count, |i, words| {
            assert_eq!(i, seen.len() as u64 / M as u64, "rounds out of order");
            seen.extend(words.map(widen));
        }),
        Runs::PerWord => {
            for i in 0..count {
                for s in starts {
                    let a = s.offset(i * N as u64);
                    seen.push(if N == 8 {
                        mem.read_u64(a)
                    } else {
                        u64::from(mem.read_u32(a))
                    });
                }
            }
        }
    }
    Outcome::Words(seen, count)
}

/// A start for `count` words of `width` bytes at `stride` that stays in
/// the space: `x` clamped so the last word fits.
fn fit(x: u64, stride: u64, count: u64, width: u64) -> u64 {
    let span = count.saturating_sub(1) * stride + width;
    (x % SPACE).min(SPACE - span)
}

fn step(mem: &mut PersistMemory, how: Runs, base: Addr, (kind, x, y): (u8, u64, u64)) -> Outcome {
    let addr = x % SPACE;
    match kind {
        0..=4 => {
            // 1..=12 bytes: straddles a line boundary now and then.
            let len = (1 + y % 12).min(SPACE - addr) as usize;
            let bytes: Vec<u8> = (0..len).map(|i| (y >> 8) as u8 ^ i as u8).collect();
            mem.set_writer(Some(y % 3));
            mem.write_bytes(base.offset(addr), &bytes);
            Outcome::Nothing
        }
        5 | 6 => {
            let a = base.offset(addr.min(SPACE - 8));
            Outcome::Words(vec![mem.read_u64(a)], 1)
        }
        7..=10 => {
            let stride = STRIDES[(y % 3) as usize];
            let width = if y & 4 == 0 { 8 } else { 4 };
            let count = (y >> 8) % 14;
            let start = fit(x, stride, count, width);
            let stop = (y >> 16) % 16;
            scan(mem, how, (base.offset(start), stride, count, width, stop))
        }
        11..=14 => {
            // Up to seven lines of stores, so an armed eviction trigger
            // can fire part-way through.
            let count = (y >> 8) % 28;
            mem.set_writer(Some(y % 3));
            write_run(mem, how, base.offset(fit(x, 4, count, 4)), count, y)
        }
        15 | 16 => {
            // The second stream starts within a line or two of the first
            // half the time, so the streams share lines.
            let count = (y >> 8) % 10;
            let a = fit(x, 4, count, 4);
            let b = if y & 1 == 0 {
                a + (y >> 20) % 24
            } else {
                y >> 24
            };
            let b = fit(b, 4, count, 4);
            read_runs::<2, 4>(mem, how, [base.offset(a), base.offset(b)], count)
        }
        17 => {
            let count = (y >> 8) % 8;
            let a = fit(x, 8, count, 8);
            read_runs::<1, 8>(mem, how, [base.offset(a)], count)
        }
        18 => Outcome::Count(mem.flush_all()),
        19 => Outcome::Flush(mem.flush_line(base.offset(addr))),
        20 => {
            mem.crash();
            Outcome::Nothing
        }
        21 => Outcome::Moved(mem.quarantine_line(base.raw() + addr)),
        22 | 23 => {
            mem.arm_crash_after_evictions(y % 4);
            Outcome::Nothing
        }
        24 => {
            mem.arm_crash_during_flush(y % 4);
            Outcome::Nothing
        }
        25 => {
            mem.power_on();
            Outcome::Nothing
        }
        26 => {
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

fn assert_same(bulk: &mut PersistMemory, words: &mut PersistMemory, base: Addr, at: &str) {
    assert_eq!(bulk.stats(), words.stats(), "{at}");
    assert_eq!(bulk.dirty_line_info(), words.dirty_line_info(), "{at}");
    assert_eq!(
        format!("{:?}", bulk.take_crash_loss()),
        format!("{:?}", words.take_crash_loss()),
        "{at}"
    );
    assert_eq!(bulk.take_ecc_log(), words.take_ecc_log(), "{at}");
    assert_eq!(bulk.power_failed(), words.power_failed(), "{at}");
    assert_eq!(bulk.dropped_stores(), words.dropped_stores(), "{at}");
    let mut a = vec![0u8; SPACE as usize];
    let mut b = a.clone();
    bulk.read_durable_bytes(base, &mut a);
    words.read_durable_bytes(base, &mut b);
    assert!(a == b, "durable image differs at {at}");
}

fn equivalent(geometry: usize, faults: Option<FaultConfig>, ops: &[(u8, u64, u64)]) {
    let (cache_lines, associativity) = GEOMETRIES[geometry];
    let mut bulk = PersistMemory::new(NvmConfig {
        line_size: LINE as usize,
        cache_lines,
        associativity,
    });
    bulk.set_fault_config(faults);
    let base = bulk.alloc(SPACE, LINE);
    let mut words = bulk.clone();
    for (i, &op) in ops.iter().enumerate() {
        let at = format!("step {i} {op:?} on {cache_lines}x{associativity}");
        assert_eq!(
            step(&mut bulk, Runs::Bulk, base, op),
            step(&mut words, Runs::PerWord, base, op),
            "{at}"
        );
        assert_same(&mut bulk, &mut words, base, &at);
    }
    // The tail: every word once, in an order that sweeps each set, then a
    // flush. Which lines miss, and which victims go, read the LRU stamps.
    for side in [&mut bulk, &mut words] {
        side.power_on();
        for i in 0..SPACE / 8 {
            side.read_u64(base.offset((i * 5 % (SPACE / 8)) * 8));
        }
        side.write_u64(base, 1);
        side.flush_all();
    }
    assert_same(&mut bulk, &mut words, base, "tail");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A perfect device.
    #[test]
    fn runs_equal_per_word_accesses_with_faults_off(
        geometry in 0usize..GEOMETRIES.len(),
        ops in prop::collection::vec((0u8..28, any::<u64>(), any::<u64>()), 1..160),
    ) {
        equivalent(geometry, None, &ops);
    }

    /// Each of the five fault classes on or off: a run must hand the one
    /// sequential fault PRNG the same fills and write-backs in the same
    /// order as the per-word loop, or images, counters and ECC logs drift
    /// apart.
    #[test]
    fn runs_equal_per_word_accesses_under_faults(
        geometry in 0usize..GEOMETRIES.len(),
        seed in any::<u64>(),
        classes in 0u32..32,
        ops in prop::collection::vec((0u8..28, any::<u64>(), any::<u64>()), 1..160),
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

/// An eviction trigger armed to fire on the first eviction of a long write
/// run: the run's remaining stores are dropped and counted one by one.
#[test]
fn a_trigger_mid_write_run_drops_the_rest_store_by_store() {
    let mut bulk = PersistMemory::new(NvmConfig {
        line_size: LINE as usize,
        cache_lines: 4,
        associativity: 2,
    });
    let base = bulk.alloc(SPACE, LINE);
    bulk.set_writer(Some(1));
    let mut words = bulk.clone();
    for side in [&mut bulk, &mut words] {
        side.arm_crash_after_evictions(1);
    }
    write_run(&mut bulk, Runs::Bulk, base, SPACE / 4, 7);
    write_run(&mut words, Runs::PerWord, base, SPACE / 4, 7);
    assert!(bulk.power_failed());
    assert!(bulk.dropped_stores() > 0);
    assert_same(&mut bulk, &mut words, base, "mid-run trigger");
}

/// Two streams in a one-set, two-way cache: stream 0's deferred hits on
/// its line must be stamped before stream 1's miss picks a victim, or the
/// miss evicts stream 0's line — the most recently used — instead of
/// stream 1's old one.
#[test]
fn a_miss_mid_run_sees_the_deferred_hits() {
    let mut bulk = PersistMemory::new(NvmConfig {
        line_size: LINE as usize,
        cache_lines: 2,
        associativity: 2,
    });
    let base = bulk.alloc(SPACE, LINE);
    // Both lines resident first, so the run's first accesses hit and
    // leave both lines open.
    bulk.read_u32(base);
    bulk.read_u32(base.offset(LINE));
    let mut words = bulk.clone();
    // Stream 0 reads line 0 throughout; stream 1 starts two words before
    // the end of line 1, so its third word misses on line 2.
    let starts = [base, base.offset(LINE + 8)];
    assert_eq!(
        read_runs::<2, 4>(&mut bulk, Runs::Bulk, starts, 4),
        read_runs::<2, 4>(&mut words, Runs::PerWord, starts, 4)
    );
    for side in [&mut bulk, &mut words] {
        side.read_u32(base);
    }
    assert_eq!(bulk.stats().cache_misses, 3, "line 0 stayed resident");
    assert_same(&mut bulk, &mut words, base, "deferred hits");
}
