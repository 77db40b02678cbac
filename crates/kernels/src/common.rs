//! Shared helpers for the benchmark workloads: seeded data generation,
//! device-array transfer, and tolerant float comparison.

use nvm::{Addr, PersistMemory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG for reproducible inputs.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Generates `n` uniform floats in `[lo, hi)`.
pub fn random_f32s(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(lo..hi)).collect()
}

/// Generates `n` uniform `u32`s below `bound`.
pub fn random_u32s(seed: u64, n: usize, bound: u32) -> Vec<u32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(0..bound)).collect()
}

/// Allocates a device array of `f32` and uploads `data`.
pub fn upload_f32s(mem: &mut PersistMemory, data: &[f32]) -> Addr {
    let base = mem.alloc(4 * data.len() as u64, 8);
    for (i, &v) in data.iter().enumerate() {
        mem.write_f32(base.index(i as u64, 4), v);
    }
    base
}

/// Allocates a device array of `u32` and uploads `data`.
pub fn upload_u32s(mem: &mut PersistMemory, data: &[u32]) -> Addr {
    let base = mem.alloc(4 * data.len() as u64, 8);
    for (i, &v) in data.iter().enumerate() {
        mem.write_u32(base.index(i as u64, 4), v);
    }
    base
}

/// Allocates a zeroed device array of `n` `f32`s.
pub fn alloc_f32s(mem: &mut PersistMemory, n: u64) -> Addr {
    mem.alloc(4 * n, 8)
}

/// Allocates a zeroed device array of `n` `u32`s.
pub fn alloc_u32s(mem: &mut PersistMemory, n: u64) -> Addr {
    mem.alloc(4 * n, 8)
}

/// Reads back a device array of `f32`s.
pub fn download_f32s(mem: &mut PersistMemory, base: Addr, n: u64) -> Vec<f32> {
    let mut out = Vec::with_capacity(n as usize);
    mem.scan_u32(base, 4, n, |w| {
        out.push(f32::from_bits(w));
        true
    });
    out
}

/// Reads back a device array of `u32`s.
pub fn download_u32s(mem: &mut PersistMemory, base: Addr, n: u64) -> Vec<u32> {
    let mut out = Vec::with_capacity(n as usize);
    mem.scan_u32(base, 4, n, |w| {
        out.push(w);
        true
    });
    out
}

/// Relative/absolute tolerant comparison for kernel-vs-reference floats.
pub fn approx_eq(a: f32, b: f32, rel: f32) -> bool {
    let diff = (a - b).abs();
    diff <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Compares two float slices with [`approx_eq`], reporting the first
/// mismatch index for diagnostics.
pub fn slices_match(got: &[f32], want: &[f32], rel: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length mismatch: {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if !approx_eq(*g, *w, rel) {
            return Err(format!("mismatch at {i}: got {g}, want {w}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::NvmConfig;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_f32s(7, 16, 0.0, 1.0), random_f32s(7, 16, 0.0, 1.0));
        assert_ne!(random_f32s(7, 16, 0.0, 1.0), random_f32s(8, 16, 0.0, 1.0));
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut mem = PersistMemory::new(NvmConfig::default());
        let data = random_f32s(1, 100, -5.0, 5.0);
        let a = upload_f32s(&mut mem, &data);
        assert_eq!(download_f32s(&mut mem, a, 100), data);
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1000.0, 1000.5, 1e-3));
        assert!(!approx_eq(1.0, 1.5, 1e-3));
        assert!(approx_eq(0.0, 0.0005, 1e-3)); // absolute floor at |1.0|
    }

    #[test]
    fn slices_match_reports_index() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 9.0, 3.0];
        let err = slices_match(&a, &b, 1e-3).unwrap_err();
        assert!(err.contains("at 1"), "{err}");
    }
}
