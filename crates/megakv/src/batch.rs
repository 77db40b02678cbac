//! Batch generation: the operation streams the MEGA-KV pipeline hands to
//! the GPU.

use nvm::{Addr, PersistMemory};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Expected value for a key in the generated workload (deterministic, so
/// verification needs no host mirror).
pub fn value_of(key: u64) -> u64 {
    gpu_lp::table::splitmix64(key ^ 0x7A1_5EED)
}

/// A batch of keys uploaded to device memory, plus result space.
#[derive(Debug)]
pub struct Batch {
    /// Keys, device-resident (`u64` each).
    pub keys: Addr,
    /// Per-op result slot (search results / status), device-resident.
    pub out: Addr,
    /// Host copy of the keys, in op order.
    pub host_keys: Vec<u64>,
}

impl Batch {
    /// Uploads `keys` and allocates the result array.
    pub fn upload(mem: &mut PersistMemory, keys: Vec<u64>) -> Self {
        let base = mem.alloc(8 * keys.len() as u64, 8);
        mem.write_run_u64(base, keys.iter().copied());
        let out = mem.alloc(8 * keys.len() as u64, 8);
        Self {
            keys: base,
            out,
            host_keys: keys,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.host_keys.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.host_keys.is_empty()
    }
}

/// Generates the §VII-4 workload: `records` unique keys (1-based, so key 0
/// never appears), a shuffled search stream over them, and a delete stream
/// covering half.
pub fn generate_streams(records: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut insert: Vec<u64> = (1..=records as u64).collect();
    insert.shuffle(&mut rng);
    let mut search = insert.clone();
    search.shuffle(&mut rng);
    let mut delete: Vec<u64> = insert.iter().copied().step_by(2).collect();
    delete.shuffle(&mut rng);
    (insert, search, delete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::NvmConfig;

    #[test]
    fn streams_are_deterministic_and_disjoint_halves() {
        let (i1, s1, d1) = generate_streams(100, 7);
        let (i2, _, _) = generate_streams(100, 7);
        assert_eq!(i1, i2);
        assert_eq!(s1.len(), 100);
        assert_eq!(d1.len(), 50);
        assert!(!i1.contains(&0), "key 0 is reserved");
    }

    #[test]
    fn upload_roundtrips() {
        let mut mem = PersistMemory::new(NvmConfig::default());
        let b = Batch::upload(&mut mem, vec![5, 6, 7]);
        assert_eq!(b.len(), 3);
        assert_eq!(mem.read_u64(b.keys.index(2, 8)), 7);
    }

    #[test]
    fn values_are_key_determined() {
        assert_eq!(value_of(9), value_of(9));
        assert_ne!(value_of(9), value_of(10));
    }
}
