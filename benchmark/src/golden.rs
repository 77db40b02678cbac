//! Pinned `sim_digest` values: `golden/digests.json` holds one digest per
//! workload for each of two seeds. A run at either seed must reproduce
//! them; that the two sets differ shows the inputs follow the seed. A run
//! at any other seed must repeat its own digest on every repetition.

use serde::Value;

/// `golden/digests.json`, embedded so the check needs no file access.
const GOLDEN: &str = include_str!("../golden/digests.json");

/// The seed of a run that names none; one of the pinned two.
pub const DEFAULT_SEED: u64 = 42;

/// The pinned digest of `workload` at `seed`, if that seed is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<String> {
    let golden: Value = serde_json::from_str(GOLDEN).expect("golden/digests.json is JSON");
    golden
        .get(&seed.to_string())?
        .get(workload)?
        .as_str()
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::WORKLOADS;

    #[test]
    fn every_workload_is_pinned_at_two_seeds_that_disagree() {
        for w in WORKLOADS {
            let at = |seed| {
                let d = pinned(w.name, seed)
                    .unwrap_or_else(|| panic!("{} is not pinned at seed {seed}", w.name));
                assert_eq!(d.len(), 16, "{}", w.name);
                assert!(d.bytes().all(|b| b.is_ascii_hexdigit()), "{}", w.name);
                d
            };
            assert_ne!(at(DEFAULT_SEED), at(7), "{} ignores its seed", w.name);
            assert_eq!(pinned(w.name, 8), None);
        }
        assert_eq!(pinned("no_such_workload", DEFAULT_SEED), None);
    }
}
