//! `sim_digest`: one FNV-1a hash over everything a workload simulated.
//!
//! Host time is what later changes tune; the digest is what they must not
//! move. Floats are hashed by bit pattern, so "close enough" never passes.

use serde::{Serialize, Value};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        let mut h = self.0;
        for &b in data {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// Folds a `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds any serialisable value in, bit-exactly: the value tree is
    /// walked with a type tag per node, keys included, floats by
    /// `to_bits`. Used for `LaunchStats`, `NvmStats` and whole reports.
    pub fn value<T: Serialize>(&mut self, v: &T) {
        self.tree(&v.to_value());
    }

    /// Folds an already-built value tree in.
    pub fn tree(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(b"n"),
            Value::Bool(b) => self.bytes(&[b'b', u8::from(*b)]),
            Value::U64(n) => {
                self.bytes(b"u");
                self.u64(*n);
            }
            Value::I64(n) => {
                self.bytes(b"i");
                self.u64(*n as u64);
            }
            Value::F64(x) => {
                self.bytes(b"f");
                self.u64(x.to_bits());
            }
            Value::Str(s) => {
                self.bytes(b"s");
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            Value::Array(items) => {
                self.bytes(b"a");
                self.u64(items.len() as u64);
                for item in items {
                    self.tree(item);
                }
            }
            Value::Object(pairs) => {
                self.bytes(b"o");
                self.u64(pairs.len() as u64);
                for (k, item) in pairs {
                    self.u64(k.len() as u64);
                    self.bytes(k.as_bytes());
                    self.tree(item);
                }
            }
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Removes `path` (object keys, outermost first) from a value tree; used to
/// drop `spec.threads` so a digest does not depend on the fan-out.
pub fn without(v: Value, path: &[&str]) -> Value {
    let Some((head, rest)) = path.split_first() else {
        return v;
    };
    match v {
        Value::Object(pairs) => Value::Object(
            pairs
                .into_iter()
                .filter(|(k, _)| !(rest.is_empty() && k == head))
                .map(|(k, item)| {
                    if k == *head {
                        let item = without(item, rest);
                        (k, item)
                    } else {
                        (k, item)
                    }
                })
                .collect(),
        ),
        Value::Array(items) => {
            Value::Array(items.into_iter().map(|item| without(item, path)).collect())
        }
        other => other,
    }
}

/// Renders a digest the way the golden file stores it.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn fnv1a_known_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let digest = |x: f64| {
            let mut h = Fnv::default();
            h.value(&x);
            h.finish()
        };
        assert_ne!(digest(0.0), digest(-0.0));
        assert_ne!(digest(1.0), digest(1.0 + f64::EPSILON));
        assert_eq!(digest(2.5), digest(2.5));
    }

    #[test]
    fn structure_is_part_of_the_hash() {
        let digest = |v: &Value| {
            let mut h = Fnv::default();
            h.tree(v);
            h.finish()
        };
        assert_ne!(
            digest(&json!({"a": 1u64, "b": 2u64})),
            digest(&json!({"a": 2u64, "b": 1u64}))
        );
        assert_ne!(digest(&json!(["ab", "c"])), digest(&json!(["a", "bc"])));
    }

    #[test]
    fn without_drops_only_the_named_leaf() {
        let v = json!({
            "spec": json!({"threads": 2u64, "budget": 1500u64}),
            "threads": 9u64,
        });
        let got = without(v, &["spec", "threads"]);
        assert_eq!(
            got,
            json!({"spec": json!({"budget": 1500u64}), "threads": 9u64})
        );
        // Arrays are mapped element-wise (a list of soak reports).
        let v = json!([json!({"spec": json!({"threads": 1u64})})]);
        assert_eq!(
            without(v, &["spec", "threads"]),
            json!([json!({"spec": json!({})})])
        );
    }
}
