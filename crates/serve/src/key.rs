//! Deterministic content-addressed keys for evaluation requests.
//!
//! A [`CacheKey`] is a 64-bit FNV-1a hash over a *canonicalized* request:
//! every field is written in a fixed order, floats are hashed via
//! [`f64::to_bits`] (so the key is bit-exact, never rounded), and strings
//! are length-prefixed so `("ab", "c")` and `("a", "bc")` cannot collide.
//! Two requests hash equal exactly when their canonical field sequences
//! are byte-identical — the key is a pure function of the request, never
//! of thread count, insertion order, or wall clock.

/// A content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

impl core::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a (64-bit) hasher with typed, canonical writes.
///
/// # Examples
///
/// ```
/// use m7_serve::KeyHasher;
///
/// let mut a = KeyHasher::new();
/// a.write_f64(1.5);
/// a.write_u64(7);
/// let mut b = KeyHasher::new();
/// b.write_f64(1.5);
/// b.write_u64(7);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: Self::OFFSET }
    }

    /// Hashes raw bytes.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Hashes a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hashes an `f64` via its exact bit pattern ([`f64::to_bits`]).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Hashes a string, length-prefixed so field boundaries are
    /// unambiguous.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Hashes a slice of floats, length-prefixed, each via `to_bits`.
    pub fn write_f64_slice(&mut self, values: &[f64]) {
        self.write_u64(values.len() as u64);
        for &v in values {
            self.write_f64(v);
        }
    }

    /// Finalizes the key.
    #[must_use]
    pub fn finish(self) -> CacheKey {
        CacheKey(self.state)
    }
}

/// Derives a namespace tag for a family of requests (e.g. one objective
/// function at one root seed), so distinct evaluators never share keys.
#[must_use]
pub fn namespace(tag: &str, seed: u64) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str(tag);
    h.write_u64(seed);
    h.finish().0
}

/// One evaluation request: a workload tag, the design's concrete level
/// values, and the simulation seed.
///
/// The canonical field order is `workload`, `seed`, `values` — fixed
/// forever, because the hash of this sequence *is* the cache address.
///
/// # Examples
///
/// ```
/// use m7_serve::EvalRequest;
///
/// let a = EvalRequest::new("mission", vec![1.0, 20.0], 42);
/// let b = EvalRequest::new("mission", vec![1.0, 20.0], 42);
/// assert_eq!(a.cache_key(0), b.cache_key(0));
/// // Any single-field change moves the key.
/// let c = EvalRequest::new("mission", vec![1.0, 20.0], 43);
/// assert_ne!(a.cache_key(0), c.cache_key(0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Which evaluator the request addresses (e.g. `mission`).
    pub workload: String,
    /// Concrete design values, in dimension order.
    pub values: Vec<f64>,
    /// Simulation seed.
    pub seed: u64,
}

impl EvalRequest {
    /// Creates a request.
    #[must_use]
    pub fn new(workload: impl Into<String>, values: Vec<f64>, seed: u64) -> Self {
        Self { workload: workload.into(), values, seed }
    }

    /// The content-addressed key of this request under `namespace`.
    #[must_use]
    pub fn cache_key(&self, namespace: u64) -> CacheKey {
        let mut h = KeyHasher::new();
        h.write_u64(namespace);
        h.write_str(&self.workload);
        h.write_u64(self.seed);
        h.write_f64_slice(&self.values);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_requests_hash_equal() {
        let a = EvalRequest::new("mission", vec![0.0, -1.5, 3.25], 7);
        let b = EvalRequest::new("mission", vec![0.0, -1.5, 3.25], 7);
        assert_eq!(a.cache_key(99), b.cache_key(99));
    }

    #[test]
    fn each_field_perturbation_changes_the_key() {
        let base = EvalRequest::new("mission", vec![1.0, 2.0], 7);
        let k = base.cache_key(0);
        assert_ne!(k, EvalRequest::new("missioN", vec![1.0, 2.0], 7).cache_key(0));
        assert_ne!(k, EvalRequest::new("mission", vec![1.0, 2.5], 7).cache_key(0));
        assert_ne!(k, EvalRequest::new("mission", vec![1.0, 2.0], 8).cache_key(0));
        assert_ne!(k, base.cache_key(1));
    }

    #[test]
    fn float_keys_are_bit_exact() {
        // -0.0 == 0.0 numerically but their bit patterns differ; the key
        // is content-addressed on bits, so they are distinct requests.
        let pos = EvalRequest::new("w", vec![0.0], 0).cache_key(0);
        let neg = EvalRequest::new("w", vec![-0.0], 0).cache_key(0);
        assert_ne!(pos, neg);
    }

    #[test]
    fn length_prefix_blocks_field_smearing() {
        let mut a = KeyHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = KeyHasher::new();
        c.write_f64_slice(&[1.0]);
        c.write_f64_slice(&[]);
        let mut d = KeyHasher::new();
        d.write_f64_slice(&[]);
        d.write_f64_slice(&[1.0]);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn namespace_separates_evaluators() {
        assert_ne!(namespace("e9-mission", 42), namespace("e9-mission", 43));
        assert_ne!(namespace("e9-mission", 42), namespace("rover", 42));
    }

    #[test]
    fn display_is_stable_hex() {
        assert_eq!(CacheKey(0xdead_beef).to_string(), "00000000deadbeef");
    }
}
