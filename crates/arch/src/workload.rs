//! Kernel workload profiles: the operation and memory-traffic footprint of
//! one kernel invocation, the input to every platform cost model.

use m7_units::{Bytes, Ops, OpsPerByte};

/// The family a kernel belongs to, used by specialization matching
/// (experiment E4): a widget accelerator only speeds up its own family,
/// while cross-cutting accelerators target the primitive families shared
/// across tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelFamily {
    /// Dense matrix-vector / matrix-matrix arithmetic.
    DenseLinearAlgebra,
    /// Batched geometric distance and overlap tests.
    CollisionGeometry,
    /// Stencil / image-plane operations.
    Stencil,
    /// Grid correlation search (dense scan matching).
    GridCorrelation,
    /// Sequential recurrences (rigid-body chains, filters).
    Recurrence,
    /// Everything else.
    Other,
}

impl core::fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::DenseLinearAlgebra => "dense-linear-algebra",
            Self::CollisionGeometry => "collision-geometry",
            Self::Stencil => "stencil",
            Self::GridCorrelation => "grid-correlation",
            Self::Recurrence => "recurrence",
            Self::Other => "other",
        };
        f.write_str(s)
    }
}

/// The compute and memory footprint of one kernel invocation.
///
/// # Examples
///
/// ```
/// use m7_arch::workload::KernelProfile;
///
/// let gemv = KernelProfile::gemv(256, 256);
/// assert!(gemv.arithmetic_intensity().value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    name: String,
    family: KernelFamily,
    ops: Ops,
    bytes: Bytes,
    /// Fraction of the work that parallelizes (Amdahl).
    parallel_fraction: f64,
}

impl KernelProfile {
    /// Creates a profile from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `ops` or `bytes` is negative/non-finite, or
    /// `parallel_fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        family: KernelFamily,
        ops: Ops,
        bytes: Bytes,
        parallel_fraction: f64,
    ) -> Self {
        assert!(ops.value() >= 0.0 && ops.is_finite(), "ops must be a finite non-negative count");
        assert!(bytes.value() >= 0.0 && bytes.is_finite(), "bytes must be finite and non-negative");
        assert!(
            (0.0..=1.0).contains(&parallel_fraction),
            "parallel_fraction must be within [0, 1]"
        );
        Self { name: name.into(), family, ops, bytes, parallel_fraction }
    }

    /// Dense matrix-vector product `y = A x` with an `rows × cols` matrix.
    #[must_use]
    pub fn gemv(rows: usize, cols: usize) -> Self {
        let ops = 2.0 * rows as f64 * cols as f64;
        // Matrix + vectors, 8-byte elements, streamed once.
        let bytes = 8.0 * (rows as f64 * cols as f64 + rows as f64 + cols as f64);
        Self::new(
            format!("gemv-{rows}x{cols}"),
            KernelFamily::DenseLinearAlgebra,
            Ops::new(ops),
            Bytes::new(bytes),
            0.97,
        )
    }

    /// Dense matrix-matrix product with `n × n` operands.
    #[must_use]
    pub fn gemm(n: usize) -> Self {
        let nf = n as f64;
        Self::new(
            format!("gemm-{n}"),
            KernelFamily::DenseLinearAlgebra,
            Ops::new(2.0 * nf * nf * nf),
            Bytes::new(8.0 * 3.0 * nf * nf),
            0.99,
        )
    }

    /// A batch of `edges` segment-collision tests against `obstacles`
    /// primitives (~12 flops per pair).
    #[must_use]
    pub fn collision_batch(edges: usize, obstacles: usize) -> Self {
        let pairs = edges as f64 * obstacles as f64;
        Self::new(
            format!("collision-{edges}x{obstacles}"),
            KernelFamily::CollisionGeometry,
            Ops::new(12.0 * pairs),
            // Edge endpoints streamed once, obstacle SoA reused from cache.
            Bytes::new(32.0 * edges as f64 + 24.0 * obstacles as f64),
            0.98,
        )
    }

    /// Brute-force BRIEF descriptor matching: `queries × candidates`
    /// 256-bit Hamming distances (~12 integer ops per pair: 4 XOR,
    /// 4 popcount, 3 adds, 1 compare).
    #[must_use]
    pub fn descriptor_match(queries: usize, candidates: usize) -> Self {
        let pairs = queries as f64 * candidates as f64;
        Self::new(
            format!("brief-match-{queries}x{candidates}"),
            KernelFamily::Other,
            Ops::new(12.0 * pairs),
            // 32-byte descriptors: queries streamed once, candidate set
            // re-read per query from cache.
            Bytes::new(32.0 * (queries as f64 + candidates as f64)),
            0.98,
        )
    }

    /// One EKF-SLAM correction with an `n`-dimensional state.
    #[must_use]
    pub fn ekf_update(state_dim: usize) -> Self {
        let n = state_dim as f64;
        Self::new(
            format!("ekf-update-{state_dim}"),
            KernelFamily::DenseLinearAlgebra,
            Ops::new(8.0 * n * n),
            Bytes::new(8.0 * 3.0 * n * n),
            0.85,
        )
    }

    /// One dense correlation scan match: `hypotheses` poses × `beams` beams.
    #[must_use]
    pub fn correlation_scan(hypotheses: usize, beams: usize) -> Self {
        let evals = hypotheses as f64 * beams as f64;
        Self::new(
            format!("correlation-{hypotheses}x{beams}"),
            KernelFamily::GridCorrelation,
            Ops::new(10.0 * evals),
            // Grid cells are gather-accessed; assume one 8-byte read per eval.
            Bytes::new(8.0 * evals),
            0.99,
        )
    }

    /// One recursive Newton-Euler inverse-dynamics pass over `dof` joints.
    #[must_use]
    pub fn rnea(dof: usize) -> Self {
        let n = dof as f64;
        Self::new(
            format!("rnea-{dof}"),
            KernelFamily::Recurrence,
            Ops::new(60.0 * n),
            Bytes::new(8.0 * 10.0 * n),
            // The chain recurrence is inherently sequential.
            0.2,
        )
    }

    /// Feature detection over a `width × height` image (~40 flops/pixel).
    #[must_use]
    pub fn feature_extract(width: usize, height: usize) -> Self {
        let pixels = width as f64 * height as f64;
        Self::new(
            format!("features-{width}x{height}"),
            KernelFamily::Stencil,
            Ops::new(40.0 * pixels),
            Bytes::new(pixels + 16.0 * pixels), // u8 in, gradients out
            0.99,
        )
    }

    /// DNN inference with the given multiply-accumulate count and weight
    /// traffic.
    #[must_use]
    pub fn dnn_inference(macs: f64, weight_bytes: f64) -> Self {
        Self::new(
            "dnn-inference",
            KernelFamily::DenseLinearAlgebra,
            Ops::new(2.0 * macs),
            Bytes::new(weight_bytes),
            0.98,
        )
    }

    /// Kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Kernel family for specialization matching.
    #[must_use]
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Operation count.
    #[must_use]
    pub fn ops(&self) -> Ops {
        self.ops
    }

    /// Memory traffic.
    #[must_use]
    pub fn bytes(&self) -> Bytes {
        self.bytes
    }

    /// Parallelizable fraction of the work.
    #[must_use]
    pub(crate) fn parallel_fraction(&self) -> f64 {
        self.parallel_fraction
    }

    /// Arithmetic intensity (ops per byte of traffic).
    ///
    /// Returns infinity for zero-traffic kernels.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> OpsPerByte {
        self.ops / self.bytes
    }

    /// Returns a copy scaled to `factor` times the work (ops and bytes).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            name: self.name.clone(),
            family: self.family,
            ops: self.ops * factor,
            bytes: self.bytes * factor,
            parallel_fraction: self.parallel_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_counts() {
        let p = KernelProfile::gemv(100, 200);
        assert_eq!(p.ops(), Ops::new(40_000.0));
        assert_eq!(p.family(), KernelFamily::DenseLinearAlgebra);
        assert!(p.arithmetic_intensity().value() < 1.0, "GEMV is memory-bound");
    }

    #[test]
    fn gemm_is_compute_bound() {
        let p = KernelProfile::gemm(512);
        assert!(p.arithmetic_intensity().value() > 10.0, "large GEMM is compute-bound");
    }

    #[test]
    fn rnea_is_mostly_serial() {
        let p = KernelProfile::rnea(7);
        assert!(p.parallel_fraction() < 0.5);
    }

    #[test]
    fn scaled_multiplies_work() {
        let p = KernelProfile::gemv(64, 64);
        let s = p.scaled(3.0);
        assert_eq!(s.ops().value(), p.ops().value() * 3.0);
        assert_eq!(s.bytes().value(), p.bytes().value() * 3.0);
        assert_eq!(s.parallel_fraction(), p.parallel_fraction());
    }

    #[test]
    #[should_panic(expected = "parallel_fraction")]
    fn rejects_bad_parallel_fraction() {
        let _ = KernelProfile::new("bad", KernelFamily::Other, Ops::new(1.0), Bytes::new(1.0), 1.5);
    }

    #[test]
    fn family_display() {
        assert_eq!(KernelFamily::CollisionGeometry.to_string(), "collision-geometry");
        assert_eq!(KernelFamily::GridCorrelation.to_string(), "grid-correlation");
    }
}
