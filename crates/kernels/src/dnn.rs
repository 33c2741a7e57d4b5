//! A small multilayer perceptron with SGD training and precision-swept
//! (quantized) inference.
//!
//! This is the perception-model workload behind experiment E3 ("Metrics
//! Matter"): quantizing weights raises modeled throughput on an accelerator
//! but *measurably* lowers task accuracy here — so a throughput-only metric
//! and a time-to-accuracy metric rank designs differently.

use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::linalg::LinalgError;

/// Numeric precision of the weights during inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// Full 32-bit floating point (reference).
    F32,
    /// 16-bit symmetric integer quantization.
    Int16,
    /// 8-bit symmetric integer quantization.
    Int8,
    /// 4-bit symmetric integer quantization.
    Int4,
    /// 2-bit symmetric integer quantization.
    Int2,
}

impl Precision {
    /// All precisions, highest to lowest.
    pub const ALL: [Self; 5] = [Self::F32, Self::Int16, Self::Int8, Self::Int4, Self::Int2];

    /// Bits per weight at this precision.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Self::F32 => 32,
            Self::Int16 => 16,
            Self::Int8 => 8,
            Self::Int4 => 4,
            Self::Int2 => 2,
        }
    }

    /// Largest representable quantized magnitude (`2^(bits-1) − 1`), or
    /// `None` for floating point.
    #[must_use]
    pub fn max_level(self) -> Option<f64> {
        match self {
            Self::F32 => None,
            _ => Some(f64::from((1u32 << (self.bits() - 1)) - 1)),
        }
    }
}

impl core::fmt::Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::F32 => write!(f, "f32"),
            other => write!(f, "int{}", other.bits()),
        }
    }
}

/// One dense layer: row-major weights `[out × in]` plus biases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    inputs: usize,
    outputs: usize,
    weights: Vec<f64>,
    biases: Vec<f64>,
}

impl Layer {
    fn random(inputs: usize, outputs: usize, rng: &mut impl Rng) -> Self {
        // He initialization.
        let scale = (2.0 / inputs as f64).sqrt();
        let weights = (0..inputs * outputs).map(|_| rng.gen_range(-scale..scale)).collect();
        let biases = vec![0.0; outputs];
        Self { inputs, outputs, weights, biases }
    }

    fn forward(&self, input: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut acc = self.biases[o];
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            out.push(acc);
        }
    }

    /// Returns a copy with weights fake-quantized at `precision`.
    fn quantized(&self, precision: Precision) -> Self {
        let Some((scale, levels)) = self.quant_params(precision) else {
            return self.clone();
        };
        let weights = self
            .weights
            .iter()
            .map(|w| (w / scale).round().clamp(-levels, levels) * scale)
            .collect();
        Self { weights, ..self.clone() }
    }

    /// Symmetric quantization grid for this layer at `precision`:
    /// `(scale, levels)`, or `None` when the weights pass through
    /// unquantized (floating point, or an all-zero layer).
    fn quant_params(&self, precision: Precision) -> Option<(f64, f64)> {
        let levels = precision.max_level()?;
        let max_abs = self.weights.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        if max_abs == 0.0 {
            return None;
        }
        Some((max_abs / levels, levels))
    }

    /// Packs the weights transposed (`wt[j * outputs + o] = w[o][j]`,
    /// SoA over the input index) into `wt`, quantizing on the fly —
    /// no intermediate quantized `Layer` clone. The fake-quantization
    /// expression is the same as [`Layer::quantized`], so the packed
    /// values are bit-identical to that path.
    fn pack_transposed(&self, precision: Precision, wt: &mut Vec<f64>) {
        wt.clear();
        wt.resize(self.weights.len(), 0.0);
        match self.quant_params(precision) {
            None => {
                for o in 0..self.outputs {
                    for j in 0..self.inputs {
                        wt[j * self.outputs + o] = self.weights[o * self.inputs + j];
                    }
                }
            }
            Some((scale, levels)) => {
                for o in 0..self.outputs {
                    for j in 0..self.inputs {
                        let w = self.weights[o * self.inputs + j];
                        wt[j * self.outputs + o] =
                            (w / scale).round().clamp(-levels, levels) * scale;
                    }
                }
            }
        }
    }

    /// Forward pass over transposed weights: initialize with the biases,
    /// then accumulate one SAXPY per input element — the inner loop walks
    /// a contiguous `wt` row across *all* outputs, a unit-stride mul-add
    /// chain the autovectorizer turns into packed FMAs.
    ///
    /// Each output still sums its terms in ascending-`j` order, exactly
    /// like the row-major dot product in [`Layer::forward`], so the
    /// result is bit-identical.
    fn forward_transposed(&self, input: &[f64], wt: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.biases);
        for (j, &x) in input.iter().enumerate() {
            let row = &wt[j * self.outputs..(j + 1) * self.outputs];
            for (acc, &w) in out.iter_mut().zip(row) {
                *acc += w * x;
            }
        }
    }
}

/// Reusable forward-pass workspace: ping-pong activation buffers plus the
/// transposed (possibly fake-quantized) weight buffer of the layer being
/// evaluated. One scratch amortizes all per-inference allocation across a
/// whole dataset — the hot path allocates nothing after warm-up.
#[derive(Debug, Default, Clone)]
pub struct MlpScratch {
    wt: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
}

/// Training workspace: every layer's output activations and the two
/// gradient buffers, reused for every example of a training call.
#[derive(Debug, Default)]
struct TrainScratch {
    acts: Vec<Vec<f64>>,
    grad: Vec<f64>,
    grad_prev: Vec<f64>,
}

/// The index of the largest logit (the last one on ties).
fn argmax(logits: &[f64]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("logits are finite"))
        .map(|(i, _)| i)
        .expect("at least one class")
}

/// A ReLU multilayer perceptron classifier.
///
/// # Examples
///
/// ```
/// use m7_kernels::dnn::{Dataset, Mlp, Precision};
///
/// let data = Dataset::blobs(200, 3, 2, 42);
/// let mut mlp = Mlp::new(&[2, 16, 3], 7);
/// mlp.train(&data, 40, 0.05)?;
/// let acc = mlp.accuracy(&data, Precision::F32)?;
/// assert!(acc > 0.8, "blobs are separable, got {acc}");
/// # Ok::<(), m7_kernels::linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Creates a randomly initialized network with the given layer widths
    /// (`[inputs, hidden…, classes]`), deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    #[must_use]
    pub fn new(layer_sizes: &[usize], seed: u64) -> Self {
        assert!(layer_sizes.len() >= 2, "need at least input and output widths");
        assert!(layer_sizes.iter().all(|&s| s > 0), "layer widths must be nonzero");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let layers = layer_sizes.windows(2).map(|w| Layer::random(w[0], w[1], &mut rng)).collect();
        Self { layers }
    }

    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs
    }

    /// Number of output classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.layers.last().expect("at least one layer").outputs
    }

    /// Total weight count (excluding biases).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len()).sum()
    }

    /// Multiply-accumulate operations per forward pass.
    #[must_use]
    pub fn macs_per_inference(&self) -> f64 {
        self.layers.iter().map(|l| (l.inputs * l.outputs) as f64).sum()
    }

    /// Weight bytes read per forward pass at `precision`.
    #[must_use]
    pub fn weight_bytes(&self, precision: Precision) -> f64 {
        self.weight_count() as f64 * f64::from(precision.bits()) / 8.0
    }

    /// Class logits for one input at the given weight precision.
    ///
    /// Convenience wrapper over [`Mlp::forward_into`] with a throwaway
    /// scratch; use the `_into` variant (or [`Mlp::forward_batch_into`])
    /// on hot paths to amortize the buffers.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    #[must_use]
    pub fn forward(&self, input: &[f64], precision: Precision) -> Vec<f64> {
        let mut scratch = MlpScratch::default();
        self.forward_into(input, precision, &mut scratch).to_vec()
    }

    /// Class logits for one input, written into `scratch` — no per-layer
    /// allocation: activations ping-pong between two reused buffers and
    /// quantization happens while packing the transposed weight buffer,
    /// never by cloning a layer.
    ///
    /// Bit-identical to [`Mlp::forward_reference`] (the SAXPY layer walk
    /// preserves each output's summation order, and the on-the-fly
    /// quantization applies the same grid expression).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward_into<'s>(
        &self,
        input: &[f64],
        precision: Precision,
        scratch: &'s mut MlpScratch,
    ) -> &'s [f64] {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let MlpScratch { wt, a, b } = scratch;
        a.clear();
        a.extend_from_slice(input);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            layer.pack_transposed(precision, wt);
            layer.forward_transposed(a, wt, b);
            if i != last {
                for v in b.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
            core::mem::swap(a, b);
        }
        a
    }

    /// Batched class logits: `inputs` holds `batch` examples row-major
    /// (`batch × input_dim`), the result is `batch × classes` row-major.
    ///
    /// Each layer's transposed weight buffer is packed **once** for the
    /// whole batch, so per-example cost is pure mul-add over contiguous
    /// rows. Row `s` of the output is bit-identical to
    /// `forward(&inputs[s * dim..][..dim], precision)`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a multiple of the input dimension.
    pub fn forward_batch_into<'s>(
        &self,
        inputs: &[f64],
        precision: Precision,
        scratch: &'s mut MlpScratch,
    ) -> &'s [f64] {
        let dim = self.input_dim();
        assert_eq!(inputs.len() % dim, 0, "input batch must be a multiple of the input dimension");
        let batch = inputs.len() / dim;
        let MlpScratch { wt, a, b } = scratch;
        a.clear();
        a.extend_from_slice(inputs);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            layer.pack_transposed(precision, wt);
            b.clear();
            for s in 0..batch {
                let x = &a[s * layer.inputs..(s + 1) * layer.inputs];
                let start = b.len();
                b.extend_from_slice(&layer.biases);
                let out = &mut b[start..];
                for (j, &xv) in x.iter().enumerate() {
                    let row = &wt[j * layer.outputs..(j + 1) * layer.outputs];
                    for (acc, &w) in out.iter_mut().zip(row) {
                        *acc += w * xv;
                    }
                }
            }
            if i != last {
                for v in b.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
            core::mem::swap(a, b);
        }
        a
    }

    /// Scalar-reference forward pass: per-layer quantized clone and
    /// row-major dot products, the original formulation. Kept public as
    /// the property-tested reference for [`Mlp::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    #[must_use]
    pub fn forward_reference(&self, input: &[f64], precision: Precision) -> Vec<f64> {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let mut current = input.to_vec();
        let mut next = Vec::new();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let layer = if precision == Precision::F32 {
                layer.clone()
            } else {
                layer.quantized(precision)
            };
            layer.forward(&current, &mut next);
            if i != last {
                for v in &mut next {
                    *v = v.max(0.0); // ReLU
                }
            }
            core::mem::swap(&mut current, &mut next);
        }
        current
    }

    /// The argmax class for one input.
    #[must_use]
    pub fn predict(&self, input: &[f64], precision: Precision) -> usize {
        let mut scratch = MlpScratch::default();
        self.predict_with(input, precision, &mut scratch)
    }

    /// [`Mlp::predict`] with a caller-provided scratch, for allocation-free
    /// sweeps over many examples.
    pub fn predict_with(
        &self,
        input: &[f64],
        precision: Precision,
        scratch: &mut MlpScratch,
    ) -> usize {
        argmax(self.forward_into(input, precision, scratch))
    }

    /// Fraction of `data` classified correctly at `precision`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] with the network's
    /// `(input width, classes)` as `expected` and the dataset's as `found`
    /// if the examples do not have the input width or a label is not
    /// below the class count.
    pub fn accuracy(&self, data: &Dataset, precision: Precision) -> Result<f64, LinalgError> {
        self.check_shape(data)?;
        Ok(self.correct_fraction(data, precision, &mut MlpScratch::default()))
    }

    /// Trains with plain SGD on softmax cross-entropy for `epochs` passes.
    ///
    /// # Errors
    ///
    /// As [`Mlp::accuracy`]; the network is left untouched.
    pub fn train(
        &mut self,
        data: &Dataset,
        epochs: usize,
        learning_rate: f64,
    ) -> Result<(), LinalgError> {
        self.train_quantized(data, epochs, learning_rate, Precision::F32)
    }

    /// Quantization-aware training: after every epoch the weights are
    /// snapped to the `precision` grid, so optimization must live with the
    /// representable set. At very low precisions training stalls — the
    /// mechanism behind the time-to-accuracy inversion of experiment E3.
    ///
    /// # Errors
    ///
    /// As [`Mlp::accuracy`]; the network is left untouched.
    pub fn train_quantized(
        &mut self,
        data: &Dataset,
        epochs: usize,
        learning_rate: f64,
        precision: Precision,
    ) -> Result<(), LinalgError> {
        self.check_shape(data)?;
        let mut scratch = TrainScratch::default();
        for _ in 0..epochs {
            self.epoch(data, learning_rate, precision, &mut scratch);
        }
        Ok(())
    }

    /// Trains epoch by epoch (quantization-aware at `precision`) until the
    /// model reaches `target_accuracy` on `data`, up to `max_epochs`.
    ///
    /// Returns the number of epochs needed, or `None` if the target was
    /// never reached — low precisions plateau below the target.
    ///
    /// # Errors
    ///
    /// As [`Mlp::accuracy`]; the network is left untouched.
    pub fn epochs_to_accuracy(
        &mut self,
        data: &Dataset,
        target_accuracy: f64,
        learning_rate: f64,
        precision: Precision,
        max_epochs: usize,
    ) -> Result<Option<usize>, LinalgError> {
        self.check_shape(data)?;
        let mut train = TrainScratch::default();
        let mut infer = MlpScratch::default();
        for epoch in 1..=max_epochs {
            self.epoch(data, learning_rate, precision, &mut train);
            if self.correct_fraction(data, precision, &mut infer) >= target_accuracy {
                return Ok(Some(epoch));
            }
        }
        Ok(None)
    }

    /// `Ok` if `data`'s examples have this network's input width and its
    /// labels are below its class count.
    fn check_shape(&self, data: &Dataset) -> Result<(), LinalgError> {
        let expected = (self.input_dim(), self.classes());
        if data.dim == expected.0 && data.classes <= expected.1 {
            Ok(())
        } else {
            Err(LinalgError::DimensionMismatch { expected, found: (data.dim, data.classes) })
        }
    }

    /// [`Mlp::accuracy`] of a dataset of the right shape: one batched
    /// forward pass, so every layer is packed once.
    fn correct_fraction(
        &self,
        data: &Dataset,
        precision: Precision,
        scratch: &mut MlpScratch,
    ) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let logits = self.forward_batch_into(&data.features, precision, scratch);
        let correct = logits
            .chunks_exact(self.classes())
            .zip(&data.labels)
            .filter(|&(row, &y)| argmax(row) == y)
            .count();
        correct as f64 / data.len() as f64
    }

    /// One SGD pass over `data`, then the snap to the `precision` grid.
    fn epoch(&mut self, data: &Dataset, lr: f64, precision: Precision, scratch: &mut TrainScratch) {
        for (x, &y) in data.iter() {
            self.sgd_step(x, y, lr, scratch);
        }
        if precision != Precision::F32 {
            for layer in &mut self.layers {
                *layer = layer.quantized(precision);
            }
        }
    }

    fn sgd_step(&mut self, input: &[f64], label: usize, lr: f64, scratch: &mut TrainScratch) {
        let TrainScratch { acts, grad, grad_prev } = scratch;
        // Forward pass, keeping activations: `acts[i]` is layer `i`'s output.
        acts.resize_with(self.layers.len(), Vec::new);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(i);
            let out = &mut rest[0];
            layer.forward(done.last().map_or(input, Vec::as_slice), out);
            if i != last {
                for v in out.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        // Softmax + cross-entropy gradient at the output.
        let logits = &acts[last];
        let max = logits.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        grad.clear();
        grad.extend(logits.iter().map(|v| (v - max).exp()));
        let sum: f64 = grad.iter().sum();
        for g in grad.iter_mut() {
            *g /= sum;
        }
        grad[label] -= 1.0;

        // Backward pass.
        for i in (0..self.layers.len()).rev() {
            let input_act = if i == 0 { input } else { &acts[i - 1] };
            let layer = &mut self.layers[i];
            grad_prev.clear();
            grad_prev.resize(layer.inputs, 0.0);
            for (o, &g) in grad.iter().enumerate() {
                let row = &mut layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                for ((gp, w), &x) in grad_prev.iter_mut().zip(row).zip(input_act) {
                    *gp += *w * g;
                    *w -= lr * g * x;
                }
                layer.biases[o] -= lr * g;
            }
            if i > 0 {
                // ReLU derivative through the previous activation.
                for (gp, a) in grad_prev.iter_mut().zip(input_act) {
                    if *a <= 0.0 {
                        *gp = 0.0;
                    }
                }
            }
            core::mem::swap(grad, grad_prev);
        }
    }
}

/// A labeled classification dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Features row-major, `dim` per example.
    features: Vec<f64>,
    dim: usize,
    /// Every label is below `classes`.
    classes: usize,
    labels: Vec<usize>,
}

impl Dataset {
    /// Generates `per_class * classes` points as Gaussian blobs on a circle
    /// of radius 3, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or `dim < 2`.
    #[must_use]
    pub fn blobs(per_class: usize, classes: usize, dim: usize, seed: u64) -> Self {
        assert!(classes > 0, "need at least one class");
        assert!(dim >= 2, "blob dataset needs dim >= 2");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut features = Vec::with_capacity(per_class * classes * dim);
        let mut labels = Vec::with_capacity(per_class * classes);
        for c in 0..classes {
            let angle = 2.0 * core::f64::consts::PI * c as f64 / classes as f64;
            let (cx, cy) = (3.0 * angle.cos(), 3.0 * angle.sin());
            for _ in 0..per_class {
                features.push(cx + rng.gen_range(-0.8..0.8));
                features.push(cy + rng.gen_range(-0.8..0.8));
                for _ in 2..dim {
                    features.push(rng.gen_range(-0.5..0.5));
                }
                labels.push(c);
            }
        }
        Self { features, dim, classes, labels }
    }

    /// Number of examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset has no examples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &usize)> {
        self.features.chunks_exact(self.dim).zip(self.labels.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_model() -> (Mlp, Dataset) {
        let data = Dataset::blobs(150, 4, 2, 11);
        let mut mlp = Mlp::new(&[2, 24, 4], 5);
        mlp.train(&data, 60, 0.03).unwrap();
        (mlp, data)
    }

    #[test]
    fn training_reaches_high_accuracy() {
        let (mlp, data) = trained_model();
        let acc = mlp.accuracy(&data, Precision::F32).unwrap();
        assert!(acc > 0.9, "separable blobs should train to >90%, got {acc}");
    }

    #[test]
    fn accuracy_degrades_monotonically_with_precision_on_average() {
        let (mlp, data) = trained_model();
        let f32_acc = mlp.accuracy(&data, Precision::F32).unwrap();
        let int8 = mlp.accuracy(&data, Precision::Int8).unwrap();
        let int2 = mlp.accuracy(&data, Precision::Int2).unwrap();
        assert!(int8 <= f32_acc + 1e-9);
        assert!(int2 <= int8 + 0.05, "2-bit should be no better than 8-bit (±5%)");
        assert!(int2 < f32_acc, "2-bit quantization must cost accuracy");
    }

    #[test]
    fn int16_is_nearly_lossless() {
        let (mlp, data) = trained_model();
        let delta = mlp.accuracy(&data, Precision::F32).unwrap()
            - mlp.accuracy(&data, Precision::Int16).unwrap();
        assert!(delta.abs() < 0.02, "16-bit quantization should be ~lossless, delta {delta}");
    }

    #[test]
    fn macs_and_bytes() {
        let mlp = Mlp::new(&[2, 16, 4], 1);
        assert_eq!(mlp.macs_per_inference(), (2 * 16 + 16 * 4) as f64);
        assert_eq!(mlp.weight_count(), 2 * 16 + 16 * 4);
        assert_eq!(mlp.weight_bytes(Precision::F32), (2 * 16 + 16 * 4) as f64 * 4.0);
        assert_eq!(mlp.weight_bytes(Precision::Int8), (2 * 16 + 16 * 4) as f64);
        assert_eq!(mlp.weight_bytes(Precision::Int2), (2 * 16 + 16 * 4) as f64 / 4.0);
    }

    #[test]
    fn deterministic_initialization_and_training() {
        let data = Dataset::blobs(50, 2, 2, 3);
        let mut a = Mlp::new(&[2, 8, 2], 9);
        let mut b = Mlp::new(&[2, 8, 2], 9);
        a.train(&data, 5, 0.05).unwrap();
        b.train(&data, 5, 0.05).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn precision_metadata() {
        assert_eq!(Precision::F32.bits(), 32);
        assert_eq!(Precision::Int4.bits(), 4);
        assert_eq!(Precision::Int8.max_level(), Some(127.0));
        assert_eq!(Precision::F32.max_level(), None);
        assert_eq!(Precision::Int2.max_level(), Some(1.0));
        assert_eq!(format!("{}", Precision::Int8), "int8");
    }

    #[test]
    fn quantized_training_reaches_target_at_high_precision() {
        let data = Dataset::blobs(100, 3, 2, 21);
        let mut f32_model = Mlp::new(&[2, 16, 3], 4);
        let f32_epochs =
            f32_model.epochs_to_accuracy(&data, 0.9, 0.05, Precision::F32, 100).unwrap();
        assert!(f32_epochs.is_some(), "f32 training should reach 90%");

        let mut int8_model = Mlp::new(&[2, 16, 3], 4);
        let int8_epochs =
            int8_model.epochs_to_accuracy(&data, 0.9, 0.05, Precision::Int8, 150).unwrap();
        assert!(int8_epochs.is_some(), "int8 QAT should still reach 90%");
    }

    #[test]
    fn two_bit_training_stalls() {
        let data = Dataset::blobs(100, 6, 2, 22);
        let mut model = Mlp::new(&[2, 16, 6], 4);
        let epochs = model.epochs_to_accuracy(&data, 0.95, 0.05, Precision::Int2, 60).unwrap();
        assert!(epochs.is_none(), "2-bit weights cannot express a 95% 6-class classifier here");
    }

    /// The scratch-buffer SAXPY forward is bit-identical to the clone-and-
    /// dot reference at every precision, including an all-zero layer
    /// (quantization passthrough edge case).
    #[test]
    fn scratch_forward_is_bit_identical_to_reference() {
        let (mlp, data) = trained_model();
        let mut scratch = MlpScratch::default();
        for precision in Precision::ALL {
            for (x, _) in data.iter().take(40) {
                let fast = mlp.forward_into(x, precision, &mut scratch).to_vec();
                let reference = mlp.forward_reference(x, precision);
                assert_eq!(fast, reference, "forward divergence at {precision}");
            }
        }
        // All-zero weights: quant_params must pass through, not divide by 0.
        let zero = Mlp {
            layers: vec![Layer {
                inputs: 2,
                outputs: 2,
                weights: vec![0.0; 4],
                biases: vec![1.0, -1.0],
            }],
        };
        for precision in Precision::ALL {
            assert_eq!(
                zero.forward_into(&[3.0, 4.0], precision, &mut scratch),
                zero.forward_reference(&[3.0, 4.0], precision).as_slice(),
            );
        }
    }

    /// Batched forward rows are bit-identical to per-example forwards.
    #[test]
    fn batched_forward_matches_single_forwards() {
        let (mlp, data) = trained_model();
        let examples: Vec<&[f64]> = data.iter().take(17).map(|(x, _)| x).collect();
        let flat: Vec<f64> = examples.iter().flat_map(|x| x.iter().copied()).collect();
        let mut scratch = MlpScratch::default();
        for precision in [Precision::F32, Precision::Int8, Precision::Int2] {
            let batched = mlp.forward_batch_into(&flat, precision, &mut scratch).to_vec();
            let classes = mlp.classes();
            assert_eq!(batched.len(), examples.len() * classes);
            for (s, x) in examples.iter().enumerate() {
                assert_eq!(
                    &batched[s * classes..(s + 1) * classes],
                    mlp.forward(x, precision).as_slice(),
                    "batch row {s} divergence at {precision}"
                );
            }
        }
    }

    #[test]
    fn predict_rejects_bad_input() {
        let mlp = Mlp::new(&[3, 4, 2], 0);
        let result = std::panic::catch_unwind(|| mlp.predict(&[1.0, 2.0], Precision::F32));
        assert!(result.is_err(), "wrong input dimension must panic");
    }

    #[test]
    fn empty_dataset_accuracy_is_zero() {
        let mlp = Mlp::new(&[2, 4, 2], 0);
        let empty = Dataset::blobs(0, 2, 2, 0);
        assert!(empty.is_empty());
        assert_eq!(mlp.accuracy(&empty, Precision::F32), Ok(0.0));
    }

    /// A dataset whose width or class count does not fit the network is
    /// a typed error from every entry point, and leaves the network as
    /// it was.
    #[test]
    fn shape_mismatches_are_typed_errors() {
        let cases = [
            // Two-dimensional blobs into a three-input network.
            (vec![3, 16, 8], Dataset::blobs(10, 8, 2, 1), (3, 8), (2, 8)),
            // Four-dimensional blobs into a two-input network.
            (vec![2, 8, 3], Dataset::blobs(10, 3, 4, 1), (2, 3), (4, 3)),
            // Ten classes into eight outputs.
            (vec![2, 16, 8], Dataset::blobs(10, 10, 2, 1), (2, 8), (2, 10)),
        ];
        for (widths, data, expected, found) in cases {
            let want = Err(LinalgError::DimensionMismatch { expected, found });
            let mut mlp = Mlp::new(&widths, 3);
            let before = mlp.clone();
            assert_eq!(mlp.train(&data, 2, 0.05), want);
            assert_eq!(mlp.train_quantized(&data, 2, 0.05, Precision::Int8), want);
            assert_eq!(
                mlp.epochs_to_accuracy(&data, 0.9, 0.05, Precision::F32, 3),
                want.map(|()| None)
            );
            assert_eq!(mlp.accuracy(&data, Precision::F32), want.map(|()| 0.0));
            assert_eq!(mlp, before, "{widths:?}: a rejected dataset must not train the network");
        }
        // Fewer classes than outputs is a fit.
        let mut mlp = Mlp::new(&[2, 8, 4], 3);
        assert!(mlp.train(&Dataset::blobs(10, 3, 2, 1), 1, 0.05).is_ok());
    }

    /// The per-example allocating SGD step as it stood before training
    /// ran over a reusable scratch, kept as a bit-exact oracle.
    fn reference_sgd_step(mlp: &mut Mlp, input: &[f64], label: usize, lr: f64) {
        let mut activations: Vec<Vec<f64>> = vec![input.to_vec()];
        let last = mlp.layers.len() - 1;
        for (i, layer) in mlp.layers.iter().enumerate() {
            let mut out = Vec::new();
            layer.forward(activations.last().expect("nonempty"), &mut out);
            if i != last {
                for v in &mut out {
                    *v = v.max(0.0);
                }
            }
            activations.push(out);
        }
        let logits = activations.last().expect("nonempty").clone();
        let max = logits.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f64> = logits.iter().map(|v| (v - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        let mut grad: Vec<f64> = exps.iter().map(|e| e / sum).collect();
        grad[label] -= 1.0;
        for i in (0..mlp.layers.len()).rev() {
            let input_act = activations[i].clone();
            let layer = &mut mlp.layers[i];
            let mut grad_prev = vec![0.0; layer.inputs];
            #[allow(clippy::needless_range_loop)]
            for o in 0..layer.outputs {
                let g = grad[o];
                for j in 0..layer.inputs {
                    grad_prev[j] += layer.weights[o * layer.inputs + j] * g;
                    layer.weights[o * layer.inputs + j] -= lr * g * input_act[j];
                }
                layer.biases[o] -= lr * g;
            }
            if i > 0 {
                for (gp, a) in grad_prev.iter_mut().zip(&activations[i]) {
                    if *a <= 0.0 {
                        *gp = 0.0;
                    }
                }
            }
            grad = grad_prev;
        }
    }

    /// The old per-example accuracy: one quantize-and-pack per example.
    fn reference_accuracy(mlp: &Mlp, data: &Dataset, precision: Precision) -> f64 {
        let mut scratch = MlpScratch::default();
        let correct = data
            .iter()
            .filter(|(x, y)| mlp.predict_with(x, precision, &mut scratch) == **y)
            .count();
        correct as f64 / data.len() as f64
    }

    fn bits(mlp: &Mlp) -> Vec<u64> {
        mlp.layers
            .iter()
            .flat_map(|l| l.weights.iter().chain(&l.biases))
            .map(|v| v.to_bits())
            .collect()
    }

    /// Scratch training and batched accuracy reproduce the allocating
    /// step and the per-example accuracy bit for bit, epoch by epoch, at
    /// every precision and on two network shapes.
    #[test]
    fn training_and_accuracy_replay_the_reference_bit_for_bit() {
        let shapes = [
            (vec![2, 16, 8], Dataset::blobs(25, 8, 2, 42)),
            (vec![4, 12, 6, 3], Dataset::blobs(30, 3, 4, 7)),
        ];
        for (widths, data) in &shapes {
            for precision in Precision::ALL {
                let mut fast = Mlp::new(widths, 5);
                let mut slow = fast.clone();
                for epoch in 0..6 {
                    fast.train_quantized(data, 1, 0.05, precision).unwrap();
                    for (x, &y) in data.iter() {
                        reference_sgd_step(&mut slow, x, y, 0.05);
                    }
                    if precision != Precision::F32 {
                        for layer in &mut slow.layers {
                            *layer = layer.quantized(precision);
                        }
                    }
                    assert_eq!(bits(&fast), bits(&slow), "{widths:?} {precision} epoch {epoch}");
                    for p in Precision::ALL {
                        assert_eq!(
                            fast.accuracy(data, p).unwrap().to_bits(),
                            reference_accuracy(&slow, data, p).to_bits(),
                            "{widths:?} trained at {precision}, scored at {p}, epoch {epoch}"
                        );
                    }
                }
            }
        }
    }
}
