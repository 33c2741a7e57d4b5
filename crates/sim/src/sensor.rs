//! Sensor models: frame rates, payload sizes, and measurement noise.

use m7_units::{Bytes, BytesPerSecond, Hertz};
use rand::{Rng, SeedableRng};

/// The sensor classes carried by the simulated vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// A global-shutter camera.
    Camera,
    /// A scanning 2D lidar.
    Lidar,
    /// An inertial measurement unit.
    Imu,
}

impl core::fmt::Display for SensorKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Camera => "camera",
            Self::Lidar => "lidar",
            Self::Imu => "imu",
        };
        f.write_str(s)
    }
}

/// A sensor's rate, payload, and noise specification.
///
/// # Examples
///
/// ```
/// use m7_sim::SensorSpec;
///
/// let cam = SensorSpec::camera_vga(30.0);
/// assert_eq!(cam.rate().value(), 30.0);
/// assert!(cam.data_rate().as_gigabytes_per_second() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSpec {
    kind: SensorKind,
    rate: Hertz,
    payload: Bytes,
    /// Standard deviation of measurement noise (sensor-specific units).
    noise_std: f64,
}

impl SensorSpec {
    /// Creates a spec from raw parameters.
    ///
    /// # Panics
    ///
    /// Panics if the rate or payload is non-positive/non-finite, or the
    /// noise is negative.
    #[must_use]
    pub fn new(kind: SensorKind, rate: Hertz, payload: Bytes, noise_std: f64) -> Self {
        assert!(rate.value() > 0.0 && rate.is_finite(), "rate must be positive");
        assert!(payload.value() > 0.0 && payload.is_finite(), "payload must be positive");
        assert!(noise_std >= 0.0, "noise must be non-negative");
        Self { kind, rate, payload, noise_std }
    }

    /// A VGA grayscale camera at the given frame rate.
    #[must_use]
    pub fn camera_vga(fps: f64) -> Self {
        Self::new(SensorKind::Camera, Hertz::new(fps), Bytes::new(640.0 * 480.0), 2.0)
    }

    /// A 2D lidar: `beams` ranges of 4 bytes per revolution.
    #[must_use]
    pub fn lidar(rev_per_sec: f64, beams: usize) -> Self {
        Self::new(SensorKind::Lidar, Hertz::new(rev_per_sec), Bytes::new(4.0 * beams as f64), 0.02)
    }

    /// A 6-axis IMU at the given sample rate.
    #[must_use]
    pub fn imu(hz: f64) -> Self {
        Self::new(SensorKind::Imu, Hertz::new(hz), Bytes::new(24.0), 0.05)
    }

    /// Sensor class.
    #[must_use]
    pub fn kind(&self) -> SensorKind {
        self.kind
    }

    /// Frame/sample rate.
    #[must_use]
    pub fn rate(&self) -> Hertz {
        self.rate
    }

    /// Payload bytes per frame/sample.
    #[must_use]
    pub fn payload(&self) -> Bytes {
        self.payload
    }

    /// Average data rate produced by the sensor.
    #[must_use]
    pub fn data_rate(&self) -> BytesPerSecond {
        BytesPerSecond::new(self.rate.value() * self.payload.value())
    }
}

/// A deterministic Gaussian noise source (Box-Muller over a seeded
/// ChaCha RNG).
#[derive(Debug, Clone)]
pub(crate) struct NoiseSource {
    std: f64,
    rng: rand_chacha::ChaCha8Rng,
    spare: Option<f64>,
}

impl NoiseSource {
    /// Creates a zero-mean Gaussian source with the given standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or non-finite.
    #[must_use]
    pub(crate) fn new(std: f64, seed: u64) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "std must be non-negative and finite");
        Self { std, rng: rand_chacha::ChaCha8Rng::seed_from_u64(seed), spare: None }
    }

    /// Draws one sample. A zero-std source returns `0.0` without
    /// drawing.
    // Inlined into the closed loops' steps, whose largest cost it is.
    #[inline]
    pub(crate) fn sample(&mut self) -> f64 {
        if self.std == 0.0 {
            return 0.0;
        }
        if let Some(s) = self.spare.take() {
            return s * self.std;
        }
        // Box-Muller transform.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let mag = (-2.0 * u1.ln()).sqrt();
        let z0 = mag * (2.0 * core::f64::consts::PI * u2).cos();
        let z1 = mag * (2.0 * core::f64::consts::PI * u2).sin();
        self.spare = Some(z1);
        z0 * self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camera_data_rate() {
        let cam = SensorSpec::camera_vga(30.0);
        let expected = 30.0 * 640.0 * 480.0;
        assert!((cam.data_rate().value() - expected).abs() < 1e-6);
        assert_eq!(cam.kind(), SensorKind::Camera);
    }

    #[test]
    fn lidar_and_imu_presets() {
        let l = SensorSpec::lidar(10.0, 360);
        assert_eq!(l.payload(), Bytes::new(1440.0));
        let i = SensorSpec::imu(200.0);
        assert_eq!(i.rate().value(), 200.0);
    }

    #[test]
    fn noise_statistics() {
        let mut n = NoiseSource::new(2.0, 3);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn noise_is_deterministic() {
        let mut a = NoiseSource::new(1.0, 5);
        let mut b = NoiseSource::new(1.0, 5);
        for _ in 0..50 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn noise_stays_within_sigma_bounds() {
        // Box-Muller over a [eps, 1) uniform has a hard tail bound of
        // sqrt(-2 ln eps) ~ 8.5 sigma; practically every draw must land
        // well inside +/-6 sigma and the bulk inside +/-3 sigma.
        let std = 1.5;
        let mut n = NoiseSource::new(std, 11);
        let samples: Vec<f64> = (0..50_000).map(|_| n.sample()).collect();
        let mut inside_3 = 0usize;
        for &s in &samples {
            assert!(s.abs() <= 6.0 * std, "sample {s} breaches the 6-sigma bound");
            if s.abs() <= 3.0 * std {
                inside_3 += 1;
            }
        }
        let frac = inside_3 as f64 / samples.len() as f64;
        assert!(frac > 0.995, "only {frac} of samples inside 3 sigma");
    }

    #[test]
    fn noise_scales_linearly_with_std() {
        // Same seed, different std: identical shapes scaled by the ratio.
        let mut a = NoiseSource::new(1.0, 13);
        let mut b = NoiseSource::new(2.5, 13);
        for _ in 0..200 {
            let x = a.sample();
            let y = b.sample();
            assert!((y - 2.5 * x).abs() < 1e-12, "expected {x} scaled by 2.5, got {y}");
        }
    }

    #[test]
    fn zero_std_is_silent() {
        let mut n = NoiseSource::new(0.0, 1);
        for _ in 0..10 {
            assert_eq!(n.sample(), 0.0);
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(SensorKind::Lidar.to_string(), "lidar");
    }
}
