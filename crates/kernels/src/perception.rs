//! A synthetic visual-feature front end: keypoint detection on procedurally
//! generated images and binary-descriptor matching.
//!
//! This stands in for the camera-side workload of a visual-inertial
//! odometry pipeline (Navion-class). The images are synthetic, but the
//! computational structure is faithful: a corner-score pass over every
//! pixel, non-maximum suppression, descriptor extraction, and
//! Hamming-distance brute-force matching — the same mix of stencil,
//! sort-like, and distance-kernel work a real front end spends its cycles
//! on.

use rand::{Rng, SeedableRng};

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Image {
    /// Creates an image from raw pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or either dimension is 0.
    #[must_use]
    pub fn new(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert_eq!(pixels.len(), width * height, "pixel buffer size mismatch");
        Self { width, height, pixels }
    }

    /// Procedurally generates a textured scene image: smooth gradient plus
    /// seeded blobs, deterministic in `seed`.
    #[must_use]
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Self {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let blobs: Vec<(f64, f64, f64, f64)> = (0..24)
            .map(|_| {
                (
                    rng.gen_range(0.0..width as f64),
                    rng.gen_range(0.0..height as f64),
                    rng.gen_range(3.0..12.0),
                    rng.gen_range(40.0..160.0),
                )
            })
            .collect();
        let mut pixels = vec![0u8; width * height];
        for y in 0..height {
            for x in 0..width {
                let mut v = 40.0 + 30.0 * (x as f64 / width as f64);
                for &(bx, by, r, amp) in &blobs {
                    let d2 = (x as f64 - bx).powi(2) + (y as f64 - by).powi(2);
                    if d2 < r * r {
                        v += amp * (1.0 - d2 / (r * r));
                    }
                }
                pixels[y * width + x] = v.clamp(0.0, 255.0) as u8;
            }
        }
        Self { width, height, pixels }
    }

    /// Image width in pixels.
    #[inline]
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    #[must_use]
    pub fn at(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }
}

/// A detected keypoint with its corner score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// Pixel column.
    pub x: usize,
    /// Pixel row.
    pub y: usize,
    /// Harris-style corner response.
    pub score: f64,
}

/// A 256-bit binary descriptor (BRIEF-style intensity comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor(pub [u64; 4]);

impl Descriptor {
    /// Hamming distance to another descriptor.
    #[inline]
    #[must_use]
    pub fn distance(&self, other: &Self) -> u32 {
        self.0.iter().zip(&other.0).map(|(a, b)| (a ^ b).count_ones()).sum()
    }
}

/// The feature front end: detection, description, matching.
///
/// # Examples
///
/// ```
/// use m7_kernels::{FeatureFrontEnd, Image};
///
/// let frontend = FeatureFrontEnd::new(200, 9);
/// let frame = Image::synthetic(160, 120, 3);
/// let (keypoints, descriptors) = frontend.extract(&frame);
/// assert_eq!(keypoints.len(), descriptors.len());
/// assert!(!keypoints.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FeatureFrontEnd {
    max_features: usize,
    nms_radius: usize,
}

impl FeatureFrontEnd {
    /// Creates a front end keeping at most `max_features` keypoints with
    /// non-maximum suppression over `nms_radius` pixels.
    #[must_use]
    pub fn new(max_features: usize, nms_radius: usize) -> Self {
        Self { max_features, nms_radius }
    }

    /// Detects keypoints and computes their descriptors.
    #[must_use]
    pub fn extract(&self, image: &Image) -> (Vec<Keypoint>, Vec<Descriptor>) {
        let kps = self.detect(image);
        let descs = kps.iter().map(|k| Self::describe(image, k)).collect();
        (kps, descs)
    }

    /// Harris-style corner detection with greedy non-maximum suppression.
    #[must_use]
    pub fn detect(&self, image: &Image) -> Vec<Keypoint> {
        let w = image.width();
        let h = image.height();
        if w < 3 || h < 3 {
            return Vec::new();
        }
        // Sobel gradient fields.
        let mut grad_x = vec![0.0f64; w * h];
        let mut grad_y = vec![0.0f64; w * h];
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let px = |dx: isize, dy: isize| {
                    f64::from(image.at((x as isize + dx) as usize, (y as isize + dy) as usize))
                };
                grad_x[y * w + x] = -px(-1, -1) - 2.0 * px(-1, 0) - px(-1, 1)
                    + px(1, -1)
                    + 2.0 * px(1, 0)
                    + px(1, 1);
                grad_y[y * w + x] = -px(-1, -1) - 2.0 * px(0, -1) - px(1, -1)
                    + px(-1, 1)
                    + 2.0 * px(0, 1)
                    + px(1, 1);
            }
        }
        // Harris response from the 3×3-windowed structure tensor; keep
        // pixels above a fraction of the strongest response.
        let mut responses = Vec::new();
        let mut max_response = 0.0f64;
        for y in 2..h - 2 {
            for x in 2..w - 2 {
                let (mut ixx, mut iyy, mut ixy) = (0.0, 0.0, 0.0);
                for wy in y - 1..=y + 1 {
                    for wx in x - 1..=x + 1 {
                        let gx = grad_x[wy * w + wx];
                        let gy = grad_y[wy * w + wx];
                        ixx += gx * gx;
                        iyy += gy * gy;
                        ixy += gx * gy;
                    }
                }
                let det = ixx * iyy - ixy * ixy;
                let trace = ixx + iyy;
                let response = det - 0.04 * trace * trace;
                if response > 0.0 {
                    max_response = max_response.max(response);
                    responses.push(Keypoint { x, y, score: response });
                }
            }
        }
        let threshold = max_response * 0.01;
        let mut scored: Vec<Keypoint> =
            responses.into_iter().filter(|k| k.score > threshold).collect();
        scored.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
        let scored = scored;
        // Greedy NMS.
        let mut kept: Vec<Keypoint> = Vec::new();
        let r2 = (self.nms_radius * self.nms_radius) as isize;
        for k in scored {
            if kept.len() >= self.max_features {
                break;
            }
            let clear = kept.iter().all(|q| {
                let dx = k.x as isize - q.x as isize;
                let dy = k.y as isize - q.y as isize;
                dx * dx + dy * dy > r2
            });
            if clear {
                kept.push(k);
            }
        }
        kept
    }

    /// BRIEF-style descriptor: 256 fixed pseudo-random intensity
    /// comparisons in a 15-pixel patch (border-clamped).
    #[must_use]
    fn describe(image: &Image, kp: &Keypoint) -> Descriptor {
        // Fixed comparison pattern, identical for every keypoint.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xBEEF);
        let mut bits = [0u64; 4];
        for i in 0..256 {
            let (ax, ay, bx, by): (i32, i32, i32, i32) = (
                rng.gen_range(-7..=7),
                rng.gen_range(-7..=7),
                rng.gen_range(-7..=7),
                rng.gen_range(-7..=7),
            );
            let sample = |dx: i32, dy: i32| {
                let x = (kp.x as i32 + dx).clamp(0, image.width() as i32 - 1) as usize;
                let y = (kp.y as i32 + dy).clamp(0, image.height() as i32 - 1) as usize;
                image.at(x, y)
            };
            if sample(ax, ay) > sample(bx, by) {
                bits[i / 64] |= 1u64 << (i % 64);
            }
        }
        Descriptor(bits)
    }

    /// The lane matcher: word-plane layout, one distance sweep per query.
    ///
    /// The candidate set is first transposed into four word planes
    /// (`plane_w[j]` = word `w` of descriptor `j`), so each query sweeps
    /// four unit-stride `u64` arrays into a reused `u16` distance buffer —
    /// a pure map the auto-vectorizer turns into vector XOR + vector
    /// popcount (AVX-512 `vpopcntq` under `target-cpu=native`, a SWAR
    /// bit count two candidates per register in a default SSE2 build).
    /// Every distance is computed once; best and second-best are then
    /// `min` reductions over the buffer. The best index is the *first* position holding
    /// the minimum and the second-best distance is the minimum over every
    /// other position, which are the scalar reference's first-wins tie and
    /// second-best rules, so match output is bit-identical to
    /// [`FeatureFrontEnd::match_descriptors_scalar`].
    #[must_use]
    pub fn match_descriptors_planes(a: &[Descriptor], b: &[Descriptor]) -> Vec<(usize, usize)> {
        let mut matches = Vec::new();
        if a.is_empty() || b.is_empty() {
            return matches;
        }
        let n = b.len();
        // Transpose once: O(n) against the O(|a|·n) distance sweep.
        let mut planes = vec![0u64; 4 * n];
        let (p0, rest) = planes.split_at_mut(n);
        let (p1, rest) = rest.split_at_mut(n);
        let (p2, p3) = rest.split_at_mut(n);
        for (j, d) in b.iter().enumerate() {
            p0[j] = d.0[0];
            p1[j] = d.0[1];
            p2[j] = d.0[2];
            p3[j] = d.0[3];
        }
        let mut dist = vec![0u16; n];
        for (i, da) in a.iter().enumerate() {
            let [q0, q1, q2, q3] = da.0;
            for ((((d, &w0), &w1), &w2), &w3) in
                dist.iter_mut().zip(&*p0).zip(&*p1).zip(&*p2).zip(&*p3)
            {
                // At most 256, so the narrowing is exact.
                *d = ((q0 ^ w0).count_ones()
                    + (q1 ^ w1).count_ones()
                    + (q2 ^ w2).count_ones()
                    + (q3 ^ w3).count_ones()) as u16;
            }
            let best_d = dist.iter().copied().fold(u16::MAX, u16::min);
            let best_j = dist.iter().position(|&d| d == best_d).expect("n > 0");
            // With a single candidate both halves are empty and `second`
            // stays `u16::MAX` — the scalar reference's "no second".
            let second = dist[..best_j]
                .iter()
                .copied()
                .fold(u16::MAX, u16::min)
                .min(dist[best_j + 1..].iter().copied().fold(u16::MAX, u16::min));
            // Lowe-style ratio test adapted to Hamming distances.
            if second == u16::MAX || f64::from(best_d) < 0.8 * f64::from(second) {
                matches.push((i, best_j));
            }
        }
        matches
    }

    /// Scalar-reference matcher: interleaved distance + selection per
    /// candidate, no chunking, no distance buffer. Kept public as the
    /// property-tested reference for
    /// [`FeatureFrontEnd::match_descriptors_planes`].
    #[must_use]
    pub fn match_descriptors_scalar(a: &[Descriptor], b: &[Descriptor]) -> Vec<(usize, usize)> {
        let mut matches = Vec::new();
        for (i, da) in a.iter().enumerate() {
            let mut best = (usize::MAX, u32::MAX);
            let mut second = u32::MAX;
            for (j, db) in b.iter().enumerate() {
                let d = da.distance(db);
                if d < best.1 {
                    second = best.1;
                    best = (j, d);
                } else if d < second {
                    second = d;
                }
            }
            if best.0 != usize::MAX && (second == u32::MAX || (best.1 as f64) < 0.8 * second as f64)
            {
                matches.push((i, best.0));
            }
        }
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Image {
        /// Translates the image content by integer offsets, filling vacated
        /// pixels with 0. Used to synthesize camera motion between frames.
        #[must_use]
        fn shifted(&self, dx: isize, dy: isize) -> Self {
            let mut out = vec![0u8; self.pixels.len()];
            for y in 0..self.height {
                for x in 0..self.width {
                    let sx = x as isize - dx;
                    let sy = y as isize - dy;
                    if sx >= 0
                        && sy >= 0
                        && (sx as usize) < self.width
                        && (sy as usize) < self.height
                    {
                        out[y * self.width + x] =
                            self.pixels[sy as usize * self.width + sx as usize];
                    }
                }
            }
            Self { width: self.width, height: self.height, pixels: out }
        }
    }

    #[test]
    fn synthetic_image_is_deterministic() {
        let a = Image::synthetic(64, 48, 5);
        let b = Image::synthetic(64, 48, 5);
        assert_eq!(a, b);
        let c = Image::synthetic(64, 48, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn detects_features_on_textured_image() {
        let img = Image::synthetic(160, 120, 1);
        let fe = FeatureFrontEnd::new(100, 7);
        let kps = fe.detect(&img);
        assert!(kps.len() > 10, "textured image should yield corners, got {}", kps.len());
        assert!(kps.len() <= 100);
        // NMS: no two keypoints closer than the radius.
        for (i, a) in kps.iter().enumerate() {
            for b in &kps[i + 1..] {
                let dx = a.x as isize - b.x as isize;
                let dy = a.y as isize - b.y as isize;
                assert!(dx * dx + dy * dy > 49);
            }
        }
    }

    #[test]
    fn descriptor_distance_properties() {
        let d0 = Descriptor([0, 0, 0, 0]);
        let d1 = Descriptor([u64::MAX, 0, 0, 0]);
        assert_eq!(d0.distance(&d0), 0);
        assert_eq!(d0.distance(&d1), 64);
        assert_eq!(d1.distance(&d0), 64);
    }

    #[test]
    fn matching_survives_small_shift() {
        // Seed chosen for a well-textured blob layout: plenty of corners
        // survive the shift, so the consistency margin is comfortable.
        let img = Image::synthetic(160, 120, 4);
        let moved = img.shifted(3, 1);
        let fe = FeatureFrontEnd::new(80, 7);
        let (ka, da) = fe.extract(&img);
        let (kb, db) = fe.extract(&moved);
        let matches = FeatureFrontEnd::match_descriptors_scalar(&da, &db);
        assert!(!matches.is_empty(), "shifted frame should still match");
        // Most matches should be consistent with the (3, 1) shift.
        let consistent = matches
            .iter()
            .filter(|&&(i, j)| {
                let dx = kb[j].x as isize - ka[i].x as isize;
                let dy = kb[j].y as isize - ka[i].y as isize;
                (dx - 3).abs() <= 2 && (dy - 1).abs() <= 2
            })
            .count();
        assert!(
            consistent * 2 > matches.len(),
            "{consistent}/{} matches consistent with the shift",
            matches.len()
        );
    }

    fn random_descriptors(n: usize, seed: u64) -> Vec<Descriptor> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| Descriptor([rng.gen(), rng.gen(), rng.gen(), rng.gen()])).collect()
    }

    /// Buffered matcher is bit-identical to the scalar reference,
    /// including duplicate-distance tie-breaking and ratio-test edges.
    #[test]
    fn batched_matcher_matches_scalar_reference() {
        for (na, nb, seed) in [(0, 5, 1), (5, 0, 2), (7, 7, 3), (40, 37, 4), (33, 64, 5), (8, 1, 6)]
        {
            let a = random_descriptors(na, seed);
            let mut b = random_descriptors(nb, seed + 100);
            // Force duplicate distances so tie-breaking is exercised.
            if nb >= 2 {
                b[nb - 1] = b[0];
            }
            // The lane kernel itself, plus the compile-time dispatcher
            // (whichever path this build selected).
            assert_eq!(
                FeatureFrontEnd::match_descriptors_planes(&a, &b),
                FeatureFrontEnd::match_descriptors_scalar(&a, &b),
                "lane matcher divergence at sizes {na}x{nb}"
            );
        }
    }

    #[test]
    fn empty_on_tiny_image() {
        let img = Image::new(2, 2, vec![0; 4]);
        let fe = FeatureFrontEnd::new(10, 3);
        assert!(fe.detect(&img).is_empty());
    }
}
