//! Deterministic synthetic DCE-MRI generation.
//!
//! The paper evaluates on a clinical DCE-MRI study: the patient is injected
//! with a contrast medium and a series of 3D scans of the region of interest
//! is acquired over time; tumors take up the contrast agent faster than
//! healthy tissue and later wash it out. We cannot ship clinical data, so
//! this module synthesizes a phantom with the same structure:
//!
//! * a smooth **tissue background** (trilinear value noise over a coarse
//!   lattice) with a gentle global enhancement over time;
//! * a set of ellipsoidal **lesions** whose intensity follows a wash-in /
//!   wash-out contrast kinetics curve `e(τ) = (1 − e^{−k_in τ}) e^{−k_out τ}`
//!   with per-lesion rates;
//! * additive Gaussian **acquisition noise** (Box–Muller).
//!
//! Everything is driven by a single RNG seed, so datasets are reproducible
//! bit-for-bit. The default configuration matches the paper's dataset
//! geometry: 32 time steps × 32 slices of 256×256 2-byte pixels, and is
//! tuned so that requantized 32-level co-occurrence matrices over a
//! 10×10×3×3 ROI are ~99% sparse, matching the paper's measured average of
//! 10.7 non-zero entries.
//!
//! # Draws, evaluation order and threads
//!
//! The seed starts one SplitMix64 stream, the generator and `f64` mapping of
//! `benchmark/shims/rand`, so a seed names the same study there and here.
//! Its draws are taken in this order:
//!
//! 1. one per lattice point of the tissue texture, then of the coarser
//!    perfusion field;
//! 2. nine per lesion: the three radii, the three centre coordinates,
//!    `k_in`, `k_out` and `onset`;
//! 3. two per voxel, its Box–Muller pair: voxel `k` in storage order (`t`
//!    slowest) takes draws `2k` and `2k + 1` after step 2.
//!
//! SplitMix64's `n`-th state is `seed + n·γ`, so step 3 starts any row at its
//! own draws without making the ones before them. Only the contrast kinetics
//! depend on `t`. The `(y, z)` rows are split into consecutive shares, one per
//! thread of `available_parallelism()`, and a thread fills its share in every
//! time step: it evaluates a row's tissue texture, perfusion and lesion
//! memberships once, then fills that row in each time step. So each spatial
//! term is evaluated once per render, and a render of any range of time
//! steps, down to one, uses every thread. The terms come from per-axis
//! tables, built once per render: each `x`'s lattice cell in both value-noise
//! fields and each lesion's `x` term; a row adds its `y` and `z` cells, its
//! four lattice lines and each lesion's `y` and `z` terms. These perform the
//! operations of the per-point evaluators in their order (the trilinear
//! interpolation along `x`, then `y`, then `z`; a membership's sum as
//! `(x + y) + z`), and the tissue and lesion enhancement curves are evaluated
//! once per time step. Every voxel is computed by the same operations in the
//! same order whatever the split, so the bytes depend neither on the thread
//! count nor on which time steps a render covers.
//!
//! # Noise
//!
//! A voxel's noise is `noise_sigma · g` with `g = √(−2 ln u1) · cos 2πu2`
//! from its two draws (`u1` clamped to `≥ 1e-12`). `gaussian` evaluates `g`
//! through libm and defines every byte. Per row and time step,
//! `render_rows` draws the row into two buffers, fills it with a fast `g`
//! in a branch-free loop the compiler vectorizes, adds each voxel's tissue
//! and lesion terms, and keeps the fast `u16` only where Ziv's rounding test
//! (Ziv 1991) shows it is the exact one: with `w` the voxel's sum over the
//! fast `g` and `T(w) = w.clamp(0, 65535) as u16`, the voxel keeps `T(w)`
//! when `w` is finite and `T(w − margin) == T(w + margin)`. Otherwise it is
//! summed again with `gaussian` from the same two draws. `T` is monotone,
//! so every sum within `margin` of `w` has the same `u16`.
//!
//! * `ln u1`: the bits split `u1 = 2^k·m` with `m ∈ [√½, √2)` exactly, and
//!   `ln m = 2 atanh s = Σ_{j≤7} 2s^{2j+1}/(2j+1)` with `s = (m−1)/(m+1)`,
//!   `s² ≤ (3 − 2√2)² < 0.0295`.
//! * `cos 2πu2`: `a = min(u2, 1 − u2)`, `b = min(a, ½ − a) ∈ [0, ¼]`, both
//!   exact (Sterbenz), and `cos 2πu2 = ±cos 2πb` (minus where `a > ¼`);
//!   `cos 2πb` is its Taylor polynomial to `b^18`.
//!
//! **The bound `E = 1e-12` on `|g_fast − g_libm|`.** With `ε = 2^-53` and
//! `|g| ≤ √(2 ln 10¹²) < 7.44`:
//! * fast `ln u1`: series remainder `< s^16/(17(1 − s²)) < 3.5e-14`,
//!   relative; the roundings of `s`, of the Horner sum (`γ_14`), of
//!   `k·ln 2` and of the last sum add `< 30ε`, relative, since
//!   `|ln m| ≤ |ln u1|` and `|k ln 2| ≤ 2|ln u1|`; so `< 3.8e-14`, and the
//!   square root's relative error is `< 1.9e-14 + ε`;
//! * fast `cos 2πb`: remainder `< (π/2)^20/20! < 3.5e-15`; roundings
//!   `< (18 + 2)ε·cosh(π/2) < 5.6e-15`; so `< 9.1e-15`, absolute;
//! * fast `g`: `7.44·(1.9e-14 + ε) + 7.44·9.1e-15 + 7.44ε < 2.2e-13`;
//! * libm `g`: glibc's `log` and `cos` are within 1 ulp, `sqrt` is correctly
//!   rounded, and `fl(τ·u2)` is within `2^-50` of `2πu2`:
//!   `7.44·2ε + 7.44·(2^-50 + ε) + 7.44ε < 1.1e-14`;
//! * the products `noise_sigma · g` each round by `≤ 7.44ε·|noise_sigma|`:
//!   `< 1.7e-15·|noise_sigma|`.
//!
//! So the two noise terms differ by `< 2.4e-13·|noise_sigma|`, and
//! `margin = |noise_sigma|·E + 2^-30`. The `2^-30` is for the roundings of
//! `v + σg` on both paths and of `w ± margin`: `T` is constant below 1 and
//! from 65535 on, so only sums in `[−1, 65537]` can decide a `u16`, and an
//! ulp there is `≤ 2^-36`. A NaN or infinite `noise_sigma` makes `w` (or
//! the margin) non-finite, so every voxel takes the exact path. A test
//! holds the fast `g` to `E` on 10⁶ seeded pairs and at the edges of both
//! reductions; the worst seen in 2·10⁷ seeded pairs is `3.0e-14`.
//!
//! The fallback rate is about `2·margin` per voxel: 0 voxels in each
//! benchmark workload's study at seeds 7 and 11 (69.5 M voxels in all), and
//! 4 in 1.34 G voxels over 20 more paper-scale seeds. On a 2-vCPU Xeon the
//! paper-scale study generates in about 0.6–0.7 s; through libm alone it
//! took 2.0 s.

use crate::raw::RawVolume;
use haralick::volume::Dims4;
use json::{FromJson, ToJson, Value};
use std::num::NonZeroUsize;
use std::ops::Range;

/// Parameters of the synthetic study.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Dataset extents; the paper's dataset is `256x256x32x32`.
    pub dims: Dims4,
    /// RNG seed; equal seeds produce identical datasets.
    pub seed: u64,
    /// Number of enhancing lesions.
    pub lesions: usize,
    /// Mean background tissue intensity.
    pub base_intensity: f64,
    /// Amplitude of the spatial tissue texture.
    pub texture_amplitude: f64,
    /// Lattice period of the background texture, in voxels.
    pub texture_scale: usize,
    /// Peak lesion enhancement above background.
    pub lesion_intensity: f64,
    /// Standard deviation of the additive acquisition noise.
    pub noise_sigma: f64,
}

impl SynthConfig {
    /// The paper-scale dataset: 32 time steps of 32 slices of 256×256.
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            dims: Dims4::new(256, 256, 32, 32),
            seed,
            lesions: 4,
            base_intensity: 800.0,
            texture_amplitude: 140.0,
            texture_scale: 16,
            lesion_intensity: 900.0,
            noise_sigma: 5.0,
        }
    }

    /// A small dataset for tests and quick examples (same structure,
    /// 64×64×8×8).
    pub fn test_scale(seed: u64) -> Self {
        Self {
            dims: Dims4::new(64, 64, 8, 8),
            seed,
            lesions: 2,
            ..Self::paper_scale(seed)
        }
    }
}

/// One ellipsoidal enhancing lesion. Public so that studies can carry the
/// ground truth alongside the synthetic data (e.g. for follow-up
/// monitoring examples and segmentation-quality checks).
#[derive(Debug, Clone, PartialEq)]
pub struct Lesion {
    /// Ellipsoid center in voxel coordinates (x, y, z).
    pub center: [f64; 3],
    /// Ellipsoid radii in voxels (x, y, z).
    pub radii: [f64; 3],
    /// Contrast wash-in rate.
    pub k_in: f64,
    /// Contrast wash-out rate.
    pub k_out: f64,
    /// Normalized study time at which uptake begins.
    pub onset: f64,
}

impl ToJson for Lesion {
    fn to_json(&self) -> Value {
        Value::object([
            ("center", self.center.to_json()),
            ("radii", self.radii.to_json()),
            ("k_in", self.k_in.to_json()),
            ("k_out", self.k_out.to_json()),
            ("onset", self.onset.to_json()),
        ])
    }
}

impl FromJson for Lesion {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            center: o.field("center")?,
            radii: o.field("radii")?,
            k_in: o.field("k_in")?,
            k_out: o.field("k_out")?,
            onset: o.field("onset")?,
        })
    }
}

impl Lesion {
    /// Contrast enhancement at normalized study time `tau ∈ [0, 1]`.
    pub fn enhancement(&self, tau: f64) -> f64 {
        let s = (tau - self.onset).max(0.0);
        (1.0 - (-self.k_in * s).exp()) * (-self.k_out * s).exp()
    }

    /// Soft spatial membership in `[0, 1]` at voxel `(x, y, z)`.
    pub fn membership(&self, x: f64, y: f64, z: f64) -> f64 {
        falloff(self.axis_term(0, x) + self.axis_term(1, y) + self.axis_term(2, z))
    }

    /// `((c − center) / radius)²` on `axis`: one term of the membership's sum.
    fn axis_term(&self, axis: usize, c: f64) -> f64 {
        ((c - self.center[axis]) / self.radii[axis]).powi(2)
    }

    /// Sets `out[x]` to the membership at `(x, y, z)` for each of `x_terms`,
    /// this lesion's `x` terms: the `y` and `z` terms are evaluated once, and
    /// the sum keeps [`Self::membership`]'s order.
    fn row(&self, x_terms: &[f64], y: usize, z: usize, out: &mut [f64]) {
        let (ty, tz) = (self.axis_term(1, y as f64), self.axis_term(2, z as f64));
        for (m, &tx) in out.iter_mut().zip(x_terms) {
            *m = falloff(tx + ty + tz);
        }
    }
}

/// The membership at squared normalized radius `r2`: a smooth edge, full
/// inside and with a quadratic falloff over the rim.
fn falloff(r2: f64) -> f64 {
    if r2 >= 1.0 {
        0.0
    } else {
        (1.0 - r2).powi(2)
    }
}

/// Coarse-lattice value noise with trilinear interpolation, periodic in
/// nothing, deterministic in the seed.
struct ValueNoise {
    grid: Vec<f64>,
    gx: usize,
    gy: usize,
    gz: usize,
    scale: f64,
}

impl ValueNoise {
    fn new(dims: Dims4, scale: usize, rng: &mut SplitMix64) -> Self {
        let scale = scale.max(2);
        let gx = dims.x / scale + 2;
        let gy = dims.y / scale + 2;
        let gz = dims.z / scale + 2;
        let grid = (0..gx * gy * gz).map(|_| rng.unit() * 2.0 - 1.0).collect();
        Self {
            grid,
            gx,
            gy,
            gz,
            scale: scale as f64,
        }
    }

    /// The lattice cells of the `x` coordinates `0..len`.
    fn x_cells(&self, len: usize) -> Vec<Cell> {
        (0..len)
            .map(|x| Cell::new(x, self.scale, self.gx))
            .collect()
    }

    /// Sets `out[x]` to the field at `(x, y, z)` for each of `x_cells`: the
    /// operations of [`Self::at`] in its order, with the `y` and `z` cells and
    /// the four lattice lines they select found once.
    fn row(&self, x_cells: &[Cell], y: usize, z: usize, out: &mut [f64]) {
        let cy = Cell::new(y, self.scale, self.gy);
        let cz = Cell::new(z, self.scale, self.gz);
        let line = |j: usize, k: usize| &self.grid[(k * self.gy + j) * self.gx..][..self.gx];
        let (l00, l10) = (line(cy.lo, cz.lo), line(cy.hi, cz.lo));
        let (l01, l11) = (line(cy.lo, cz.hi), line(cy.hi, cz.hi));
        for (v, c) in out.iter_mut().zip(x_cells) {
            let c00 = lerp(l00[c.lo], l00[c.hi], c.t);
            let c10 = lerp(l10[c.lo], l10[c.hi], c.t);
            let c01 = lerp(l01[c.lo], l01[c.hi], c.t);
            let c11 = lerp(l11[c.lo], l11[c.hi], c.t);
            *v = lerp(lerp(c00, c10, cy.t), lerp(c01, c11, cy.t), cz.t);
        }
    }

    /// The field at one point: the oracle of [`Self::row`].
    #[cfg(test)]
    fn at(&self, x: f64, y: f64, z: f64) -> f64 {
        let (fx, fy, fz) = (x / self.scale, y / self.scale, z / self.scale);
        let (ix, iy, iz) = (fx as usize, fy as usize, fz as usize);
        let (tx, ty, tz) = (fx - ix as f64, fy - iy as f64, fz - iz as f64);
        let g = |i: usize, j: usize, k: usize| -> f64 {
            let i = i.min(self.gx - 1);
            let j = j.min(self.gy - 1);
            let k = k.min(self.gz - 1);
            self.grid[(k * self.gy + j) * self.gx + i]
        };
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(g(ix, iy, iz), g(ix + 1, iy, iz), tx);
        let c10 = lerp(g(ix, iy + 1, iz), g(ix + 1, iy + 1, iz), tx);
        let c01 = lerp(g(ix, iy, iz + 1), g(ix + 1, iy, iz + 1), tx);
        let c11 = lerp(g(ix, iy + 1, iz + 1), g(ix + 1, iy + 1, iz + 1), tx);
        lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz)
    }
}

/// Where a coordinate falls on one axis of a value-noise lattice: `c / scale`
/// split into a whole part and a fraction as [`ValueNoise::at`] splits it, and
/// the lattice points on either side, clamped to the axis's `n` points.
#[derive(Debug, Clone, Copy)]
struct Cell {
    lo: usize,
    hi: usize,
    t: f64,
}

impl Cell {
    fn new(c: usize, scale: f64, n: usize) -> Self {
        let f = c as f64 / scale;
        let i = f as usize;
        Self {
            lo: i.min(n - 1),
            hi: (i + 1).min(n - 1),
            t: f - i as f64,
        }
    }
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// SplitMix64 (Steele, Lea & Flood, with Vigna's constants): `gen::<f64>()`
/// and `gen_range` of the `rand` stand-in in `benchmark/shims/rand`, draw for
/// draw. The state after `n` draws is `seed + n·γ`, which is what lets
/// [`skip`](Self::skip) start a row of voxels at its own draws.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The generator `draws` draws further on, without making them.
    fn skip(&self, draws: u64) -> Self {
        Self {
            state: self.state.wrapping_add(draws.wrapping_mul(Self::GAMMA)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits of a draw.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `range`; a value that rounds onto `range.end` becomes
    /// `range.start`, as in the stand-in.
    fn range(&mut self, range: Range<f64>) -> f64 {
        let v = range.start + (range.end - range.start) * self.unit();
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

/// A standard-normal sample via Box–Muller from the next two draws: the
/// definition of a voxel's noise (module doc, "Noise").
fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u1 = rng.unit().max(1e-12);
    let u2 = rng.unit();
    box_muller(u1, u2)
}

/// `sqrt(−2 ln u1) · cos(2π u2)` through libm.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `E` of the module doc: `|fast_box_muller − box_muller| ≤ E` for
/// `u1 ∈ [1e-12, 1)`, `u2 ∈ [0, 1)`, with room for rounding
/// `noise_sigma ·` either.
const FAST_NOISE_ERROR: f64 = 1e-12;

/// What the roundings of a voxel's sum can add to the margin where its
/// `u16` is decided (module doc, "Noise").
const ROUNDING_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// `2/(2j + 1)`: `ln m = s · Σ_j (2/(2j + 1)) s^{2j}`, `s = (m − 1)/(m + 1)`.
const LN_SERIES: [f64; 8] = [
    2.0,
    2.0 / 3.0,
    2.0 / 5.0,
    2.0 / 7.0,
    2.0 / 9.0,
    2.0 / 11.0,
    2.0 / 13.0,
    2.0 / 15.0,
];

/// `(−1)^j (2π)^{2j} / (2j)!`: `cos 2πb = Σ_j COS_SERIES[j] b^{2j}`.
const COS_SERIES: [f64; 10] = [
    1.0,
    -19.739208802178716,
    64.9393940226683,
    -85.45681720669373,
    60.24464137187666,
    -26.4262567833744,
    7.903536371318469,
    -1.714390711088672,
    0.28200596845579123,
    -0.03638284114254567,
];

/// `Σ_j c[j] y^j` by Horner's rule.
fn horner<const N: usize>(c: &[f64; N], y: f64) -> f64 {
    let (last, rest) = c.split_last().expect("a polynomial has a coefficient");
    rest.iter().rev().fold(*last, |acc, &c| acc * y + c)
}

/// `ln u` for a positive normal `u`, without a branch.
fn fast_ln(u: f64) -> f64 {
    const SQRT_HALF: u64 = 0x3FE6_A09E_667F_3BCD; // the bits of √½
    const MANTISSA: u64 = (1 << 52) - 1;
    // Adding `1.0 − √½` in the bit domain carries into the exponent exactly
    // when the mantissa is at least √2, so `u = 2^k·m` with `m ∈ [√½, √2)`.
    let bits = u.to_bits() + (1.0f64.to_bits() - SQRT_HALF);
    let k = f64::from((bits >> 52) as i32 - 1023);
    let m = f64::from_bits((bits & MANTISSA) + SQRT_HALF);
    let s = (m - 1.0) / (m + 1.0);
    k * std::f64::consts::LN_2 + s * horner(&LN_SERIES, s * s)
}

/// `cos 2πu` for `u ∈ [0, 1)`, without a branch: `cos 2πu = ±cos 2πb` with
/// `b ∈ [0, ¼]` reflected off `½` and `¼` exactly.
fn fast_cos_tau(u: f64) -> f64 {
    let a = if u < 1.0 - u { u } else { 1.0 - u };
    let d = 0.5 - a;
    let b = if d < a { d } else { a };
    let c = horner(&COS_SERIES, b * b);
    if d < a {
        -c
    } else {
        c
    }
}

/// [`box_muller`] within [`FAST_NOISE_ERROR`].
fn fast_box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * fast_ln(u1)).sqrt() * fast_cos_tau(u2)
}

/// A voxel's sum as its `u16`.
fn to_u16(v: f64) -> u16 {
    v.clamp(0.0, f64::from(u16::MAX)) as u16
}

/// `to_u16(w)` when every sum within `margin` of `w` has that `u16`, so that
/// an exact sum within `margin` has it too (module doc, "Noise").
fn decided(w: f64, margin: f64) -> Option<u16> {
    let n = to_u16(w - margin);
    (w.is_finite() && n == to_u16(w + margin)).then_some(n)
}

/// Generates the synthetic DCE-MRI study.
pub fn generate(cfg: &SynthConfig) -> RawVolume {
    generate_with_truth(cfg).0
}

/// [`generate`] additionally returning the lesion ground truth (for
/// follow-up monitoring and validation against known anatomy). Scaling
/// every lesion's radii by `growth` models progression between visits —
/// see [`generate_followup`].
pub fn generate_with_truth(cfg: &SynthConfig) -> (RawVolume, Vec<Lesion>) {
    generate_grown(cfg, 1.0)
}

/// Generates a follow-up visit of the same patient: identical anatomy and
/// noise field (same seed), lesions grown (or shrunk) by `growth` in every
/// radius — the paper's motivating "follow-up studies ... monitor the
/// progression and response to treatment".
pub fn generate_followup(cfg: &SynthConfig, growth: f64) -> (RawVolume, Vec<Lesion>) {
    assert!(growth > 0.0, "growth factor must be positive");
    generate_grown(cfg, growth)
}

fn generate_grown(cfg: &SynthConfig, growth: f64) -> (RawVolume, Vec<Lesion>) {
    let study = Study::draw(cfg, growth);
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut data = vec![0; cfg.dims.len()];
    render(cfg, &study, 0..cfg.dims.t, threads, &mut data);
    (RawVolume::new(cfg.dims, data), study.lesions)
}

/// What a study draws before its voxels (steps 1 and 2 of the module doc).
struct Study {
    texture: ValueNoise,
    /// A second, coarser field modulates regional perfusion (how strongly
    /// background tissue enhances over time).
    perfusion: ValueNoise,
    lesions: Vec<Lesion>,
    /// The stream at voxel 0's first draw.
    noise: SplitMix64,
    /// How far a voxel's fast sum may be from its exact sum (module doc,
    /// "Noise"); a test sets it to `∞` to send every voxel down the exact
    /// path.
    margin: f64,
}

impl Study {
    fn draw(cfg: &SynthConfig, growth: f64) -> Self {
        let mut rng = SplitMix64::new(cfg.seed);
        let dims = cfg.dims;
        let texture = ValueNoise::new(dims, cfg.texture_scale, &mut rng);
        let perfusion = ValueNoise::new(dims, cfg.texture_scale * 4, &mut rng);
        let lesions = (0..cfg.lesions)
            .map(|_| {
                let rx = dims.x as f64 * rng.range(0.05..0.12) * growth;
                let ry = dims.y as f64 * rng.range(0.05..0.12) * growth;
                let rz = (dims.z as f64 * rng.range(0.08..0.2)).max(1.0) * growth;
                Lesion {
                    center: [
                        rng.range(0.2..0.8) * dims.x as f64,
                        rng.range(0.2..0.8) * dims.y as f64,
                        rng.range(0.2..0.8) * dims.z as f64,
                    ],
                    radii: [rx, ry, rz],
                    k_in: rng.range(6.0..14.0),
                    k_out: rng.range(0.8..2.5),
                    onset: rng.range(0.05..0.25),
                }
            })
            .collect();
        Self {
            texture,
            perfusion,
            lesions,
            noise: rng,
            margin: cfg.noise_sigma.abs() * FAST_NOISE_ERROR + ROUNDING_MARGIN,
        }
    }
}

/// Fills `out` with the time steps `steps` of `study`. The `(y, z)` rows are
/// split into at most `threads` shares of consecutive rows, and each thread
/// fills its share in every time step.
fn render(cfg: &SynthConfig, study: &Study, steps: Range<usize>, threads: usize, out: &mut [u16]) {
    let dims = cfg.dims;
    let sheet = dims.x * dims.y * dims.z;
    assert_eq!(out.len(), steps.len() * sheet, "one sheet per time step");
    if out.is_empty() {
        // A zero extent or no time step: there is nothing to fill, and
        // `chunks_mut(0)` panics.
        return;
    }
    // Per time step: `base_intensity · tissue_enh`, then each lesion's
    // enhancement — the only terms that depend on `t`.
    let kinetics: Vec<f64> = steps
        .clone()
        .flat_map(|t| {
            let tau = if dims.t > 1 {
                t as f64 / (dims.t - 1) as f64
            } else {
                0.0
            };
            // Healthy tissue enhances mildly and slowly.
            let tissue_enh = 0.15 * (1.0 - (-3.0 * tau).exp());
            let lesions = study.lesions.iter().map(move |l| l.enhancement(tau));
            std::iter::once(cfg.base_intensity * tissue_enh).chain(lesions)
        })
        .collect();
    let tables = XTables {
        texture: study.texture.x_cells(dims.x),
        perfusion: study.perfusion.x_cells(dims.x),
        lesions: study
            .lesions
            .iter()
            .flat_map(|l| (0..dims.x).map(|x| l.axis_term(0, x as f64)))
            .collect(),
    };
    let rows = dims.y * dims.z;
    let share = rows.div_ceil(threads.max(1));
    // Share `i`: rows `i·share..` of every time step, one slice per step.
    let mut shares: Vec<Vec<&mut [u16]>> = (0..rows.div_ceil(share))
        .map(|_| Vec::with_capacity(steps.len()))
        .collect();
    for step in out.chunks_mut(sheet) {
        for (slices, rows) in shares.iter_mut().zip(step.chunks_mut(share * dims.x)) {
            slices.push(rows);
        }
    }
    let (kinetics, tables) = (&kinetics, &tables);
    std::thread::scope(|s| {
        for (i, slices) in shares.into_iter().enumerate() {
            let row0 = i * share;
            s.spawn(move || render_rows(cfg, study, tables, kinetics, steps.start, row0, slices));
        }
    });
}

/// What a render evaluates once along `x`: each `x`'s lattice cell in both
/// value-noise fields, and each lesion's `x` term (lesion-major: lesion `l`'s
/// term at `x` is `lesions[l · dims.x + x]`).
struct XTables {
    texture: Vec<Cell>,
    perfusion: Vec<Cell>,
    lesions: Vec<f64>,
}

/// Fills `steps`, the rows from `row0` on (row `z · dims.y + y`) of
/// consecutive time steps from `t0` on. Each row's terms are evaluated once
/// into row buffers and applied to every time step. A row of a time step is
/// filled in passes: its Box–Muller draws, the fast `g`, then each voxel's
/// sum in the order of the per-voxel formula `base + amplitude · texture +
/// (base · tissue_enh) · perf`, then each lesion's `(intensity · m) ·
/// enhancement` where `m > 0`, then the noise; a voxel the fast `g` leaves
/// undecided is summed again with [`gaussian`] (module doc, "Noise").
fn render_rows(
    cfg: &SynthConfig,
    study: &Study,
    tables: &XTables,
    kinetics: &[f64],
    t0: usize,
    row0: usize,
    mut steps: Vec<&mut [u16]>,
) {
    let dims = cfg.dims;
    let sheet = dims.x * dims.y * dims.z;
    let per_step = 1 + study.lesions.len();
    let mut tissue = vec![0.0; dims.x];
    let mut perf = vec![0.0; dims.x];
    // Lesion-major, as `tables.lesions`.
    let mut member = vec![0.0; dims.x * study.lesions.len()];
    // Per time step: the draws `u1` (overwritten by the fast `g`) and `u2`,
    // and the voxels' sums before the noise.
    let mut g = vec![0.0; dims.x];
    let mut u2 = vec![0.0; dims.x];
    let mut sum = vec![0.0; dims.x];
    for r in 0..steps[0].len() / dims.x {
        let row = row0 + r;
        let (y, z) = (row % dims.y, row / dims.y);
        study.texture.row(&tables.texture, y, z, &mut tissue);
        for v in &mut tissue {
            *v = cfg.base_intensity + cfg.texture_amplitude * *v;
        }
        study.perfusion.row(&tables.perfusion, y, z, &mut perf);
        for v in &mut perf {
            *v = 0.5 * (*v + 1.0);
        }
        let lesions = study.lesions.iter().zip(tables.lesions.chunks(dims.x));
        for ((lesion, x_terms), m) in lesions.zip(member.chunks_mut(dims.x)) {
            lesion.row(x_terms, y, z, m);
        }
        for (dt, step) in steps.iter_mut().enumerate() {
            let (base_enh, lesion_enh) = kinetics[dt * per_step..][..per_step]
                .split_first()
                .expect("a time step has its tissue term");
            let first_draw = 2 * ((t0 + dt) * sheet + row * dims.x) as u64;
            let mut rng = study.noise.skip(first_draw);
            for (u1, u2) in g.iter_mut().zip(&mut u2) {
                *u1 = rng.unit().max(1e-12);
                *u2 = rng.unit();
            }
            for (g, &u2) in g.iter_mut().zip(&u2) {
                *g = fast_box_muller(*g, u2);
            }
            for ((v, &tissue), &perf) in sum.iter_mut().zip(&tissue).zip(&perf) {
                *v = tissue + base_enh * perf;
            }
            for (enh, member) in lesion_enh.iter().zip(member.chunks(dims.x)) {
                for (v, &m) in sum.iter_mut().zip(member) {
                    if m > 0.0 {
                        *v += cfg.lesion_intensity * m * enh;
                    }
                }
            }
            let out = &mut step[r * dims.x..][..dims.x];
            for (x, (out, &v)) in out.iter_mut().zip(&sum).enumerate() {
                *out = decided(v + cfg.noise_sigma * g[x], study.margin).unwrap_or_else(|| {
                    let mut rng = study.noise.skip(first_draw + 2 * x as u64);
                    to_u16(v + cfg.noise_sigma * gaussian(&mut rng))
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haralick::coocc::CoMatrix;
    use haralick::direction::DirectionSet;
    use haralick::roi::RoiShape;
    use haralick::sparse::SparseCoMatrix;
    use haralick::volume::Region4;

    /// The sequential voxel loop `render` replaced, kept as its oracle: every
    /// term evaluated per voxel, the draws made one after another.
    fn sequential(cfg: &SynthConfig, growth: f64) -> (RawVolume, Vec<Lesion>) {
        let Study {
            texture: noise,
            perfusion,
            lesions,
            noise: mut rng,
            ..
        } = Study::draw(cfg, growth);
        let dims = cfg.dims;
        let mut data = Vec::with_capacity(dims.len());
        for t in 0..dims.t {
            let tau = if dims.t > 1 {
                t as f64 / (dims.t - 1) as f64
            } else {
                0.0
            };
            let tissue_enh = 0.15 * (1.0 - (-3.0 * tau).exp());
            for z in 0..dims.z {
                for y in 0..dims.y {
                    for x in 0..dims.x {
                        let (xf, yf, zf) = (x as f64, y as f64, z as f64);
                        let texture = noise.at(xf, yf, zf);
                        let perf = 0.5 * (perfusion.at(xf, yf, zf) + 1.0);
                        let mut v = cfg.base_intensity
                            + cfg.texture_amplitude * texture
                            + cfg.base_intensity * tissue_enh * perf;
                        for lesion in &lesions {
                            let m = lesion.membership(xf, yf, zf);
                            if m > 0.0 {
                                v += cfg.lesion_intensity * m * lesion.enhancement(tau);
                            }
                        }
                        v += cfg.noise_sigma * gaussian(&mut rng);
                        data.push(v.clamp(0.0, f64::from(u16::MAX)) as u16);
                    }
                }
            }
        }
        (RawVolume::new(dims, data), lesions)
    }

    #[test]
    fn splitmix64_reference_vector() {
        // First outputs of SplitMix64 from state 0 (Vigna's reference
        // implementation); `skip` lands where the draws would.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(SplitMix64::new(0).skip(2).next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn test_scale_study_is_pinned() {
        // `volume_digest` of the seed-7 test study as the sequential
        // generator over the benchmark's `rand` stand-in produced it.
        let v = generate(&SynthConfig::test_scale(7));
        assert_eq!(crate::digest::volume_digest(&v), 0x7069_fcc2_44b4_9055);
    }

    /// `study`'s time steps `steps`, rendered on `threads` threads.
    fn rendered(cfg: &SynthConfig, study: &Study, steps: Range<usize>, threads: usize) -> Vec<u16> {
        let dims = cfg.dims;
        let mut out = vec![0; steps.len() * dims.x * dims.y * dims.z];
        render(cfg, study, steps, threads, &mut out);
        out
    }

    /// Shapes whose row counts (`y · z`: 512, 120, 45, 3 and 1) leave a
    /// remainder at most thread counts from 1 to 7, and fall below them.
    fn split_cases() -> Vec<SynthConfig> {
        let shaped = |x, y, z, t, lesions| SynthConfig {
            dims: Dims4::new(x, y, z, t),
            lesions,
            ..SynthConfig::test_scale(11)
        };
        vec![
            SynthConfig::test_scale(7),
            // τ = 0 throughout.
            shaped(24, 20, 6, 1, 2),
            shaped(24, 20, 6, 3, 2),
            shaped(24, 20, 6, 5, 2),
            shaped(24, 20, 6, 7, 2),
            // Odd extents, and lesion counts at both ends.
            shaped(13, 9, 5, 4, 0),
            shaped(13, 9, 5, 4, 4),
            // Fewer rows than threads.
            shaped(13, 3, 1, 4, 2),
            shaped(13, 1, 1, 4, 2),
        ]
    }

    /// Renders every time step of `study` on 1 to 7 threads, at once and one
    /// time step at a time, and compares each with `expect`.
    fn assert_every_split(cfg: &SynthConfig, study: &Study, expect: &[u16]) {
        let dims = cfg.dims;
        let sheet = dims.x * dims.y * dims.z;
        for threads in 1..=7 {
            let got = rendered(cfg, study, 0..dims.t, threads);
            assert!(got == expect, "{:?}, {threads} threads", dims);
            for t in 0..dims.t {
                let got = rendered(cfg, study, t..t + 1, threads);
                assert!(
                    got == expect[t * sheet..][..sheet],
                    "{:?}, {threads} threads, time step {t} alone",
                    dims
                );
            }
        }
    }

    #[test]
    fn every_split_equals_the_sequential_loop() {
        for cfg in &split_cases() {
            let (expect, _) = sequential(cfg, 1.0);
            assert!(generate(cfg) == expect, "{:?}", cfg.dims);
            assert_every_split(cfg, &Study::draw(cfg, 1.0), expect.as_slice());
        }
        let base = SynthConfig::test_scale(7);
        assert!(generate_followup(&base, 1.3) == sequential(&base, 1.3));
    }

    #[test]
    fn every_voxel_down_the_exact_path_equals_the_sequential_loop() {
        // The cases of `every_split_equals_the_sequential_loop`, with a
        // margin no fast sum meets: every voxel is summed again by
        // `gaussian` from its own two draws.
        for cfg in &split_cases() {
            let (expect, _) = sequential(cfg, 1.0);
            let mut study = Study::draw(cfg, 1.0);
            study.margin = f64::INFINITY;
            assert_every_split(cfg, &study, expect.as_slice());
        }
    }

    #[test]
    fn row_evaluators_equal_the_point_evaluators() {
        // Value noise: lattice periods below the clamp to 2, at it, and longer
        // than the volume, at coordinates that run past the volume until both
        // lattice indices of every axis are clamped.
        let mut rng = SplitMix64::new(0x7AB1E);
        for (dims, scale) in [
            (Dims4::new(13, 9, 5, 1), 1),
            (Dims4::new(24, 20, 6, 1), 2),
            (Dims4::new(20, 7, 3, 1), 16),
        ] {
            let field = ValueNoise::new(dims, scale, &mut rng);
            let past = |n: usize| (n / scale.max(2) + 3) * scale.max(2);
            let cells = field.x_cells(past(dims.x));
            assert!(cells.iter().any(|c| c.lo == c.hi), "no x reaches the clamp");
            let mut row = vec![0.0; cells.len()];
            for z in 0..past(dims.z) {
                for y in 0..past(dims.y) {
                    field.row(&cells, y, z, &mut row);
                    for (x, v) in row.iter().enumerate() {
                        let expect = field.at(x as f64, y as f64, z as f64);
                        assert_eq!(
                            v.to_bits(),
                            expect.to_bits(),
                            "{dims:?}/{scale} at ({x}, {y}, {z})"
                        );
                    }
                }
            }
        }
        // Lesions: every voxel of a few studies and a margin around it.
        let mut inside = 0;
        for (cfg, growth) in [
            (SynthConfig::test_scale(7), 1.0),
            (
                SynthConfig {
                    dims: Dims4::new(13, 9, 5, 1),
                    lesions: 4,
                    ..SynthConfig::test_scale(11)
                },
                1.3,
            ),
        ] {
            let (ex, ey, ez) = (cfg.dims.x + 4, cfg.dims.y + 4, cfg.dims.z + 4);
            for lesion in Study::draw(&cfg, growth).lesions {
                let x_terms: Vec<f64> = (0..ex).map(|x| lesion.axis_term(0, x as f64)).collect();
                let mut row = vec![0.0; ex];
                for z in 0..ez {
                    for y in 0..ey {
                        lesion.row(&x_terms, y, z, &mut row);
                        for (x, m) in row.iter().enumerate() {
                            let expect = lesion.membership(x as f64, y as f64, z as f64);
                            assert_eq!(
                                m.to_bits(),
                                expect.to_bits(),
                                "{lesion:?} at ({x}, {y}, {z})"
                            );
                            inside += usize::from(expect > 0.0);
                        }
                    }
                }
            }
        }
        assert!(inside > 0, "no voxel inside a lesion");
    }

    #[test]
    fn extreme_noise_equals_the_sequential_loop() {
        // No noise, noise that clamps most voxels, and noise whose margin is
        // not finite, which sends every voxel down the exact path.
        for noise_sigma in [0.0, -5.0, 1e6, f64::INFINITY, f64::NAN] {
            let cfg = SynthConfig {
                dims: Dims4::new(13, 9, 5, 4),
                noise_sigma,
                ..SynthConfig::test_scale(11)
            };
            let (expect, _) = sequential(&cfg, 1.0);
            assert!(generate(&cfg) == expect, "noise_sigma {noise_sigma}");
        }
    }

    #[test]
    fn fast_box_muller_is_within_its_bound() {
        let check = |u1: f64, u2: f64| {
            let d = (fast_box_muller(u1, u2) - box_muller(u1, u2)).abs();
            assert!(d <= FAST_NOISE_ERROR, "u1 {u1:e}, u2 {u2:e}: |Δ| = {d:e}");
        };
        let mut rng = SplitMix64::new(0x5EED);
        for _ in 0..1_000_000 {
            let u1 = rng.unit().max(1e-12);
            check(u1, rng.unit());
        }
        // `u1` at the clamp, just below 1 and around each split of its
        // mantissa (`√½·2^-k`); `u2` at 0, around every `k/8` and just below 1.
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let mut u1s = vec![1e-12, below_one];
        for k in 0..40 {
            let split = std::f64::consts::FRAC_1_SQRT_2 * 0.5f64.powi(k);
            u1s.extend([split.next_down(), split, split.next_up()]);
        }
        let mut u2s = vec![0.0, 0.0f64.next_up(), below_one];
        for k in 1..8 {
            let at = f64::from(k) / 8.0;
            u2s.extend([at.next_down(), at, at.next_up()]);
        }
        for &u1 in &u1s {
            for &u2 in &u2s {
                check(u1, u2);
            }
        }
    }

    #[test]
    fn zero_extent_is_an_empty_volume() {
        for dims in [Dims4::new(0, 8, 4, 4), Dims4::new(8, 8, 4, 0)] {
            let cfg = SynthConfig {
                dims,
                ..SynthConfig::test_scale(7)
            };
            let v = generate(&cfg);
            assert_eq!(v.dims(), dims);
            assert!(v.as_slice().is_empty());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = SynthConfig::test_scale(7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b, "same seed must generate identical data");
        let c = generate(&SynthConfig::test_scale(8));
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn intensities_in_plausible_range() {
        let v = generate(&SynthConfig::test_scale(1));
        let max = *v.as_slice().iter().max().unwrap();
        let min = *v.as_slice().iter().min().unwrap();
        assert!(max < 8000, "intensity ceiling blown: {max}");
        assert!(min > 0, "negative/zero floor clamped: {min}");
    }

    #[test]
    fn lesions_enhance_over_time() {
        // Mean intensity should rise from the first time step to the middle
        // of the study (wash-in dominates early).
        let cfg = SynthConfig::test_scale(3);
        let v = generate(&cfg);
        let d = cfg.dims;
        let mean_t = |t: usize| -> f64 {
            let mut s = 0.0;
            for z in 0..d.z {
                for &px in v.slice_2d(z, t) {
                    s += f64::from(px);
                }
            }
            s / (d.x * d.y * d.z) as f64
        };
        assert!(
            mean_t(d.t / 2) > mean_t(0) + 1.0,
            "no visible contrast enhancement"
        );
    }

    #[test]
    fn enhancement_curve_shape() {
        let l = Lesion {
            center: [0.0; 3],
            radii: [1.0; 3],
            k_in: 10.0,
            k_out: 1.5,
            onset: 0.1,
        };
        assert_eq!(l.enhancement(0.0), 0.0, "no uptake before onset");
        let peak_region = l.enhancement(0.35);
        let late = l.enhancement(1.0);
        assert!(peak_region > 0.5, "wash-in too weak: {peak_region}");
        assert!(late < peak_region, "no wash-out: {late} >= {peak_region}");
    }

    #[test]
    fn membership_is_bounded_and_local() {
        let l = Lesion {
            center: [10.0, 10.0, 5.0],
            radii: [3.0, 3.0, 2.0],
            k_in: 8.0,
            k_out: 1.0,
            onset: 0.1,
        };
        assert!((l.membership(10.0, 10.0, 5.0) - 1.0).abs() < 1e-12);
        assert_eq!(l.membership(20.0, 10.0, 5.0), 0.0);
        for d in 0..30 {
            let m = l.membership(10.0 + d as f64 / 10.0, 10.0, 5.0);
            assert!((0.0..=1.0).contains(&m));
        }
    }

    #[test]
    fn paper_roi_cooccurrence_is_sparse() {
        // The reproduction hinges on matching the paper's sparsity regime:
        // ~1% of a 32x32 matrix non-zero for a typical ROI.
        let cfg = SynthConfig::test_scale(42);
        let raw = generate(&cfg);
        let vol = raw.quantize_min_max(32);
        let roi = RoiShape::paper_default();
        let dirs = DirectionSet::all_unique_4d(1);
        let mut total_nnz = 0usize;
        let mut n = 0usize;
        for (i, origin) in roi.output_dims(vol.dims()).region().points().enumerate() {
            if i % 997 != 0 {
                continue; // sample placements
            }
            let m = CoMatrix::from_region(&vol, Region4::new(origin, roi.size()), &dirs);
            total_nnz += SparseCoMatrix::from_dense(&m).nnz();
            n += 1;
        }
        let avg = total_nnz as f64 / n as f64;
        assert!(
            avg < 60.0,
            "average nnz {avg:.1} too dense to reproduce the paper's sparse regime"
        );
        assert!(
            avg > 3.0,
            "degenerate (near-constant) phantom: avg nnz {avg:.1}"
        );
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SplitMix64::new(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
