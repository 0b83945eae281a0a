//! Analytic validation of the fourteen Haralick features on distributions
//! whose values can be derived by hand.
//!
//! Each case constructs an image whose co-occurrence distribution is known
//! in closed form, derives the feature values on paper (see the comments),
//! and checks the implementation against them.
//!
//! The golden cases go further: a hand-written count matrix is evaluated by
//! [`textbook`], a direct transcription of Haralick's (1973) definitions
//! over the dense probability matrix that shares no code with
//! `haralick::features`, and all fourteen features are compared at `1e-12`
//! on every path the crate offers — the three statistics constructors and
//! both scan engines under all four representations.
//!
//! The 4-D cases, a checkerboard and a ramp over several directions, carry
//! their matrix entries and five feature values as hand-derived literals,
//! checked on both engines' `Full` and `Sparse` paths: an oracle for the
//! reference engine's pair count that no code of the crate computes.

use haralick::coocc::CoMatrix;
use haralick::direction::{Direction, DirectionSet};
use haralick::features::{compute_features, Feature, FeatureSelection, FeatureVector, MatrixStats};
use haralick::raster::{
    scan_placements, scan_placements_with, Representation, ScanConfig, ScanEngine, TSlidePolicy,
};
use haralick::roi::RoiShape;
use haralick::sparse::SparseCoMatrix;
use haralick::volume::{Dims4, LevelVolume, Point4};

fn features_of(img: Vec<u8>, w: usize, ng: u16, d: Direction) -> FeatureVector {
    let vol = LevelVolume::from_raw(Dims4::new(w, img.len() / w, 1, 1), img, ng).unwrap();
    let m = CoMatrix::from_region(&vol, vol.full_region(), &DirectionSet::single(d));
    compute_features(&m.stats_checked(), &FeatureSelection::all())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-10
}

/// Haralick's fourteen features, f1..f14, evaluated straight from their
/// definitions over the dense normalized matrix `p` (`p[i][j]`, 0-based
/// levels, natural logarithms, `0 · ln 0 = 0`). Where a definition divides
/// by zero — correlation of a constant region, IMC1 with `HX = HY = 0`,
/// MCC with fewer than two occupied levels — the value is 0, the crate's
/// documented convention.
#[allow(clippy::needless_range_loop)]
fn textbook(p: &[Vec<f64>]) -> [f64; 14] {
    let n = p.len();
    let plogp = |v: f64| if v > 0.0 { v * v.ln() } else { 0.0 };
    let px: Vec<f64> = (0..n).map(|i| (0..n).map(|j| p[i][j]).sum()).collect();
    let py: Vec<f64> = (0..n).map(|j| (0..n).map(|i| p[i][j]).sum()).collect();
    let mean = |m: &[f64]| (0..m.len()).map(|i| i as f64 * m[i]).sum::<f64>();
    let (mux, muy) = (mean(&px), mean(&py));
    let var = |m: &[f64], mu: f64| {
        (0..m.len())
            .map(|i| (i as f64 - mu).powi(2) * m[i])
            .sum::<f64>()
    };
    let (sx, sy) = (var(&px, mux).sqrt(), var(&py, muy).sqrt());
    let mut p_sum = vec![0.0; 2 * n - 1];
    let mut p_diff = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            p_sum[i + j] += p[i][j];
            p_diff[i.abs_diff(j)] += p[i][j];
        }
    }
    let cells = || (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));

    let f1 = cells().map(|(i, j)| p[i][j] * p[i][j]).sum::<f64>();
    let f2 = (0..n).map(|k| (k * k) as f64 * p_diff[k]).sum::<f64>();
    let f3 = if sx * sy == 0.0 {
        0.0
    } else {
        (cells().map(|(i, j)| (i * j) as f64 * p[i][j]).sum::<f64>() - mux * muy) / (sx * sy)
    };
    let f4 = cells()
        .map(|(i, j)| (i as f64 - mux).powi(2) * p[i][j])
        .sum::<f64>();
    let f5 = cells()
        .map(|(i, j)| p[i][j] / (1.0 + (i as f64 - j as f64).powi(2)))
        .sum::<f64>();
    let f6 = mean(&p_sum);
    let f7 = var(&p_sum, f6);
    let f8 = -p_sum.iter().map(|&v| plogp(v)).sum::<f64>();
    let f9 = -cells().map(|(i, j)| plogp(p[i][j])).sum::<f64>();
    let f10 = var(&p_diff, mean(&p_diff));
    let f11 = -p_diff.iter().map(|&v| plogp(v)).sum::<f64>();
    let hx = -px.iter().map(|&v| plogp(v)).sum::<f64>();
    let hy = -py.iter().map(|&v| plogp(v)).sum::<f64>();
    let hxy1 = -cells()
        .filter(|&(i, j)| p[i][j] > 0.0)
        .map(|(i, j)| p[i][j] * (px[i] * py[j]).ln())
        .sum::<f64>();
    let hxy2 = -cells().map(|(i, j)| plogp(px[i] * py[j])).sum::<f64>();
    let f12 = if hx.max(hy) == 0.0 {
        0.0
    } else {
        (f9 - hxy1) / hx.max(hy)
    };
    let f13 = (1.0 - (-2.0 * (hxy2 - f9)).exp()).sqrt();
    [
        f1,
        f2,
        f3,
        f4,
        f5,
        f6,
        f7,
        f8,
        f9,
        f10,
        f11,
        f12,
        f13,
        second_eigenvalue_of_q(p, &px, &py).sqrt(),
    ]
}

/// The second largest eigenvalue of Haralick's
/// `Q(i, j) = Σ_k p(i,k) p(j,k) / (px(i) py(k))` over the occupied levels,
/// 0 when fewer than two levels are occupied. `Q` is similar to the
/// symmetric `B = D^{1/2} Q D^{-1/2}` (`D = diag(px)`), whose eigenvalues
/// cyclic Jacobi rotations find.
#[allow(clippy::needless_range_loop)]
fn second_eigenvalue_of_q(p: &[Vec<f64>], px: &[f64], py: &[f64]) -> f64 {
    let occupied: Vec<usize> = (0..p.len()).filter(|&i| px[i] > 0.0).collect();
    let s = occupied.len();
    if s < 2 {
        return 0.0;
    }
    let mut b = vec![vec![0.0; s]; s];
    for (r, &i) in occupied.iter().enumerate() {
        for (c, &j) in occupied.iter().enumerate() {
            let q: f64 = (0..p.len())
                .filter(|&k| py[k] > 0.0)
                .map(|k| p[i][k] * p[j][k] / (px[i] * py[k]))
                .sum();
            b[r][c] = q * (px[i] / px[j]).sqrt();
        }
    }
    // Q is only similar to a symmetric matrix; average out rounding.
    for r in 0..s {
        for c in r + 1..s {
            let v = 0.5 * (b[r][c] + b[c][r]);
            b[r][c] = v;
            b[c][r] = v;
        }
    }
    for _sweep in 0..100 {
        let off: f64 = (0..s)
            .flat_map(|r| (r + 1..s).map(move |c| (r, c)))
            .map(|(r, c)| b[r][c] * b[r][c])
            .sum();
        if off == 0.0 {
            break;
        }
        for r in 0..s {
            for c in r + 1..s {
                if b[r][c] == 0.0 {
                    continue;
                }
                let theta = (b[c][c] - b[r][r]) / (2.0 * b[r][c]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let cos = 1.0 / (t * t + 1.0).sqrt();
                let sin = t * cos;
                for k in 0..s {
                    let (bkr, bkc) = (b[k][r], b[k][c]);
                    b[k][r] = cos * bkr - sin * bkc;
                    b[k][c] = sin * bkr + cos * bkc;
                }
                for k in 0..s {
                    let (brk, bck) = (b[r][k], b[c][k]);
                    b[r][k] = cos * brk - sin * bck;
                    b[c][k] = sin * brk + cos * bck;
                }
            }
        }
    }
    let mut eig: Vec<f64> = (0..s).map(|r| b[r][r]).collect();
    eig.sort_by(|x, y| y.total_cmp(x));
    eig[1].max(0.0)
}

/// A golden case: a 2-D image, the displacement it is read along, and its
/// symmetric count matrix written out by hand as upper-triangle
/// `(i, j, C(i, j))` entries (the mirror `C(j, i)` is implied).
struct Golden {
    img: Vec<u8>,
    width: usize,
    levels: u16,
    direction: Direction,
    upper: Vec<(usize, usize, u32)>,
}

impl Golden {
    /// Checks the image yields the hand-written matrix, evaluates
    /// [`textbook`] on it, and compares all fourteen features on every
    /// statistics constructor and on both engines under every
    /// representation (one placement, the window covering the image).
    fn check(&self, what: &str) {
        let ng = self.levels as usize;
        let dims = Dims4::new(self.width, self.img.len() / self.width, 1, 1);
        let vol = LevelVolume::from_raw(dims, self.img.clone(), self.levels).unwrap();
        let dirs = DirectionSet::single(self.direction);
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        let mut counts = vec![vec![0u32; ng]; ng];
        for &(i, j, c) in &self.upper {
            counts[i][j] = c;
            counts[j][i] = c;
        }
        for (i, row) in counts.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                assert_eq!(m.count(i, j), c, "{what}: hand-written C({i}, {j})");
            }
        }
        let r: u32 = counts.iter().flatten().sum();
        let p: Vec<Vec<f64>> = counts
            .iter()
            .map(|row| row.iter().map(|&c| f64::from(c) / f64::from(r)).collect())
            .collect();
        let want = textbook(&p);

        let all = FeatureSelection::all();
        let sparse = SparseCoMatrix::from_dense(&m);
        let mut paths: Vec<(String, Vec<f64>)> = [
            ("stats_checked", m.stats_checked()),
            ("stats_naive", m.stats_naive()),
            ("from_sparse", MatrixStats::from_sparse(&sparse)),
        ]
        .into_iter()
        .map(|(path, stats)| (path.into(), compute_features(&stats, &all).dense(&all)))
        .collect();
        for engine in [ScanEngine::Reference, ScanEngine::Fused] {
            for representation in [
                Representation::FullNaive,
                Representation::Full,
                Representation::Sparse,
                Representation::SparseAccum,
            ] {
                let cfg = ScanConfig {
                    roi: RoiShape::new(dims),
                    directions: dirs.clone(),
                    selection: all,
                    representation,
                    engine,
                    t_slide: TSlidePolicy::Auto,
                };
                let maps = scan_placements(&vol, &cfg, Point4::ZERO, Dims4::new(1, 1, 1, 1));
                paths.push((
                    format!("{engine:?}/{representation:?}"),
                    maps.values_at(Point4::ZERO).to_vec(),
                ));
            }
        }
        for (path, got) in paths {
            for (k, feature) in Feature::ALL.into_iter().enumerate() {
                assert!(
                    (got[k] - want[k]).abs() < 1e-12,
                    "{what}, {path}: {feature:?} is {}, the textbook gives {}",
                    got[k],
                    want[k]
                );
            }
        }
    }
}

/// Haralick's (1973) 4x4 worked example read at 0°, distance 1, and its
/// published symmetric matrix `[[4,2,1,0],[2,4,0,0],[1,0,6,1],[0,0,1,2]]`,
/// `R = 24`: all fourteen features on every path.
#[test]
fn haralick_1973_example_features() {
    Golden {
        img: vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 2, 2, 2, 2, 2, 3, 3],
        width: 4,
        levels: 4,
        direction: Direction::new(1, 0, 0, 0),
        upper: vec![
            (0, 0, 4),
            (0, 1, 2),
            (0, 2, 1),
            (1, 1, 4),
            (2, 2, 6),
            (2, 3, 1),
            (3, 3, 2),
        ],
    }
    .check("Haralick 1973");
}

/// A hand-built three-level matrix with mass on every cell, spread over
/// `|i − j|` = 0, 1 and 2. The 1-D sequence 0 0 0 1 2 1 1 2 2 2 0 2 1 0
/// holds 13 horizontal pairs: {0,0} ×2, {0,1} ×2, {0,2} ×2, {1,1} ×1,
/// {1,2} ×4, {2,2} ×2, so `C = [[4,2,2],[2,2,4],[2,4,4]]`, `R = 26`.
#[test]
fn hand_built_three_level_matrix_matches_the_textbook() {
    Golden {
        img: vec![0, 0, 0, 1, 2, 1, 1, 2, 2, 2, 0, 2, 1, 0],
        width: 14,
        levels: 3,
        direction: Direction::new(1, 0, 0, 0),
        upper: vec![
            (0, 0, 4),
            (0, 1, 2),
            (0, 2, 2),
            (1, 1, 2),
            (1, 2, 4),
            (2, 2, 4),
        ],
    }
    .check("hand-built 3x3");
}

/// The closed-form cases below, through the golden harness: alternating
/// stripes (`C(0,1) = 56`), a constant image (`C(3,3) = 60`) and constant
/// rows cycling four levels (`C(g,g) = 28`).
#[test]
fn stripes_and_constant_cases_match_the_textbook_on_every_path() {
    let stripes: Vec<u8> = (0..64).map(|i| ((i % 8) % 2) as u8).collect();
    let rows: Vec<u8> = (0..64).map(|i| ((i / 8) % 4) as u8).collect();
    for (what, img, width, levels, upper) in [
        ("stripes", stripes, 8, 2, vec![(0, 1, 56)]),
        ("constant", vec![3; 36], 6, 8, vec![(3, 3, 60)]),
        (
            "constant rows",
            rows,
            8,
            4,
            (0..4).map(|g| (g, g, 28)).collect(),
        ),
    ] {
        Golden {
            img,
            width,
            levels,
            direction: Direction::new(1, 0, 0, 0),
            upper,
        }
        .check(what);
    }
}

/// Uniform two-level stripes of width 1 along x, horizontal displacement:
/// every pair is (0,1) or (1,0) → p(0,1) = p(1,0) = 1/2.
///
/// Derivations (natural logs, 0-based levels):
///   ASM  = 2 · (1/2)² = 1/2
///   Contrast = 1² · (p(0,1)+p(1,0)) = 1
///   μx = 1/2, σx² = 1/4; Σij·p = 0 → Correlation = (0 − 1/4)/(1/4) = −1
///   SumOfSquares = σx² = 1/4
///   IDM = (1/2 + 1/2)/(1+1) = 1/2
///   p_{x+y}: all mass at k=1 → SA = 1, SV = 0, SE = 0
///   Entropy = −2·(1/2)·ln(1/2) = ln 2
///   p_{x-y}: all mass at k=1 → DV = 0, DE = 0
///   HX = HY = ln 2; HXY1 = −Σ p·ln(px·py) = −ln(1/4) = 2ln2... per-entry:
///     each of the two entries contributes −(1/2)ln(1/4) → HXY1 = 2 ln 2
///   IMC1 = (HXY − HXY1)/HX = (ln2 − 2ln2)/ln2 = −1
///   HXY2 = −Σ px·py·ln(px·py) over support = 4·(1/4)·ln 4 = 2 ln 2
///   IMC2 = sqrt(1 − e^{−2(2ln2 − ln2)}) = sqrt(1 − 1/4) = sqrt(3)/2
///   MCC: deterministic level mapping → 1
#[test]
fn alternating_stripes_full_closed_form() {
    let img: Vec<u8> = (0..64).map(|i| ((i % 8) % 2) as u8).collect();
    let f = features_of(img, 8, 2, Direction::new(1, 0, 0, 0));
    let ln2 = std::f64::consts::LN_2;
    assert!(close(f.get(Feature::AngularSecondMoment).unwrap(), 0.5));
    assert!(close(f.get(Feature::Contrast).unwrap(), 1.0));
    assert!(close(f.get(Feature::Correlation).unwrap(), -1.0));
    assert!(close(f.get(Feature::SumOfSquares).unwrap(), 0.25));
    assert!(close(f.get(Feature::InverseDifferenceMoment).unwrap(), 0.5));
    assert!(close(f.get(Feature::SumAverage).unwrap(), 1.0));
    assert!(close(f.get(Feature::SumVariance).unwrap(), 0.0));
    assert!(close(f.get(Feature::SumEntropy).unwrap(), 0.0));
    assert!(close(f.get(Feature::Entropy).unwrap(), ln2));
    assert!(close(f.get(Feature::DifferenceVariance).unwrap(), 0.0));
    assert!(close(f.get(Feature::DifferenceEntropy).unwrap(), 0.0));
    assert!(close(
        f.get(Feature::InfoMeasureCorrelation1).unwrap(),
        -1.0
    ));
    assert!(close(
        f.get(Feature::InfoMeasureCorrelation2).unwrap(),
        (3.0f64).sqrt() / 2.0
    ));
    assert!((f.get(Feature::MaximalCorrelationCoefficient).unwrap() - 1.0).abs() < 1e-9);
}

/// Constant image: single level g. p(g,g) = 1.
///   ASM = 1, Contrast = 0, SumOfSquares = 0 (σ = 0), IDM = 1,
///   SA = 2g, SV = 0, SE = 0, Entropy = 0, DV = DE = 0,
///   degenerate Correlation/IMC1 → 0 by convention, IMC2 = 0, MCC = 0.
#[test]
fn constant_image_closed_form() {
    let f = features_of(vec![3; 36], 6, 8, Direction::new(1, 0, 0, 0));
    assert!(close(f.get(Feature::AngularSecondMoment).unwrap(), 1.0));
    assert!(close(f.get(Feature::Contrast).unwrap(), 0.0));
    assert!(close(f.get(Feature::Correlation).unwrap(), 0.0));
    assert!(close(f.get(Feature::SumOfSquares).unwrap(), 0.0));
    assert!(close(f.get(Feature::InverseDifferenceMoment).unwrap(), 1.0));
    assert!(close(f.get(Feature::SumAverage).unwrap(), 6.0));
    assert!(close(f.get(Feature::SumVariance).unwrap(), 0.0));
    assert!(close(f.get(Feature::SumEntropy).unwrap(), 0.0));
    assert!(close(f.get(Feature::Entropy).unwrap(), 0.0));
    assert!(close(f.get(Feature::DifferenceVariance).unwrap(), 0.0));
    assert!(close(f.get(Feature::DifferenceEntropy).unwrap(), 0.0));
    assert!(close(f.get(Feature::InfoMeasureCorrelation1).unwrap(), 0.0));
    assert!(close(f.get(Feature::InfoMeasureCorrelation2).unwrap(), 0.0));
    assert!(close(
        f.get(Feature::MaximalCorrelationCoefficient).unwrap(),
        0.0
    ));
}

/// Wide stripes along y (rows of constant level, cycling 0,1,2,3),
/// HORIZONTAL displacement: every pair is (g,g) with g uniform over 4
/// levels → p(g,g) = 1/4 on the diagonal.
///   ASM = 4·(1/4)² = 1/4
///   Contrast = 0; IDM = 1; Entropy = ln 4
///   μx = 3/2, σx² = 5/4; Σij·p = (0+1+4+9)/4 = 7/2
///   Correlation = (7/2 − 9/4)/(5/4) = 1
///   SumOfSquares = 5/4
///   p_{x+y}: mass 1/4 at k = 0,2,4,6 → SA = 3, SV = (9+1+1+9)/4 = 5
///   SE = ln 4; DV = 0; DE = 0
///   HXY1: each diagonal entry contributes −(1/4)·ln(1/16) → HXY1 = ln 16
///   IMC1 = (HXY − HXY1)/HX = (ln4 − ln16)/ln4 = −1  (since ln16 = 2·ln4)
///   HXY2 = −Σᵢⱼ pxᵢ·pyⱼ·ln(pxᵢ·pyⱼ) = 16·(1/16)·ln16 = ln 16
///   IMC2 = sqrt(1 − e^{−2(ln16 − ln4)}) = sqrt(1 − 1/16) = sqrt(15)/4
///   MCC = 1 (deterministic identity mapping)
#[test]
fn constant_rows_diagonal_distribution() {
    let mut img = Vec::new();
    for row in 0..8 {
        img.extend(std::iter::repeat_n((row % 4) as u8, 8));
    }
    let f = features_of(img, 8, 4, Direction::new(1, 0, 0, 0));
    let ln4 = (4.0f64).ln();
    assert!(close(f.get(Feature::AngularSecondMoment).unwrap(), 0.25));
    assert!(close(f.get(Feature::Contrast).unwrap(), 0.0));
    assert!(close(f.get(Feature::Correlation).unwrap(), 1.0));
    assert!(close(f.get(Feature::SumOfSquares).unwrap(), 1.25));
    assert!(close(f.get(Feature::InverseDifferenceMoment).unwrap(), 1.0));
    assert!(close(f.get(Feature::SumAverage).unwrap(), 3.0));
    assert!(close(f.get(Feature::SumVariance).unwrap(), 5.0));
    assert!(close(f.get(Feature::SumEntropy).unwrap(), ln4));
    assert!(close(f.get(Feature::Entropy).unwrap(), ln4));
    assert!(close(f.get(Feature::DifferenceVariance).unwrap(), 0.0));
    assert!(close(f.get(Feature::DifferenceEntropy).unwrap(), 0.0));
    assert!(close(
        f.get(Feature::InfoMeasureCorrelation1).unwrap(),
        -1.0
    ));
    assert!(close(
        f.get(Feature::InfoMeasureCorrelation2).unwrap(),
        (15.0f64).sqrt() / 4.0
    ));
    assert!((f.get(Feature::MaximalCorrelationCoefficient).unwrap() - 1.0).abs() < 1e-9);
}

/// Displacement symmetry: scanning with distance 2 on a period-2 image
/// yields the perfectly correlated diagonal distribution (every pair equal).
#[test]
fn distance_two_realigns_periodic_texture() {
    let img: Vec<u8> = (0..64).map(|i| ((i % 8) % 2) as u8).collect();
    let d1 = features_of(img.clone(), 8, 2, Direction::new(1, 0, 0, 0));
    let d2 = features_of(img, 8, 2, Direction::new(1, 0, 0, 0).scaled(2));
    assert!(close(d1.get(Feature::Correlation).unwrap(), -1.0));
    assert!(close(d2.get(Feature::Correlation).unwrap(), 1.0));
    assert!(close(d2.get(Feature::Contrast).unwrap(), 0.0));
}

/// A 4-D volume, a direction set, and the symmetric count matrix and five
/// feature values derived for it by hand: upper-triangle `(i, j, C(i, j))`
/// entries in ascending order, then ASM, contrast, correlation, sum of
/// squares and IDM.
struct Golden4 {
    dims: Dims4,
    levels: u16,
    level_at: fn(Point4) -> u8,
    directions: Vec<Direction>,
    upper: Vec<(u8, u8, u32)>,
    features: [f64; 5],
}

impl Golden4 {
    /// Scans the one placement whose window is the whole volume under
    /// `Reference` `Full` and `Sparse` and under `Fused` `Full` and
    /// `Sparse`, and compares each path's matrix entries with the
    /// hand-written ones and its five features with the literals at `1e-12`.
    fn check(&self, what: &str) {
        let data = self.dims.region().points().map(self.level_at).collect();
        let vol = LevelVolume::from_raw(self.dims, data, self.levels).unwrap();
        let selection = FeatureSelection::of(&[
            Feature::AngularSecondMoment,
            Feature::Contrast,
            Feature::Correlation,
            Feature::SumOfSquares,
            Feature::InverseDifferenceMoment,
        ]);
        let one = Dims4::new(1, 1, 1, 1);
        for engine in [ScanEngine::Reference, ScanEngine::Fused] {
            for representation in [Representation::Full, Representation::Sparse] {
                let path = format!("{what}, {engine:?}/{representation:?}");
                let cfg = ScanConfig {
                    roi: RoiShape::new(self.dims),
                    directions: DirectionSet::new(self.directions.iter().copied()),
                    selection,
                    representation,
                    engine,
                    t_slide: TSlidePolicy::Auto,
                };
                let mut entries = Vec::new();
                scan_placements_with(&vol, &cfg, Point4::ZERO, one, |_, stats| {
                    let m = SparseCoMatrix::from_stats(stats);
                    entries.extend(m.entries().iter().map(|e| (e.i, e.j, e.count)));
                });
                assert_eq!(entries, self.upper, "{path}: hand-written entries");
                let maps = scan_placements(&vol, &cfg, Point4::ZERO, one);
                for (feature, (&got, &want)) in selection
                    .iter()
                    .zip(maps.values_at(Point4::ZERO).iter().zip(&self.features))
                {
                    assert!(
                        (got - want).abs() < 1e-12,
                        "{path}: {feature:?} is {got}, derived by hand {want}"
                    );
                }
            }
        }
    }
}

/// A 4x3x2x2 checkerboard, level `(x + y + z + t) mod 2`, over four
/// directions. The x rows hold 3 pairs (odd) and all others 4 (even).
///   (1,0,0,0): 3·3·2·2 = 36 pairs, odd step → all {0,1}
///   (0,1,0,0): 4·2·2·2 = 32 pairs, all {0,1}
///   (1,1,0,0): 3·2·2·2 = 24 pairs, even step → equal levels; the origins'
///     (y, z, t) parities balance, so 12 at level 0 and 12 at level 1
///   (0,0,1,1): 4·3·1·1 = 12 pairs, equal levels, 6 and 6 (x rows balance)
/// C(0,1) = 68, C(0,0) = C(1,1) = 2·18 = 36, R = 2·104 = 208, so
/// p00 = p11 = 9/52 and p01 = p10 = 17/52.
///   ASM = 2·(9/52)² + 2·(17/52)² = 740/2704 = 185/676
///   Contrast = 2·17/52 = 17/26
///   μ = px(1) = 1/2, σ² = 1/4, Σij·p = 9/52
///   Correlation = (9/52 − 1/4)/(1/4) = −4/13
///   SumOfSquares = σ² = 1/4
///   IDM = 18/52 + (34/52)/2 = 35/52
#[test]
fn checkerboard_volume_matches_its_hand_derived_matrix_and_features() {
    Golden4 {
        dims: Dims4::new(4, 3, 2, 2),
        levels: 2,
        level_at: |p| ((p.x + p.y + p.z + p.t) % 2) as u8,
        directions: vec![
            Direction::new(1, 0, 0, 0),
            Direction::new(0, 1, 0, 0),
            Direction::new(1, 1, 0, 0),
            Direction::new(0, 0, 1, 1),
        ],
        upper: vec![(0, 0, 36), (0, 1, 68), (1, 1, 36)],
        features: [185.0 / 676.0, 17.0 / 26.0, -4.0 / 13.0, 0.25, 35.0 / 52.0],
    }
    .check("checkerboard");
}

/// A 4x2x2x2 ramp, level `x + t` over Ng = 5, over five directions. The
/// x-moving rows hold 3 pairs (odd) and the others 4 (even).
///   (1,0,0,0): 24 pairs (x, x+1) + t → {0,1} 4, {1,2} 8, {2,3} 8, {3,4} 4
///   (0,1,0,0) and (0,0,1,0): 16 pairs each, equal levels x + t →
///     per level 0..4: 2, 4, 4, 4, 2
///   (1,0,0,1): 12 pairs, levels x and x + 2 → {0,2}, {1,3}, {2,4} 4 each
///   (1,0,0,−1): 12 pairs from t = 1 to t = 0, levels x + 1 both →
///     levels 1, 2, 3 with 4 each
/// Diagonal pairs per level 4, 12, 12, 12, 4 → C(g,g) = 8, 24, 24, 24, 8;
/// R = 2·80 = 160; row sums 16, 40, 48, 40, 16, so μ = 2 and
/// σ² = (4·16 + 40 + 40 + 4·16)/160 = 13/10.
///   ASM = (8² + 3·24² + 8² + 2·(4² + 8² + 8² + 4² + 3·4²))/160² = 71/800
///   Contrast = (2·24·1 + 2·12·4)/160 = 9/10
///   Σij·C = 464 + 2·156 = 776 → Correlation = (776/160 − 4)/(13/10) = 17/26
///   SumOfSquares = σ² = 13/10
///   IDM = (88 + 48/2 + 24/5)/160 = 73/100
#[test]
fn ramp_volume_matches_its_hand_derived_matrix_and_features() {
    Golden4 {
        dims: Dims4::new(4, 2, 2, 2),
        levels: 5,
        level_at: |p| (p.x + p.t) as u8,
        directions: vec![
            Direction::new(1, 0, 0, 0),
            Direction::new(0, 1, 0, 0),
            Direction::new(0, 0, 1, 0),
            Direction::new(1, 0, 0, 1),
            Direction::new(1, 0, 0, -1),
        ],
        upper: vec![
            (0, 0, 8),
            (0, 1, 4),
            (0, 2, 4),
            (1, 1, 24),
            (1, 2, 8),
            (1, 3, 4),
            (2, 2, 24),
            (2, 3, 8),
            (2, 4, 4),
            (3, 3, 24),
            (3, 4, 4),
            (4, 4, 8),
        ],
        features: [71.0 / 800.0, 0.9, 17.0 / 26.0, 1.3, 0.73],
    }
    .check("ramp");
}
