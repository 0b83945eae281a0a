//! Displacement vectors for co-occurrence computation.
//!
//! A co-occurrence matrix relates voxel pairs separated by a *displacement*:
//! a unit direction scaled by a distance. Because gray-level relationships
//! are counted in both the forward and backward direction (the matrix is
//! symmetric), opposite directions yield the same matrix, so only half of all
//! non-zero offset vectors are unique:
//!
//! * 2D: 8 directions, 4 unique (0°, 45°, 90°, 135°) — paper Figure 12;
//! * 3D: 26 directions, 13 unique;
//! * 4D: 80 directions, **40 unique**.
//!
//! In general `d` dimensions have `(3^d - 1) / 2` unique unit directions.
//! We canonicalize by requiring the *last* non-zero component (scanning
//! x, y, z, t) to be positive — any consistent half-space rule works.

use std::fmt;

/// A signed 4D displacement `(dx, dy, dz, dt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Direction {
    /// Offset along x.
    pub dx: i32,
    /// Offset along y.
    pub dy: i32,
    /// Offset along z.
    pub dz: i32,
    /// Offset along t.
    pub dt: i32,
}

impl Direction {
    /// Creates a displacement. The zero displacement is rejected.
    ///
    /// # Panics
    /// If all components are zero.
    pub const fn new(dx: i32, dy: i32, dz: i32, dt: i32) -> Self {
        assert!(
            dx != 0 || dy != 0 || dz != 0 || dt != 0,
            "zero displacement is not a direction"
        );
        Self { dx, dy, dz, dt }
    }

    /// The opposite displacement.
    pub const fn negate(self) -> Self {
        Self {
            dx: -self.dx,
            dy: -self.dy,
            dz: -self.dz,
            dt: -self.dt,
        }
    }

    /// Scales the displacement by a distance factor.
    ///
    /// # Panics
    /// If `distance` is zero.
    pub const fn scaled(self, distance: u32) -> Self {
        assert!(distance > 0, "distance must be positive");
        let d = distance as i32;
        Self {
            dx: self.dx * d,
            dy: self.dy * d,
            dz: self.dz * d,
            dt: self.dt * d,
        }
    }

    /// Whether this displacement is the canonical representative of the
    /// `{v, -v}` pair: the last non-zero component (x, y, z, t order) is
    /// positive.
    pub const fn is_canonical(self) -> bool {
        if self.dt != 0 {
            self.dt > 0
        } else if self.dz != 0 {
            self.dz > 0
        } else if self.dy != 0 {
            self.dy > 0
        } else {
            self.dx > 0
        }
    }

    /// The canonical representative of `{self, -self}`.
    pub const fn canonical(self) -> Self {
        if self.is_canonical() {
            self
        } else {
            self.negate()
        }
    }

    /// Chebyshev (L-infinity) length.
    pub const fn chebyshev(self) -> u32 {
        let mut m = self.dx.abs();
        if self.dy.abs() > m {
            m = self.dy.abs();
        }
        if self.dz.abs() > m {
            m = self.dz.abs();
        }
        if self.dt.abs() > m {
            m = self.dt.abs();
        }
        m as u32
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{},{})", self.dx, self.dy, self.dz, self.dt)
    }
}

/// An ordered set of unique displacements over which co-occurrence counts are
/// accumulated.
///
/// Construction canonicalizes and deduplicates, so a set can never contain
/// both a vector and its opposite (which would silently double-count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectionSet {
    dirs: Vec<Direction>,
}

impl DirectionSet {
    /// Builds a set from arbitrary displacements, canonicalizing and
    /// deduplicating while preserving first-occurrence order.
    pub fn new(dirs: impl IntoIterator<Item = Direction>) -> Self {
        let mut out: Vec<Direction> = Vec::new();
        for d in dirs {
            let c = d.canonical();
            if !out.contains(&c) {
                out.push(c);
            }
        }
        Self { dirs: out }
    }

    /// A single displacement.
    pub fn single(d: Direction) -> Self {
        Self::new([d])
    }

    /// All unique unit directions confined to the x-y plane (4 of them),
    /// scaled by `distance`. This is the classic 2D Haralick direction set.
    pub fn all_unique_2d(distance: u32) -> Self {
        Self::all_unique_nd(2, distance)
    }

    /// All 13 unique unit directions in 3D (x, y, z), scaled by `distance`.
    pub fn all_unique_3d(distance: u32) -> Self {
        Self::all_unique_nd(3, distance)
    }

    /// All 40 unique unit directions in 4D, scaled by `distance`.
    pub fn all_unique_4d(distance: u32) -> Self {
        Self::all_unique_nd(4, distance)
    }

    /// All `(3^n - 1) / 2` unique unit directions using the first `n` axes.
    ///
    /// # Panics
    /// If `n` is not in `1..=4`.
    pub fn all_unique_nd(n: usize, distance: u32) -> Self {
        assert!((1..=4).contains(&n), "dimensionality must be 1..=4");
        let range = |active: bool| if active { -1..=1 } else { 0..=0 };
        let mut dirs = Vec::new();
        for dt in range(n >= 4) {
            for dz in range(n >= 3) {
                for dy in range(n >= 2) {
                    for dx in range(n >= 1) {
                        if dx == 0 && dy == 0 && dz == 0 && dt == 0 {
                            continue;
                        }
                        let d = Direction { dx, dy, dz, dt };
                        if d.is_canonical() {
                            dirs.push(d.scaled(distance));
                        }
                    }
                }
            }
        }
        Self { dirs }
    }

    /// The 8-direction 4D probe set used by this reproduction's paper-scale
    /// experiments: the four axis-aligned unit vectors plus the four unique
    /// space-time hyper-diagonals `(±1, ±1, ±1, +1)`, scaled by `distance`.
    ///
    /// The paper does not specify its 4D direction set (the relevant text
    /// is garbled in the surviving copy); this 8-vector set probes every
    /// axis and the joint space-time diagonals, and — with the calibrated
    /// kernel costs — reproduces the paper's measured ~4–5x HCC:HPC cost
    /// ratio (§5.2), which the full 40-direction set does not.
    pub fn paper_4d(distance: u32) -> Self {
        let mut dirs = vec![
            Direction::new(1, 0, 0, 0),
            Direction::new(0, 1, 0, 0),
            Direction::new(0, 0, 1, 0),
            Direction::new(0, 0, 0, 1),
        ];
        for dx in [-1, 1] {
            for dy in [-1, 1] {
                dirs.push(Direction::new(dx, dy, 1, 1));
            }
        }
        Self::new(dirs.into_iter().map(|d| d.scaled(distance)))
    }

    /// The axis-aligned directions only (x, y, z, t unit vectors present in
    /// the first `n` axes), scaled by `distance`. A cheap anisotropy-probing
    /// subset.
    pub fn axial(n: usize, distance: u32) -> Self {
        assert!((1..=4).contains(&n), "dimensionality must be 1..=4");
        let units = [
            Direction::new(1, 0, 0, 0),
            Direction::new(0, 1, 0, 0),
            Direction::new(0, 0, 1, 0),
            Direction::new(0, 0, 0, 1),
        ];
        Self::new(units[..n].iter().map(|d| d.scaled(distance)))
    }

    /// The displacements in the set.
    pub fn directions(&self) -> &[Direction] {
        &self.dirs
    }

    /// Number of displacements.
    pub fn len(&self) -> usize {
        self.dirs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.dirs.is_empty()
    }

    /// Iterates over the displacements.
    pub fn iter(&self) -> std::slice::Iter<'_, Direction> {
        self.dirs.iter()
    }
}

impl<'a> IntoIterator for &'a DirectionSet {
    type Item = &'a Direction;
    type IntoIter = std::slice::Iter<'a, Direction>;
    fn into_iter(self) -> Self::IntoIter {
        self.dirs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn unique_direction_counts_match_formula() {
        // (3^d - 1) / 2 for d = 1..4: 1, 4, 13, 40.
        assert_eq!(DirectionSet::all_unique_nd(1, 1).len(), 1);
        assert_eq!(DirectionSet::all_unique_nd(2, 1).len(), 4);
        assert_eq!(DirectionSet::all_unique_nd(3, 1).len(), 13);
        assert_eq!(DirectionSet::all_unique_nd(4, 1).len(), 40);
    }

    #[test]
    fn no_direction_pairs_in_unique_sets() {
        let set = DirectionSet::all_unique_4d(1);
        let as_set: HashSet<Direction> = set.iter().copied().collect();
        assert_eq!(as_set.len(), set.len(), "duplicates present");
        for d in &set {
            assert!(
                !as_set.contains(&d.negate()),
                "set contains both {d} and its opposite"
            );
        }
    }

    #[test]
    fn the_40_unique_4d_directions_are_the_80_neighbours_up_to_sign() {
        // Every non-zero vector of {−1, 0, 1}⁴, by brute force over the 81
        // base-3 numbers, folded into its unordered ± pair.
        type Vector = (i32, i32, i32, i32);
        let pair = |v: Vector| {
            let w = (-v.0, -v.1, -v.2, -v.3);
            (v.min(w), v.max(w))
        };
        let digit = |n: i32, k: u32| n / 3i32.pow(k) % 3 - 1;
        let neighbours: Vec<Vector> = (0..81)
            .map(|n| (digit(n, 0), digit(n, 1), digit(n, 2), digit(n, 3)))
            .filter(|&v| v != (0, 0, 0, 0))
            .collect();
        assert_eq!(neighbours.len(), 80);
        let enumerated: HashSet<(Vector, Vector)> = neighbours.into_iter().map(pair).collect();
        assert_eq!(enumerated.len(), 40);

        let set = DirectionSet::all_unique_4d(1);
        let generated: Vec<(Vector, Vector)> =
            set.iter().map(|d| pair((d.dx, d.dy, d.dz, d.dt))).collect();
        let distinct: HashSet<(Vector, Vector)> = generated.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            generated.len(),
            "a ± pair is generated twice"
        );
        assert_eq!(distinct, enumerated);
    }

    #[test]
    fn two_d_set_matches_classic_angles() {
        // 0, 45, 90, 135 degrees as (dx, dy) pairs (y grows downward in
        // images, but the unordered pair structure is what matters).
        let set = DirectionSet::all_unique_2d(1);
        let expect: HashSet<(i32, i32)> = [(1, 0), (1, 1), (0, 1), (-1, 1)].into();
        let got: HashSet<(i32, i32)> = set.iter().map(|d| (d.dx, d.dy)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn canonicalization_folds_opposites() {
        let a = Direction::new(1, -1, 0, 0);
        let b = a.negate();
        assert_eq!(a.canonical(), b.canonical());
        let set = DirectionSet::new([a, b]);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn scaling_preserves_direction_and_length() {
        let d = Direction::new(1, 0, -1, 1).scaled(3);
        assert_eq!(d, Direction::new(3, 0, -3, 3));
        assert_eq!(d.chebyshev(), 3);
    }

    #[test]
    fn paper_4d_set_shape() {
        let set = DirectionSet::paper_4d(1);
        assert_eq!(set.len(), 8);
        for d in &set {
            assert!(d.is_canonical());
            assert_eq!(d.chebyshev(), 1);
        }
        // Contains all four axes and four space-time diagonals.
        let n_axial = set
            .iter()
            .filter(|d| d.dx.abs() + d.dy.abs() + d.dz.abs() + d.dt.abs() == 1)
            .count();
        assert_eq!(n_axial, 4);
    }

    #[test]
    fn axial_sets() {
        assert_eq!(DirectionSet::axial(4, 2).len(), 4);
        assert_eq!(
            DirectionSet::axial(2, 1).directions(),
            &[Direction::new(1, 0, 0, 0), Direction::new(0, 1, 0, 0)]
        );
    }

    #[test]
    #[should_panic(expected = "zero displacement")]
    fn zero_direction_rejected() {
        let _ = Direction::new(0, 0, 0, 0);
    }
}
