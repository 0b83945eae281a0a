//! Incremental sliding-window co-occurrence maintenance.
//!
//! The paper's raster scan (Figure 2) rebuilds each ROI's co-occurrence
//! matrix from scratch. Because consecutive window placements along `x`
//! share all but one voxel plane, the matrix can instead be **updated**:
//! pairs with an endpoint in the departing plane are removed, pairs with an
//! endpoint in the arriving plane are added, and everything else is
//! untouched. Per step this costs `O(W_y · W_z · W_t · |D|)` instead of
//! `O(W_x · W_y · W_z · W_t · |D|)`.
//!
//! This is an extension beyond the paper (a natural optimization its
//! pseudo-code leaves on the table). [`SlidingWindow`] and [`MatrixCursor`]
//! are the matrix-only form used by pipeline stages that transmit matrices
//! (the split variant's HCC filter); feature scans slide inside the fused
//! kernel ([`crate::fused`]) instead.

use crate::coocc::CoMatrix;
use crate::direction::DirectionSet;
use crate::volume::{Dims4, LevelVolume, Point4, Region4};

/// Maintains the co-occurrence matrix of an ROI window sliding along `x`.
///
/// ```
/// use haralick::{CoMatrix, Direction, DirectionSet, LevelVolume};
/// use haralick::volume::{Dims4, Point4, Region4};
/// use haralick::window::SlidingWindow;
///
/// let dims = Dims4::new(8, 4, 2, 2);
/// let data: Vec<u8> = (0..dims.len()).map(|i| (i % 4) as u8).collect();
/// let vol = LevelVolume::from_raw(dims, data, 4).unwrap();
/// let dirs = DirectionSet::single(Direction::new(1, 1, 1, 1));
/// let roi = Dims4::new(4, 3, 2, 2);
///
/// let mut win = SlidingWindow::new(&vol, &dirs, roi, Point4::ZERO);
/// win.slide_x(); // O(plane) update instead of a full rebuild
/// let rebuilt = CoMatrix::from_region(
///     &vol,
///     Region4::new(Point4::new(1, 0, 0, 0), roi),
///     &dirs,
/// );
/// assert_eq!(win.matrix(), &rebuilt);
/// ```
pub struct SlidingWindow<'a> {
    vol: &'a LevelVolume,
    dirs: &'a DirectionSet,
    roi: Dims4,
    /// Current window origin.
    origin: Point4,
    matrix: CoMatrix,
}

impl<'a> SlidingWindow<'a> {
    /// Builds the matrix for the window at `origin` from scratch.
    ///
    /// # Panics
    /// If the window does not fit inside the volume.
    pub fn new(vol: &'a LevelVolume, dirs: &'a DirectionSet, roi: Dims4, origin: Point4) -> Self {
        let matrix = CoMatrix::from_region(vol, Region4::new(origin, roi), dirs);
        Self {
            vol,
            dirs,
            roi,
            origin,
            matrix,
        }
    }

    /// The current window's matrix.
    pub fn matrix(&self) -> &CoMatrix {
        &self.matrix
    }

    /// The current window origin.
    pub fn origin(&self) -> Point4 {
        self.origin
    }

    /// Applies all pair contributions of the plane `x = plane_x` within the
    /// window at `win`, adding (`add`) or removing (`!add`).
    ///
    /// A pair is touched exactly once: pairs wholly inside the plane are
    /// handled via the forward displacement only. Like
    /// [`CoMatrix::accumulate`], the loop bounds are clamped per direction so
    /// only voxels whose partner is in the window are visited, and partners
    /// are addressed by a precomputed linear stride — no per-voxel
    /// containment tests or 4D index arithmetic.
    fn apply_plane(&mut self, win: Region4, plane_x: usize, add: bool) {
        let dims = self.vol.dims();
        let data = self.vol.as_slice();
        let end = win.end();
        for d in self.dirs {
            let fwd = (d.dx as i64, d.dy as i64, d.dz as i64, d.dt as i64);
            let bwd = (-fwd.0, -fwd.1, -fwd.2, -fwd.3);
            for (pass, (dx, dy, dz, dt)) in [fwd, bwd].into_iter().enumerate() {
                // In-plane pairs are counted by the forward pass alone, and
                // the partner plane `plane_x + dx` must be in the window.
                let qx = plane_x as i64 + dx;
                if (pass == 1 && dx == 0) || qx < win.origin.x as i64 || qx >= end.x as i64 {
                    continue;
                }
                let y_lo = win.origin.y as i64 + (-dy).max(0);
                let y_hi = end.y as i64 - dy.max(0);
                let z_lo = win.origin.z as i64 + (-dz).max(0);
                let z_hi = end.z as i64 - dz.max(0);
                let t_lo = win.origin.t as i64 + (-dt).max(0);
                let t_hi = end.t as i64 - dt.max(0);
                if y_lo >= y_hi || z_lo >= z_hi || t_lo >= t_hi {
                    continue;
                }
                let stride = dx
                    + dy * dims.x as i64
                    + dz * (dims.x * dims.y) as i64
                    + dt * (dims.x * dims.y * dims.z) as i64;
                for t in t_lo..t_hi {
                    for z in z_lo..z_hi {
                        let mut base =
                            ((t as usize * dims.z + z as usize) * dims.y + y_lo as usize) * dims.x
                                + plane_x;
                        for _ in y_lo..y_hi {
                            let a = data[base];
                            let b = data[(base as i64 + stride) as usize];
                            if add {
                                self.matrix.increment_pair(a, b);
                            } else {
                                self.matrix.decrement_pair(a, b);
                            }
                            base += dims.x;
                        }
                    }
                }
            }
        }
    }

    /// Slides the window one voxel in `+x`, updating the matrix
    /// incrementally.
    ///
    /// # Panics
    /// If the slid window would leave the volume. The slide target is
    /// validated **before** any mutation, so a panicking call leaves the
    /// window (matrix and origin) exactly as it was.
    pub fn slide_x(&mut self) {
        let new = Region4::new(
            Point4::new(
                self.origin.x + 1,
                self.origin.y,
                self.origin.z,
                self.origin.t,
            ),
            self.roi,
        );
        assert!(
            self.vol.full_region().contains_region(&new),
            "slide past the volume edge"
        );
        // 1. Remove every pair with an endpoint in the departing plane
        //    (x = origin.x), evaluated against the OLD window.
        let old = Region4::new(self.origin, self.roi);
        self.apply_plane(old, self.origin.x, false);
        // 2. Advance and add every pair with an endpoint in the arriving
        //    plane (x = new origin.x + W_x - 1), evaluated against the NEW
        //    window.
        self.origin.x += 1;
        self.apply_plane(new, self.origin.x + self.roi.x - 1, true);
    }
}

/// Produces per-placement co-occurrence matrices on demand, sliding the
/// window incrementally when consecutive requests advance one step along
/// `+x` and rebuilding from scratch otherwise.
///
/// Used by pipeline stages (the split variant's HCC filter) that transmit
/// matrices instead of computing features locally. Matrices are identical
/// to [`CoMatrix::from_region`] for every placement.
pub struct MatrixCursor<'a> {
    vol: &'a LevelVolume,
    dirs: &'a DirectionSet,
    roi: Dims4,
    win: Option<SlidingWindow<'a>>,
}

impl<'a> MatrixCursor<'a> {
    /// Creates a cursor with no current placement.
    pub fn new(vol: &'a LevelVolume, dirs: &'a DirectionSet, roi: Dims4) -> Self {
        Self {
            vol,
            dirs,
            roi,
            win: None,
        }
    }

    /// The matrix of the window at `origin`.
    ///
    /// # Panics
    /// If the window does not fit inside the volume.
    pub fn matrix_at(&mut self, origin: Point4) -> &CoMatrix {
        let slides = self.win.as_ref().is_some_and(|w| {
            let p = w.origin();
            p.x + 1 == origin.x && p.y == origin.y && p.z == origin.z && p.t == origin.t
        });
        if slides {
            self.win.as_mut().expect("checked above").slide_x();
        } else {
            self.win = Some(SlidingWindow::new(self.vol, self.dirs, self.roi, origin));
        }
        self.win.as_ref().expect("placed above").matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;

    fn volume(seed: usize) -> LevelVolume {
        let dims = Dims4::new(12, 9, 4, 4);
        let data: Vec<u8> = dims
            .region()
            .points()
            .map(|p| (((p.x * 7 + p.y * 3 + p.z * 5 + p.t * 11 + seed) * 2654435761) % 8) as u8)
            .collect();
        LevelVolume::from_raw(dims, data, 8).unwrap()
    }

    #[test]
    fn slide_matches_rebuild_single_direction() {
        let vol = volume(1);
        let dirs = DirectionSet::single(Direction::new(1, 1, 1, 1));
        let roi = Dims4::new(5, 4, 2, 2);
        let mut win = SlidingWindow::new(&vol, &dirs, roi, Point4::new(0, 1, 1, 1));
        for step in 1..=7 {
            win.slide_x();
            let expect =
                CoMatrix::from_region(&vol, Region4::new(Point4::new(step, 1, 1, 1), roi), &dirs);
            assert_eq!(win.matrix(), &expect, "divergence at slide {step}");
        }
    }

    #[test]
    fn cursor_matches_rebuild_across_row_breaks() {
        let vol = volume(3);
        let dirs = DirectionSet::paper_4d(1);
        let roi = Dims4::new(5, 4, 2, 2);
        let mut cursor = MatrixCursor::new(&vol, &dirs, roi);
        // Raster order over a sub-block: consecutive +x placements slide,
        // row/plane breaks (and a deliberate backwards jump) rebuild.
        let mut origins: Vec<Point4> = Vec::new();
        for z in 0..2 {
            for y in 0..3 {
                for x in 0..5 {
                    origins.push(Point4::new(x, y, z, 1));
                }
            }
        }
        origins.push(Point4::new(2, 0, 0, 0));
        for origin in origins {
            let expect = CoMatrix::from_region(&vol, Region4::new(origin, roi), &dirs);
            assert_eq!(
                cursor.matrix_at(origin),
                &expect,
                "divergence at {origin:?}"
            );
        }
    }

    #[test]
    fn slide_matches_rebuild_many_directions() {
        let vol = volume(2);
        for dirs in [
            DirectionSet::all_unique_2d(1),
            DirectionSet::paper_4d(1),
            DirectionSet::all_unique_4d(1),
            DirectionSet::single(Direction::new(1, 0, 0, 0).scaled(2)),
        ] {
            let roi = Dims4::new(4, 4, 2, 2);
            let mut win = SlidingWindow::new(&vol, &dirs, roi, Point4::ZERO);
            for step in 1..=8 {
                win.slide_x();
                let expect = CoMatrix::from_region(
                    &vol,
                    Region4::new(Point4::new(step, 0, 0, 0), roi),
                    &dirs,
                );
                assert_eq!(
                    win.matrix(),
                    &expect,
                    "divergence at slide {step} with {} directions",
                    dirs.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "slide past the volume edge")]
    fn slide_past_edge_panics() {
        let vol = volume(6);
        let dirs = DirectionSet::single(Direction::new(1, 0, 0, 0));
        let roi = Dims4::new(12, 4, 2, 2); // full width: no room to slide
        let mut win = SlidingWindow::new(&vol, &dirs, roi, Point4::ZERO);
        win.slide_x();
    }

    #[test]
    fn failed_slide_leaves_window_intact() {
        // The slide target is validated before any mutation, so a panicking
        // slide must leave the matrix and origin untouched.
        let vol = volume(7);
        let dirs = DirectionSet::paper_4d(1);
        let roi = Dims4::new(12, 4, 2, 2); // full width: no room to slide
        let mut win = SlidingWindow::new(&vol, &dirs, roi, Point4::ZERO);
        let matrix_before = win.matrix().clone();
        let origin_before = win.origin();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| win.slide_x()));
        assert!(caught.is_err(), "slide past the edge must panic");
        assert_eq!(win.matrix(), &matrix_before, "matrix corrupted by panic");
        assert_eq!(win.origin(), origin_before, "origin advanced despite panic");
    }
}
