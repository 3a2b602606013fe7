//! Per-polygon coverings with a precision bound.
//!
//! A *covering* of a polygon is a set of cells classified as:
//!
//! * **interior cells** — entirely inside the polygon (true hits). Emitted
//!   at whatever level the recursion discovers them, so large interiors are
//!   covered by few, coarse, cache-resident cells (the reason the paper's
//!   boroughs stay fast even at high precision).
//! * **boundary cells** — intersecting the polygon boundary (candidates).
//!   These are refined to the *terminal level* `L(ε)` — the smallest level
//!   whose maximum cell diagonal is ≤ ε — which bounds the distance of any
//!   false positive to the polygon by ε (the paper's precision guarantee).
//!
//! The recursion runs in exact (u, v) face coordinates (see
//! [`crate::uvpoly`]), narrowing the candidate edge set as it descends so
//! per-cell work stays proportional to local boundary complexity.

use crate::uvpoly::{MultiFaceError, UvPolygon, UvRect};
use geom::{CellRelation, Polygon};
use s2cell::coords::{st_to_uv, POS_TO_IJ, POS_TO_ORIENTATION, SWAP_MASK};
use s2cell::{metrics, CellId, MAX_SIZE};

/// Parameters of a covering computation.
#[derive(Debug, Clone, Copy)]
pub struct CoveringParams {
    /// The precision bound ε in meters: the maximum distance between the
    /// partners of a false-positive join pair.
    pub precision_m: f64,
}

impl CoveringParams {
    /// Creates parameters, validating that ε is achievable: the deepest
    /// indexable cell (level 28) has a ~6 cm diagonal, so ε must be at
    /// least that ("up to a few centimeters", as the paper puts it).
    pub fn new(precision_m: f64) -> CoveringParams {
        assert!(
            precision_m >= metrics::max_diag_meters(crate::trie::MAX_INDEX_LEVEL),
            "precision {precision_m} m is below the ~6 cm limit of level-28 cells"
        );
        CoveringParams { precision_m }
    }

    /// The terminal level boundary cells are refined to.
    pub fn terminal_level(&self) -> u8 {
        metrics::level_for_max_diag_meters(self.precision_m)
    }
}

/// The covering of one polygon.
#[derive(Debug, Clone, Default)]
pub struct Covering {
    /// `(cell, interior)` pairs; `interior == true` marks a true-hit cell.
    /// The cells are disjoint and, as [`cover_uv_polygon`] emits them,
    /// sorted by `range_min` (Hilbert order) — the order the super
    /// covering's merge requires.
    ///
    /// At 16 bytes per pair plus growth slack, this is the covering's
    /// working form only: an index build packs each covering to 8 bytes
    /// per cell, exact-sized, as soon as it is computed. It covers each
    /// polygon just before the sweep reaches the polygon's
    /// [`covering_bound`] and frees the covering once merged, so only the
    /// coverings open at the sweep's position are alive at once.
    pub cells: Vec<(CellId, bool)>,
}

/// A covering as an index build holds it: one `u64` per cell, the cell
/// id with the interior flag in bit 0 (see [`pack_cell`]), in an
/// exact-size allocation.
pub(crate) type PackedCovering = Box<[u64]>;

/// Packs `(cell, interior)` into one word. A cell id's lowest set bit
/// marks its level (bit 0 for a level-30 leaf, bit 2 for level 29, …), so
/// bit 0 is clear for every cell above leaf level, and coverings stop at
/// [`crate::trie::MAX_INDEX_LEVEL`].
///
/// # Panics
/// Panics on a leaf cell, whose bit 0 is taken.
pub(crate) fn pack_cell(cell: CellId, interior: bool) -> u64 {
    assert!(
        !cell.is_leaf(),
        "cannot pack leaf cell {cell:?}: its bit 0 is the level sentinel"
    );
    cell.0 | u64::from(interior)
}

/// The `(cell, interior)` pair [`pack_cell`] packed.
pub(crate) fn unpack_cell(packed: u64) -> (CellId, bool) {
    (CellId(packed & !1), packed & 1 == 1)
}

impl Covering {
    /// This covering at 8 bytes per cell, exact-sized.
    ///
    /// # Panics
    /// As [`pack_cell`].
    pub(crate) fn pack(&self) -> PackedCovering {
        self.cells
            .iter()
            .map(|&(cell, interior)| pack_cell(cell, interior))
            .collect()
    }

    /// Number of interior cells.
    pub fn num_interior(&self) -> usize {
        self.cells.iter().filter(|(_, i)| *i).count()
    }

    /// Number of boundary cells.
    pub fn num_boundary(&self) -> usize {
        self.cells.len() - self.num_interior()
    }
}

/// Computes the covering of `poly` with the given precision bound.
///
/// Returns an error if the polygon spans multiple cube faces.
pub fn cover_polygon(poly: &Polygon, params: &CoveringParams) -> Result<Covering, MultiFaceError> {
    let uv = UvPolygon::from_polygon(poly)?;
    Ok(cover_uv_polygon(&uv, params))
}

/// Computes the covering of an already-projected polygon, its cells in
/// Hilbert order.
pub fn cover_uv_polygon(uv: &UvPolygon, params: &CoveringParams) -> Covering {
    cover_within(uv, params.terminal_level(), CellId::from_face(uv.face))
}

/// Computes the covering of `uv` restricted to the region of `within`
/// (a cell on the same face), refining boundary cells to `params`'
/// terminal level. Used by the adaptive index to re-cover hot cells at a
/// finer precision than the base build.
pub fn cover_uv_polygon_within(
    uv: &UvPolygon,
    params: &CoveringParams,
    within: s2cell::CellId,
) -> Covering {
    debug_assert_eq!(within.face(), uv.face, "cell must be on the polygon's face");
    cover_within(uv, params.terminal_level().max(within.level()), within)
}

/// The bound of `uv`'s covering: the deepest cell that contains every
/// cell [`cover_uv_polygon`] emits for it at `params`, never finer than
/// the terminal level.
///
/// It follows the covering's own descent from the face cell, with the
/// same edge subsets and so the same float arithmetic: it steps into a
/// child while the cell is a boundary cell above the terminal level and
/// exactly one child is not outside the polygon. The covering recursion
/// finds the other three children outside too, so every covering cell
/// lies in the cell the descent stops at, by construction. An index build
/// admits each polygon's covering into the super-covering merge only when
/// the sweep reaches this cell.
pub fn covering_bound(uv: &UvPolygon, params: &CoveringParams) -> CellId {
    let terminal = params.terminal_level();
    let mut node = Node::within(CellId::from_face(uv.face));
    let (mut rel, mut sub) = uv.relate_rect(&node.rect(), None);
    while rel == CellRelation::Boundary && node.cell.level() < terminal {
        let live: Vec<_> = (node.children().into_iter())
            .map(|child| (child, uv.relate_rect(&child.rect(), Some(&sub))))
            .filter(|(_, (rel, _))| *rel != CellRelation::Outside)
            .collect();
        let Ok([(child, (child_rel, child_sub))]) = <[_; 1]>::try_from(live) else {
            break;
        };
        (node, rel, sub) = (child, child_rel, child_sub);
    }
    node.cell
}

fn cover_within(uv: &UvPolygon, terminal: u8, within: CellId) -> Covering {
    let mut out = Covering::default();
    let mut scratch = RecursionScratch {
        uv,
        terminal,
        out: &mut out,
    };
    scratch.recurse(Node::within(within), None);
    out
}

/// A cell as the covering recursion visits it, with its minimum leaf
/// coordinates and Hilbert orientation.
#[derive(Clone, Copy)]
struct Node {
    cell: CellId,
    i_lo: u32,
    j_lo: u32,
    orientation: u8,
}

impl Node {
    fn within(cell: CellId) -> Node {
        let level = cell.level();
        let (face, i, j, _) = cell.to_face_ij_orientation();
        let size = 1u32 << (s2cell::MAX_LEVEL - level);
        // The Hilbert orientation of `cell`: its face's, turned at each
        // step down from the face.
        let orientation = (1..=level).fold(face & SWAP_MASK, |o, l| {
            o ^ POS_TO_ORIENTATION[cell.child_position(l) as usize]
        });
        Node {
            cell,
            i_lo: i & !(size - 1),
            j_lo: j & !(size - 1),
            orientation,
        }
    }

    /// The four children, in curve order.
    fn children(&self) -> [Node; 4] {
        let half = 1u32 << (s2cell::MAX_LEVEL - self.cell.level() - 1);
        let children = self.cell.children();
        std::array::from_fn(|pos| {
            let ij = u32::from(POS_TO_IJ[self.orientation as usize][pos]);
            Node {
                cell: children[pos],
                i_lo: self.i_lo + half * (ij >> 1),
                j_lo: self.j_lo + half * (ij & 1),
                orientation: self.orientation ^ POS_TO_ORIENTATION[pos],
            }
        })
    }

    fn rect(&self) -> UvRect {
        cell_uv_rect(self.cell.level(), self.i_lo, self.j_lo)
    }
}

struct RecursionScratch<'a> {
    uv: &'a UvPolygon,
    terminal: u8,
    out: &'a mut Covering,
}

impl RecursionScratch<'_> {
    /// `subset` is the parent's relevant edge indices.
    fn recurse(&mut self, node: Node, subset: Option<&[u32]>) {
        let (rel, sub) = self.uv.relate_rect(&node.rect(), subset);
        match rel {
            CellRelation::Outside => {}
            CellRelation::Inside => self.out.cells.push((node.cell, true)),
            CellRelation::Boundary if node.cell.level() >= self.terminal => {
                self.out.cells.push((node.cell, false))
            }
            CellRelation::Boundary => {
                // Children in curve order, so cells come out sorted.
                for child in node.children() {
                    self.recurse(child, Some(&sub));
                }
            }
        }
    }
}

/// The uv rectangle of the cell with minimum leaf coordinates (i_lo, j_lo)
/// at `level`. Exact: cells are axis-aligned uv rectangles.
fn cell_uv_rect(level: u8, i_lo: u32, j_lo: u32) -> UvRect {
    let size = 1u64 << (s2cell::MAX_LEVEL - level);
    let s_lo = i_lo as f64 / MAX_SIZE as f64;
    let s_hi = (i_lo as u64 + size) as f64 / MAX_SIZE as f64;
    let t_lo = j_lo as f64 / MAX_SIZE as f64;
    let t_hi = (j_lo as u64 + size) as f64 / MAX_SIZE as f64;
    UvRect {
        u_lo: st_to_uv(s_lo),
        u_hi: st_to_uv(s_hi),
        v_lo: st_to_uv(t_lo),
        v_hi: st_to_uv(t_hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{Coord, Ring};
    use s2cell::LatLng;

    fn nyc_square(cx: f64, cy: f64, half: f64) -> Polygon {
        Polygon::new(
            Ring::new(vec![
                Coord::new(cx - half, cy - half),
                Coord::new(cx + half, cy - half),
                Coord::new(cx + half, cy + half),
                Coord::new(cx - half, cy + half),
            ]),
            vec![],
        )
    }

    #[test]
    fn covering_has_both_kinds_of_cells() {
        let poly = nyc_square(-74.0, 40.7, 0.02); // ~3.4 km square
        let params = CoveringParams::new(60.0);
        let cov = cover_polygon(&poly, &params).unwrap();
        assert!(cov.num_interior() > 0, "expected interior cells");
        assert!(cov.num_boundary() > 0, "expected boundary cells");
    }

    #[test]
    fn boundary_cells_at_terminal_level() {
        let poly = nyc_square(-74.0, 40.7, 0.02);
        let params = CoveringParams::new(60.0);
        assert_eq!(params.terminal_level(), 18);
        let cov = cover_polygon(&poly, &params).unwrap();
        for (cell, interior) in &cov.cells {
            if !interior {
                assert_eq!(cell.level(), 18, "boundary cells sit at L(ε)");
            } else {
                assert!(cell.level() <= 18);
            }
        }
    }

    #[test]
    fn interior_cells_are_inside_boundary_cells_touch() {
        let poly = nyc_square(-74.0, 40.7, 0.02);
        let params = CoveringParams::new(15.0);
        let cov = cover_polygon(&poly, &params).unwrap();
        for (cell, interior) in cov.cells.iter().take(500) {
            let center = cell.to_latlng();
            let c = Coord::new(center.lng_degrees(), center.lat_degrees());
            if *interior {
                assert!(
                    poly.contains(c),
                    "interior cell center {c} must be inside the polygon"
                );
            } else {
                // Boundary cell centers are within ε of the polygon.
                assert!(
                    poly.distance_meters(c) <= params.precision_m,
                    "boundary cell center {c} too far from polygon"
                );
            }
        }
    }

    #[test]
    fn cells_are_disjoint() {
        let poly = nyc_square(-74.0, 40.7, 0.015);
        let cov = cover_polygon(&poly, &CoveringParams::new(60.0)).unwrap();
        // Emitted in range order, not just disjoint once sorted.
        for w in cov.cells.windows(2) {
            assert!(
                w[0].0.range_max().0 < w[1].0.range_min().0,
                "cells {:?} and {:?} overlap or are out of order",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn covering_within_a_cell_is_in_range_order() {
        let poly = nyc_square(-74.0, 40.7, 0.015);
        let uv = UvPolygon::from_polygon(&poly).unwrap();
        // Cells of every orientation: several levels, both sides of the
        // square's boundary.
        for level in [3u8, 9, 12, 13] {
            for corner in [(40.69, -74.01), (40.71, -73.99), (40.7, -74.0)] {
                let ll = LatLng::from_degrees(corner.0, corner.1);
                let within = CellId::from_latlng(ll).parent(level);
                let cov = cover_uv_polygon_within(&uv, &CoveringParams::new(15.0), within);
                for w in cov.cells.windows(2) {
                    assert!(w[0].0.range_max().0 < w[1].0.range_min().0);
                }
                assert!(cov.cells.iter().all(|(c, _)| within.contains(*c)));
            }
        }
    }

    #[test]
    fn covering_covers_the_polygon() {
        // Every point inside the polygon must fall in some covering cell.
        let poly = nyc_square(-74.0, 40.7, 0.02);
        let cov = cover_polygon(&poly, &CoveringParams::new(60.0)).unwrap();
        let cells: Vec<CellId> = cov.cells.iter().map(|(c, _)| *c).collect();
        let mut rng = 12345u64;
        for _ in 0..300 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let fx = (rng >> 33) as f64 / (1u64 << 31) as f64;
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let fy = (rng >> 33) as f64 / (1u64 << 31) as f64;
            let c = Coord::new(-74.02 + 0.04 * fx, 40.68 + 0.04 * fy);
            if !poly.contains(c) {
                continue;
            }
            let leaf = CellId::from_latlng(LatLng::from_degrees(c.y, c.x));
            assert!(
                cells.iter().any(|cell| cell.contains(leaf)),
                "contained point {c} not covered"
            );
        }
    }

    #[test]
    fn finer_precision_more_boundary_cells() {
        let poly = nyc_square(-74.0, 40.7, 0.01);
        let coarse = cover_polygon(&poly, &CoveringParams::new(60.0)).unwrap();
        let fine = cover_polygon(&poly, &CoveringParams::new(4.0)).unwrap();
        assert!(
            fine.num_boundary() > 4 * coarse.num_boundary(),
            "coarse {} vs fine {}",
            coarse.num_boundary(),
            fine.num_boundary()
        );
    }

    #[test]
    fn packing_round_trips_cell_and_interior_flag() {
        let leaf = CellId::from_latlng(LatLng::from_degrees(40.7580, -73.9855));
        let cells = (0..6)
            .map(CellId::from_face)
            .chain([1, 15, 28].map(|level| leaf.parent(level)));
        for cell in cells {
            for interior in [false, true] {
                let packed = pack_cell(cell, interior);
                assert_eq!(unpack_cell(packed), (cell, interior), "{cell:?}");
            }
        }
        let cov = Covering {
            cells: vec![(leaf.parent(12), true), (leaf.parent(28), false)],
        };
        let unpacked: Vec<_> = cov.pack().iter().map(|&w| unpack_cell(w)).collect();
        assert_eq!(unpacked, cov.cells);
    }

    #[test]
    #[should_panic(expected = "cannot pack leaf cell")]
    fn packing_a_leaf_cell_panics() {
        let leaf = CellId::from_latlng(LatLng::from_degrees(40.7580, -73.9855));
        pack_cell(leaf, false);
    }

    #[test]
    #[should_panic(expected = "below the ~6 cm limit")]
    fn unachievable_precision_panics() {
        CoveringParams::new(0.01);
    }

    #[test]
    fn covering_with_holes() {
        let outer = Ring::new(vec![
            Coord::new(-74.05, 40.65),
            Coord::new(-73.95, 40.65),
            Coord::new(-73.95, 40.75),
            Coord::new(-74.05, 40.75),
        ]);
        let hole = Ring::new(vec![
            Coord::new(-74.02, 40.68),
            Coord::new(-73.98, 40.68),
            Coord::new(-73.98, 40.72),
            Coord::new(-74.02, 40.72),
        ]);
        let poly = Polygon::new(outer, vec![hole]);
        let cov = cover_polygon(&poly, &CoveringParams::new(60.0)).unwrap();
        // A point in the hole must not be in any interior cell.
        let in_hole = CellId::from_latlng(LatLng::from_degrees(40.70, -74.0));
        for (cell, interior) in &cov.cells {
            if *interior {
                assert!(!cell.contains(in_hole), "hole covered by interior cell");
            }
        }
    }
}
