//! Operation-count analytics for the exemplar.
//!
//! The machine model converts these counts plus measured DRAM traffic
//! into predicted execution times. Counts are exact for the
//! recomputation-free schedules; overlapped tiling multiplies face work
//! by the tile-overlap redundancy factor computed here.

use crate::point::{FLOPS_ACCUM, FLOPS_FLUX, FLOPS_INTERP};
use crate::NCOMP;
use pdesched_mesh::{IBox, DIM};

/// Exact floating-point operation counts for one exemplar update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Face-interpolation invocations (5 flops each).
    pub interp: u64,
    /// Flux multiplications (1 flop each).
    pub flux: u64,
    /// Accumulation updates (2 flops each).
    pub accum: u64,
}

impl OpCount {
    /// Total floating-point operations.
    pub fn flops(&self) -> u64 {
        self.interp * FLOPS_INTERP + self.flux * FLOPS_FLUX + self.accum * FLOPS_ACCUM
    }

    /// Component-wise sum.
    pub fn add(self, o: OpCount) -> OpCount {
        OpCount {
            interp: self.interp + o.interp,
            flux: self.flux + o.flux,
            accum: self.accum + o.accum,
        }
    }

    /// Scale all counts.
    pub fn scale(self, k: u64) -> OpCount {
        OpCount { interp: self.interp * k, flux: self.flux * k, accum: self.accum * k }
    }
}

/// Operation counts for one recomputation-free exemplar update over
/// `cells` (any schedule without overlapped tiles: the work is identical,
/// only the order changes).
pub fn exemplar_ops(cells: IBox) -> OpCount {
    let mut oc = OpCount::default();
    for d in 0..DIM {
        let nfaces = cells.surrounding_faces(d).num_pts() as u64;
        oc.interp += nfaces * NCOMP as u64;
        oc.flux += nfaces * NCOMP as u64;
    }
    oc.accum = cells.num_pts() as u64 * NCOMP as u64 * DIM as u64;
    oc
}

/// Operation counts for an overlapped-tile update of `cells` with tile
/// size `tile`: every tile computes its own `(T+1)` faces per direction,
/// so interior tile boundaries do face work twice. Accumulation is never
/// redundant (each cell belongs to exactly one tile).
///
/// Closed form, no tiles built: summing `(t_d + 1) * prod_{e != d} t_e`
/// over the `c_d` tile columns and the tile extents of the other axes
/// separates into `(n_d + c_d) * prod_{e != d} n_e` faces in direction
/// `d`, where `n` is the box extent and `c = ceil(n / tile)`.
pub fn exemplar_ops_overlapped(cells: IBox, tile: i32) -> OpCount {
    assert!(tile >= 1);
    let n: [u64; DIM] = std::array::from_fn(|d| cells.extent(d) as u64);
    let mut oc = OpCount::default();
    for d in 0..DIM {
        let area: u64 = (0..DIM).filter(|&e| e != d).map(|e| n[e]).product();
        let nfaces = (n[d] + n[d].div_ceil(tile as u64)) * area;
        oc.interp += nfaces * NCOMP as u64;
        oc.flux += nfaces * NCOMP as u64;
    }
    oc.accum = n.iter().product::<u64>() * NCOMP as u64 * DIM as u64;
    oc
}

/// Redundantly recomputed faces of one overlapped tile `t` of a tiling
/// of `cells`: the low-side boundary faces of `t` interior to `cells`
/// (the neighboring tile computes the same faces as its own high-side
/// surface). Summed over a whole tiling this equals the extra face count
/// of [`exemplar_ops_overlapped`] over [`exemplar_ops`] — the plan IR
/// attributes it per tile span so schedules can report recompute regions.
pub fn overlapped_tile_recompute(cells: IBox, t: IBox) -> usize {
    let mut faces = 0usize;
    for d in 0..DIM {
        if t.lo()[d] > cells.lo()[d] {
            let mut area = 1usize;
            for e in 0..DIM {
                if e != d {
                    area *= t.extent(e) as usize;
                }
            }
            faces += area;
        }
    }
    faces
}

/// The redundancy factor of overlapped tiling relative to the
/// recomputation-free schedules (ratio of total flops). For cube tiles of
/// size `T` inside a large box this tends to `(6T + 7T + 2) / (13T + 2)`…
/// in practice: compare directly.
pub fn overlap_redundancy(cells: IBox, tile: i32) -> f64 {
    exemplar_ops_overlapped(cells, tile).flops() as f64 / exemplar_ops(cells).flops() as f64
}

/// Minimum DRAM traffic in bytes for one exemplar update over a box with
/// `n` cells per side: the *compulsory* traffic of reading `phi0` (with
/// ghosts) and reading+writing `phi1`, assuming all temporaries stay in
/// cache. Every schedule is bounded below by this.
pub fn compulsory_bytes(n: i32, ghost: i32) -> u64 {
    let w = 8u64; // f64
    let total = ((n + 2 * ghost) as u64).pow(3) * NCOMP as u64;
    let valid = (n as u64).pow(3) * NCOMP as u64;
    // read phi0 (incl. ghosts) + read phi1 + write phi1
    total * w + 2 * valid * w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_for_cube() {
        let n = 16i64;
        let oc = exemplar_ops(IBox::cube(n as i32));
        let nfaces = 3 * (n + 1) * n * n;
        assert_eq!(oc.interp, (nfaces * NCOMP as i64) as u64);
        assert_eq!(oc.flux, oc.interp);
        assert_eq!(oc.accum, (n * n * n * NCOMP as i64 * 3) as u64);
        assert_eq!(oc.flops(), oc.interp * 5 + oc.flux + oc.accum * 2);
    }

    #[test]
    fn overlapped_equals_exact_when_tile_covers_box() {
        let b = IBox::cube(8);
        assert_eq!(exemplar_ops_overlapped(b, 8), exemplar_ops(b));
        assert_eq!(overlap_redundancy(b, 8), 1.0);
    }

    #[test]
    fn overlap_redundancy_grows_as_tiles_shrink() {
        let b = IBox::cube(32);
        let r16 = overlap_redundancy(b, 16);
        let r8 = overlap_redundancy(b, 8);
        let r4 = overlap_redundancy(b, 4);
        assert!(r16 > 1.0);
        assert!(r8 > r16);
        assert!(r4 > r8);
        // Sanity: 4^3 tiles of a face-heavy kernel stay under 2x.
        assert!(r4 < 1.6, "r4 = {r4}");
    }

    #[test]
    fn overlapped_tile_face_count_by_hand() {
        // 8^3 box, tile 4: 8 tiles, each with 3 * 5*4*4 faces.
        let oc = exemplar_ops_overlapped(IBox::cube(8), 4);
        assert_eq!(oc.interp, 8 * 3 * (5 * 4 * 4) * NCOMP as u64);
        assert_eq!(oc.accum, 8u64.pow(3) * NCOMP as u64 * 3);
    }

    #[test]
    fn per_tile_recompute_sums_to_overlap_redundancy() {
        for (n, t) in [(8, 4), (7, 4), (10, 3), (6, 6)] {
            let b = IBox::cube(n);
            let total: usize = b.tiles(t).iter().map(|tb| overlapped_tile_recompute(b, *tb)).sum();
            let extra =
                (exemplar_ops_overlapped(b, t).interp - exemplar_ops(b).interp) / NCOMP as u64;
            assert_eq!(total as u64, extra, "n={n} t={t}");
        }
    }

    #[test]
    fn compulsory_traffic_paper_sizes() {
        // N=16, ghost 2: phi0 20^3*5 doubles + 2*16^3*5 doubles.
        let b = compulsory_bytes(16, 2);
        assert_eq!(b, (20u64.pow(3) * 5 + 2 * 16u64.pow(3) * 5) * 8);
        // A 128 box moves ~512x more than a 16 box (same cell count
        // scales cubically).
        assert!(compulsory_bytes(128, 2) > 400 * b);
    }
}
