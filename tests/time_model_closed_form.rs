//! The time model's shape inputs — wavefront sizes, overlapped-tile
//! op counts and tile counts — are closed forms. These tests check each
//! against the tile enumeration it replaced (kept here only as an
//! oracle), and guard that the closed forms stay polynomial in the tile
//! count rather than enumerating: at the sizes below an enumeration
//! would need billions of boxes and never return.

use pdesched::core::wavefront::{wavefront_count, wavefront_groups, wavefront_sizes};
use pdesched::kernels::ops::{exemplar_ops, exemplar_ops_overlapped, OpCount};
use pdesched::kernels::NCOMP;
use pdesched::mesh::{IBox, IntVect, DIM};

/// The per-tile sum `exemplar_ops_overlapped` used to compute.
fn enumerated_ops_overlapped(cells: IBox, tile: i32) -> OpCount {
    let mut oc = OpCount::default();
    for t in cells.tiles(tile) {
        for d in 0..DIM {
            let nfaces = t.surrounding_faces(d).num_pts() as u64;
            oc.interp += nfaces * NCOMP as u64;
            oc.flux += nfaces * NCOMP as u64;
        }
        oc.accum += t.num_pts() as u64 * NCOMP as u64 * DIM as u64;
    }
    oc
}

/// Offset, mostly non-cubic boxes, plus the empty box.
fn boxes() -> Vec<IBox> {
    let mut out = vec![IBox::empty()];
    for lo in [IntVect::ZERO, IntVect::new(-3, 2, 5), IntVect::new(7, -11, 0)] {
        for ex in [1, 2, 5, 12] {
            for ey in [1, 3, 7] {
                for ez in [2, 9, 13] {
                    out.push(IBox::new(lo, lo + IntVect::new(ex - 1, ey - 1, ez - 1)));
                }
            }
        }
    }
    out
}

#[test]
fn wavefront_sizes_match_enumeration() {
    for n in 1..=40 {
        for t in 1..=9 {
            let enumerated: Vec<usize> =
                wavefront_groups(IBox::cube(n), t).iter().map(|g| g.len()).collect();
            assert_eq!(wavefront_sizes(n, t), enumerated, "n={n} t={t}");
            assert_eq!(wavefront_count(n, t), enumerated.len(), "n={n} t={t}");
        }
    }
}

#[test]
fn overlapped_ops_match_per_tile_sum() {
    for b in boxes() {
        for t in 1..=9 {
            assert_eq!(
                exemplar_ops_overlapped(b, t),
                enumerated_ops_overlapped(b, t),
                "{b:?} t={t}"
            );
        }
        // A tile covering the box does no redundant face work.
        assert_eq!(exemplar_ops_overlapped(b, 13), exemplar_ops(b), "{b:?}");
    }
}

#[test]
fn overlapped_tile_count_matches_enumeration() {
    for b in boxes().into_iter().chain((1..=20).map(IBox::cube)) {
        for t in 1..=9 {
            assert_eq!(b.tile_counts(t).product(), b.tiles(t).len(), "{b:?} t={t}");
        }
    }
}

#[test]
fn closed_forms_do_not_enumerate_tiles() {
    let n = 4096;
    let sizes = wavefront_sizes(n, 1);
    assert_eq!(sizes.len(), 3 * n as usize - 2);
    assert_eq!(sizes.iter().sum::<usize>(), (n as usize).pow(3));
    assert_eq!(*sizes.iter().max().unwrap(), 3 * (n as usize).pow(2) / 4);

    let n = 2048u64;
    let oc = exemplar_ops_overlapped(IBox::cube(n as i32), 1);
    // Every 1-cell tile computes all 6 of its faces: 2n^3 per direction.
    assert_eq!(oc.interp, 3 * 2 * n.pow(3) * NCOMP as u64);
    assert_eq!(oc.accum, n.pow(3) * NCOMP as u64 * DIM as u64);
}
