//! A delta lineage over a mapped snapshot shares the mapping: the index
//! it opens, and every clone of it, read the mapped arena as their base
//! and own only the nodes their edits copied out of it. Checked through
//! the public accessors, without `/proc`.

use act_core::{apply_delta_file, save_delta_file, ActIndex, DeltaLink, DeltaOp, MappedSnapshot};
use geom::{Coord, Polygon, Ring};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("act-lineage-{}-{name}", std::process::id()))
}

/// A square fence of half-width `half` degrees around `c`.
fn fence(c: Coord, half: f64) -> Polygon {
    Polygon::new(
        Ring::new(vec![
            Coord::new(c.x - half, c.y - half),
            Coord::new(c.x + half, c.y - half),
            Coord::new(c.x + half, c.y + half),
            Coord::new(c.x - half, c.y + half),
        ]),
        vec![],
    )
}

/// A seeded lattice of blocks at 15 m, saved and mapped; returns the
/// mapping, its path, the fence's id and a point inside the data.
fn mapped_fixture(name: &str) -> (Arc<MappedSnapshot>, PathBuf, u32, Coord) {
    let ds = datagen::blocks_scaled(16, 16, 7);
    let built = ActIndex::build(&ds.polygons, 15.0).unwrap();
    let path = temp_path(name);
    built.as_view().save_file(&path).unwrap();
    let center = Coord::new(
        (ds.bbox.min.x + ds.bbox.max.x) / 2.0,
        (ds.bbox.min.y + ds.bbox.max.y) / 2.0,
    );
    let snap = Arc::new(MappedSnapshot::open(&path).unwrap());
    (snap, path, ds.polygons.len() as u32, center)
}

/// Opens a lineage over a mapped snapshot, primes it, applies a
/// one-fence delta and clones the result, as the watcher re-arms after a
/// publish: the clone shares the mapped base, and the nodes either copy
/// owns are under 1% of the arena.
#[test]
fn a_lineage_over_a_mapped_base_shares_it_and_copies_under_one_percent() {
    let (snap, path, id, center) = mapped_fixture("share.snap");
    let mut scratch = ActIndex::from_mapped(Arc::clone(&snap));
    scratch.prime_mutations();
    assert_eq!(scratch.act().ext_bytes(), 0, "opening copies no node");
    assert!(scratch.identical_to(&snap.to_owned_index()));

    let dpath = temp_path("share.snap.d1");
    let link = DeltaLink::for_base(snap.checksum());
    let op = DeltaOp::Insert {
        id,
        polygon: fence(center, 0.0002),
    };
    save_delta_file(&[op], link, &dpath).unwrap();
    apply_delta_file(&mut scratch, &dpath, link).unwrap();
    let published = scratch;
    let rearmed = published.clone();

    let arena = published.act().memory_bytes();
    let ext = published.act().ext_bytes();
    println!("arena {arena} B, {ext} B copied or allocated by the apply");
    assert!(ext > 0, "the apply writes copies, never the mapping");
    assert!(
        ext * 100 < arena,
        "the apply owns {ext} B of a {arena} B arena (≥ 1%)"
    );
    assert!(published.waste_bytes() > 0, "copied-out nodes are waste");
    assert!(rearmed.act().shares_base_with(published.act()));
    let reopened = ActIndex::from_mapped(Arc::clone(&snap));
    assert!(
        rearmed.act().shares_base_with(reopened.act()),
        "the shared base is the mapping itself"
    );
    assert_eq!(
        rearmed.act().ext_bytes(),
        ext,
        "a clone copies the ext only"
    );

    // Both epochs answer with the fence; the mapping still answers
    // without it.
    let has_fence = |refs: Vec<(u32, bool)>| refs.iter().any(|&(r, _)| r == id);
    assert!(has_fence(published.as_view().lookup_refs(center)));
    assert!(has_fence(rearmed.as_view().lookup_refs(center)));
    assert!(!has_fence(snap.view().lookup_refs(center)));

    for p in [&path, &dpath] {
        std::fs::remove_file(p).unwrap();
    }
}

/// A snapshot streamed to a file is the `save_snapshot` image byte for
/// byte, `save_file` returns that image's checksum, and a delta chained
/// onto the checksum applies to an index opened over the file.
#[test]
fn a_saved_file_equals_save_snapshot_and_the_next_delta_chains_onto_it() {
    let (snap, path, id, center) = mapped_fixture("fold.snap");
    let mut edited = ActIndex::from_mapped(Arc::clone(&snap));
    edited.insert_polygon(id, &fence(center, 0.0004)).unwrap();
    assert!(edited.act().ext_bytes() > 0);

    let folded = temp_path("fold-2.snap");
    let sum = edited.as_view().save_file(&folded).unwrap();
    let mut image = Vec::new();
    edited.save_snapshot(&mut image).unwrap();
    assert_eq!(std::fs::read(&folded).unwrap(), image);
    assert_eq!(act_core::header_checksum(&image), Some(sum));
    assert_eq!(edited.as_view().snapshot_checksum(), sum);

    let base = Arc::new(MappedSnapshot::open(&folded).unwrap());
    assert_eq!(base.checksum(), sum);
    let dpath = temp_path("fold-2.snap.d1");
    save_delta_file(&[DeltaOp::Remove { id }], DeltaLink::for_base(sum), &dpath).unwrap();
    let mut next = ActIndex::from_mapped(base);
    apply_delta_file(&mut next, &dpath, DeltaLink::for_base(sum)).unwrap();
    assert!(next
        .as_view()
        .lookup_refs(center)
        .iter()
        .all(|&(r, _)| r != id));
    assert!(edited
        .as_view()
        .lookup_refs(center)
        .iter()
        .any(|&(r, _)| r == id));

    for p in [&path, &folded, &dpath] {
        std::fs::remove_file(p).unwrap();
    }
}
