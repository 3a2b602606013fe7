//! Golden-snapshot regression: a committed fixture (built from a seeded
//! `datagen` lattice) pins snapshot format version 2. Today's loader must
//! read it, and today's writer must reproduce it **byte for byte** —
//! any layout change breaks this test until the format version is bumped
//! and the fixture re-blessed (see the `act_core::snapshot` module docs).
//!
//! The retired version-1 fixture (8-byte trie slots) stays committed as a
//! negative case: every load path must refuse it with a typed
//! [`SnapshotError::UnsupportedVersion`], never a panic.
//!
//! Re-bless after an intentional format change:
//!
//! ```sh
//! ACT_BLESS_SNAPSHOT=1 cargo test -p act-tests --test snapshot_golden
//! ```
//!
//! The fixture's trie/roots/table bytes are also cross-checked against a
//! fresh build of the same seeded dataset, so the fixture can never
//! drift away from what the pipeline actually produces. (The fresh-build
//! comparison assumes the platform's f64 math matches the blessing
//! machine's — true for the tier-1 linux-x86_64 CI; the byte-for-byte
//! writer check is platform-independent.)

use act_core::snapshot::SnapshotError;
use act_core::{ActIndex, MappedSnapshot};
use datagen::PointGen;

/// The seeded dataset the fixture was built from. Changing any of these
/// constants requires re-blessing the fixture.
const GRID: (usize, usize) = (3, 2);
const SEED: u64 = 11;
// 4 km keeps the fixture tiny (11 trie nodes ≈ 12 kB) while still
// exercising a multi-node arena and a non-empty lookup table.
const PRECISION_M: f64 = 4000.0;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/snapshot_golden_v2.snap")
}

fn retired_v1_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/snapshot_golden_v1.snap")
}

fn build_fixture_index() -> (ActIndex, datagen::Dataset) {
    let ds = datagen::blocks_scaled(GRID.0, GRID.1, SEED);
    let idx = ActIndex::build(&ds.polygons, PRECISION_M).unwrap();
    (idx, ds)
}

#[test]
fn golden_snapshot_round_trips_byte_for_byte() {
    let path = fixture_path();
    let (fresh, ds) = build_fixture_index();

    if std::env::var("ACT_BLESS_SNAPSHOT").is_ok() {
        let mut bytes = Vec::new();
        fresh.save_snapshot(&mut bytes).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        panic!(
            "blessed {} ({} bytes) — rerun without ACT_BLESS_SNAPSHOT",
            path.display(),
            bytes.len()
        );
    }

    let fixture = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); bless it with \
             ACT_BLESS_SNAPSHOT=1 cargo test -p act-tests --test snapshot_golden",
            path.display()
        )
    });

    // 1. Today's loader reads yesterday's bytes (owned + zero-copy).
    let loaded = ActIndex::load_snapshot(&mut fixture.as_slice())
        .expect("fixture must load with the current loader");
    let mapped = MappedSnapshot::open(&path).expect("fixture must open as a zero-copy view");
    let view = mapped.view();

    // 2. Today's writer reproduces the fixture byte for byte.
    let mut rewritten = Vec::new();
    loaded.save_snapshot(&mut rewritten).unwrap();
    assert!(
        rewritten == fixture,
        "writer no longer reproduces the v2 fixture byte-for-byte; \
         if the format change is intentional, bump FORMAT_VERSION and re-bless"
    );

    // 3. The fixture is what the pipeline produces today: structural
    //    equality with a fresh build (wall-time stats excluded).
    assert_eq!(loaded.act().slots(), fresh.act().slots());
    assert_eq!(loaded.act().roots(), fresh.act().roots());
    assert_eq!(loaded.stats().indexed_cells, fresh.stats().indexed_cells);
    assert_eq!(loaded.stats().covering_cells, fresh.stats().covering_cells);
    assert_eq!(loaded.stats().precision_m, fresh.stats().precision_m);
    assert_eq!(loaded.stats().terminal_level, fresh.stats().terminal_level);
    assert_eq!(
        loaded.stats().lookup_table_bytes,
        fresh.stats().lookup_table_bytes
    );
    assert_eq!(loaded.stats().act_bytes, fresh.stats().act_bytes);

    // 4. Probes through fixture, view, and fresh index all agree.
    let pts = PointGen::nyc_taxi_like(ds.bbox, 3).take_vec(2_000);
    for &p in &pts {
        let want = fresh.as_view().lookup_refs(p);
        assert_eq!(
            loaded.as_view().lookup_refs(p),
            want,
            "fixture disagrees at {p}"
        );
        assert_eq!(view.lookup_refs(p), want, "view disagrees at {p}");
    }
}

#[test]
fn retired_v1_fixture_is_a_typed_version_error_on_every_load_path() {
    let path = retired_v1_fixture_path();
    let bytes = std::fs::read(&path).expect("v1 fixture present");
    assert_eq!(&bytes[0..8], b"ACTSNP01");
    let is_v1 = |e: &SnapshotError| matches!(e, SnapshotError::UnsupportedVersion { found: 1 });

    let owned = ActIndex::load_snapshot(&mut bytes.as_slice()).unwrap_err();
    assert!(is_v1(&owned), "owned load: {owned:?}");

    let streamed = MappedSnapshot::read_from(&mut bytes.as_slice()).unwrap_err();
    assert!(is_v1(&streamed), "streamed buffer: {streamed:?}");

    let mapped = MappedSnapshot::open(&path).unwrap_err();
    assert!(is_v1(&mapped), "mmap: {mapped:?}");
    let mut file = std::fs::File::open(&path).unwrap();
    let heap = MappedSnapshot::read_from(&mut file).unwrap_err();
    assert!(is_v1(&heap), "heap-backed snapshot: {heap:?}");
    let mut padded = vec![0u8; bytes.len() + 1];
    padded[1..].copy_from_slice(&bytes);
    let unaligned = MappedSnapshot::read_from(&mut &padded[1..]).unwrap_err();
    assert!(is_v1(&unaligned), "caller bytes: {unaligned:?}");
}

/// A delta lineage rooted at the golden v2 fixture: save a chain of
/// ACTDLT01 deltas against the fixture's checksum, apply them in order,
/// and verify the result equals the same edits replayed on a fresh load.
/// The fixture file itself is read-only here — the lineage rides beside
/// it in a temp dir — so v2 bytes stay pinned while the delta format
/// proves it can extend them.
#[test]
fn golden_fixture_anchors_a_delta_lineage() {
    use act_core::{apply_delta_file, header_checksum, save_delta_file, DeltaLink, DeltaOp};
    use geom::{Coord, Polygon, Ring};

    let fixture = std::fs::read(fixture_path()).expect("golden fixture present");
    let base_sum = header_checksum(&fixture).expect("fixture has a whole header");
    let (_, ds) = build_fixture_index();

    let square = |cx: f64, cy: f64, h: f64| {
        Polygon::new(
            Ring::new(vec![
                Coord::new(cx - h, cy - h),
                Coord::new(cx + h, cy - h),
                Coord::new(cx + h, cy + h),
                Coord::new(cx - h, cy + h),
            ]),
            vec![],
        )
    };
    let c = Coord::new(
        (ds.bbox.min.x + ds.bbox.max.x) / 2.0,
        (ds.bbox.min.y + ds.bbox.max.y) / 2.0,
    );
    let added = square(c.x, c.y, 0.002);
    let new_id = ds.polygons.len() as u32;

    let dir = std::env::temp_dir().join(format!("act-golden-delta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let d1 = dir.join("v2.snap.d1");
    let d2 = dir.join("v2.snap.d2");

    // Save the chain: insert a polygon, then remove polygon 0.
    let link0 = DeltaLink::for_base(base_sum);
    let (link1, _) = save_delta_file(
        &[DeltaOp::Insert {
            id: new_id,
            polygon: added.clone(),
        }],
        link0,
        &d1,
    )
    .unwrap();
    save_delta_file(&[DeltaOp::Remove { id: 0 }], link1, &d2).unwrap();

    // Apply to a fixture load, in lineage order.
    let mut live = ActIndex::load_snapshot(&mut fixture.as_slice()).unwrap();
    let link = apply_delta_file(&mut live, &d1, link0).unwrap();
    apply_delta_file(&mut live, &d2, link).unwrap();

    // Out-of-order and replayed applies must be rejected without effect.
    let mut fresh_load = ActIndex::load_snapshot(&mut fixture.as_slice()).unwrap();
    assert!(
        apply_delta_file(&mut fresh_load, &d2, link0).is_err(),
        "skipping delta 1 must fail the lineage check"
    );
    assert!(
        apply_delta_file(&mut live, &d1, link).is_err(),
        "replaying delta 1 after delta 2 must fail the lineage check"
    );

    // The applied result equals the same edits made directly.
    let mut want = ActIndex::load_snapshot(&mut fixture.as_slice()).unwrap();
    want.insert_polygon(new_id, &added).unwrap();
    assert!(want.remove_polygon(0));
    let pts = PointGen::nyc_taxi_like(ds.bbox, 7).take_vec(2_000);
    for &p in &pts {
        assert_eq!(
            live.as_view().lookup_refs(p),
            want.as_view().lookup_refs(p),
            "delta-applied fixture diverged at {p}"
        );
    }
    assert!(
        !live.as_view().lookup_refs(c).is_empty(),
        "inserted polygon must probe"
    );

    // The fixture on disk is untouched by the whole exercise.
    assert_eq!(std::fs::read(fixture_path()).unwrap(), fixture);
    std::fs::remove_dir_all(&dir).ok();
}
