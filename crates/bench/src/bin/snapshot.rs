//! Emits `BENCH_snapshot.json`: build-once / load-many timings for the
//! versioned index snapshots (`act_core::snapshot`). The question this
//! baseline answers: how much faster is a warm start from disk than
//! rebuilding the index from the polygon set?
//!
//! ```text
//! cargo run --release -p bench --bin snapshot [--datasets a,b] [--seed S] [--snapshot DIR] [--mmap]
//! ```
//!
//! Per selected dataset it builds the index once (timed), saves the
//! snapshot (timed), then loads it back [`LOADS`] times in both modes —
//! owned ([`ActIndex::load_snapshot`]) and zero-copy
//! ([`act_core::MappedSnapshot::read_from`]: read into an aligned heap
//! buffer + validate, then probe through its [`act_core::ActIndexView`];
//! recorded under the `load_view_*` keys) — verifying after every load
//! that the arena is byte-identical to the built one and that a probe
//! sample agrees. Minimum load times are recorded (the steady
//! warm-page-cache state a restarting fleet node sees).
//!
//! `--mmap` adds a third mode: [`act_core::MappedSnapshot::open`], where
//! "load" is mmap + validate and the page cache backs the probes — the
//! serving path `act-serve` runs on. On a warm cache it skips the big
//! copy entirely, so it should beat the heap read.

use act_core::{
    header_checksum, save_delta_file, ActIndex, DeltaLink, DeltaOp, MappedSnapshot, Probe,
};
use bench::json::{array, machine_stamp, pretty, Obj};
use bench::{make_points, paper_datasets, snapshot_path, to_cells, Opts};
use geom::{Coord, Polygon, Ring};
use std::time::Instant;

/// Loads per mode; the minimum is recorded.
const LOADS: usize = 5;
/// Probe sample size for post-load verification.
const VERIFY_POINTS: usize = 50_000;

fn main() {
    let opts = Opts::parse();
    // Census at 15 m is the census-scale configuration this baseline is
    // about; neighborhoods rides along as a small-index contrast.
    let selected: Vec<String> = if opts.datasets.is_empty() {
        vec!["neighborhoods".into(), "census".into()]
    } else {
        opts.datasets.clone()
    };
    let dir = opts
        .snapshot
        .clone()
        .unwrap_or_else(|| "target/snapshot-bench".to_string());
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    println!("SNAPSHOT: build-once/load-many, datasets {selected:?}, dir {dir}");

    let mut entries = Vec::new();
    for ds in paper_datasets(opts.seed) {
        if !selected.iter().any(|d| d == &ds.name) {
            continue;
        }
        let precision = 15.0;
        println!(
            "\n=== {} ({} polygons, {precision} m) ===",
            ds.name,
            ds.polygons.len()
        );

        // Build once (the cost a warm start avoids).
        let t = Instant::now();
        let built = ActIndex::build(&ds.polygons, precision).expect("single-face datasets");
        let build_secs = t.elapsed().as_secs_f64();
        println!(
            "build: {build_secs:.3} s ({} nodes, {:.1} MB)",
            built.act().num_nodes(),
            built.memory_bytes() as f64 / 1e6
        );

        // Save once.
        let path = snapshot_path(&dir, &ds.name, precision);
        let t = Instant::now();
        let mut f = std::fs::File::create(&path).expect("create snapshot file");
        let snapshot_bytes = built.save_snapshot(&mut f).expect("save snapshot");
        drop(f);
        let save_secs = t.elapsed().as_secs_f64();
        println!(
            "save:  {save_secs:.3} s, {:.1} MB to {}",
            snapshot_bytes as f64 / 1e6,
            path.display()
        );

        // The probe sample every loaded copy must answer identically.
        let sample = make_points(&ds, VERIFY_POINTS, opts.seed);
        let cells = to_cells(&sample);
        let mut want = vec![Probe::Miss; cells.len()];
        built.as_view().probe_batch(&cells, &mut want);
        let mut got = vec![Probe::Miss; cells.len()];

        // Owned loads.
        let mut owned_runs = Vec::new();
        for _ in 0..LOADS {
            let t = Instant::now();
            let mut f = std::fs::File::open(&path).expect("open snapshot file");
            let loaded = ActIndex::load_snapshot(&mut f).expect("load snapshot");
            owned_runs.push(t.elapsed().as_secs_f64());
            assert!(
                loaded.identical_to(&built),
                "loaded index diverged — not recording"
            );
            loaded.as_view().probe_batch(&cells, &mut got);
            assert_eq!(got, want, "loaded probes diverged — not recording");
        }

        // Zero-copy view loads (MappedSnapshot::read_from: read into an
        // aligned heap buffer + validate; probing happens straight off
        // the buffer).
        let mut view_runs = Vec::new();
        for _ in 0..LOADS {
            let t = Instant::now();
            let mut f = std::fs::File::open(&path).expect("open snapshot file");
            let snap = MappedSnapshot::read_from(&mut f).expect("read snapshot");
            view_runs.push(t.elapsed().as_secs_f64());
            snap.view().probe_batch(&cells, &mut got);
            assert_eq!(got, want, "view probes diverged — not recording");
        }

        // Memory-mapped loads (--mmap): open = mmap + validate; probing
        // faults pages in from the cache on demand. The probe sample
        // runs outside the timed region, like the other modes.
        let mut mmap_runs = Vec::new();
        if opts.mmap {
            for _ in 0..LOADS {
                let t = Instant::now();
                let mapped = MappedSnapshot::open(&path).expect("map snapshot");
                mmap_runs.push(t.elapsed().as_secs_f64());
                assert!(mapped.is_mmap() || !cfg!(unix), "unix must really map");
                mapped.view().probe_batch(&cells, &mut got);
                assert_eq!(got, want, "mmap probes diverged — not recording");
            }
        }

        // Delta apply (the live-update path): a one-polygon ACTDLT01
        // delta applied in place to a primed scratch index — what the
        // act-serve watcher does per delta instead of a full reload.
        // Timed region = the apply itself (the watcher's apply-to-
        // publish latency); the scratch re-clone runs after publish,
        // off that path, and is recorded separately. The polygon is a
        // realistic churn unit: a ~40 m geofence, not a district (those
        // go through a rebuild, not a delta).
        let delta_p = {
            let c = Coord::new(
                (ds.bbox.min.x + ds.bbox.max.x) / 2.0,
                (ds.bbox.min.y + ds.bbox.max.y) / 2.0,
            );
            let h = 0.0002; // ~20 m half-width at NYC latitudes
            Polygon::new(
                Ring::new(vec![
                    Coord::new(c.x - h, c.y - h),
                    Coord::new(c.x + h, c.y - h),
                    Coord::new(c.x + h, c.y + h),
                    Coord::new(c.x - h, c.y + h),
                    Coord::new(c.x - h, c.y - h),
                ]),
                vec![],
            )
        };
        let base_sum = header_checksum(&std::fs::read(&path).expect("read snapshot"))
            .expect("snapshot header");
        let delta_file = path.with_extension("snap.d1");
        let ops = [DeltaOp::Insert {
            id: ds.polygons.len() as u32,
            polygon: delta_p,
        }];
        save_delta_file(&ops, DeltaLink::for_base(base_sum), &delta_file).expect("save delta");
        let delta_bytes = std::fs::metadata(&delta_file).expect("stat delta").len();
        let new_id = ds.polygons.len() as u32;
        // Resolved-id ground truth (raw probes encode arena offsets,
        // which legitimately shift when the arena mutates).
        let want_refs: Vec<Vec<(u32, bool)>> = sample
            .iter()
            .map(|&p| built.as_view().lookup_refs(p))
            .collect();
        let mut scratch = built.clone();
        scratch.prime_mutations(); // one-time, like the watcher's lineage open
        let mut delta_runs = Vec::new();
        let mut clone_runs = Vec::new();
        for _ in 0..LOADS {
            let t = Instant::now();
            let mut live = scratch.clone();
            clone_runs.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            act_core::apply_delta_file(&mut live, &delta_file, DeltaLink::for_base(base_sum))
                .expect("apply delta");
            delta_runs.push(t.elapsed().as_secs_f64());
            // Modulo the freshly inserted polygon, every sample point
            // must resolve exactly as in the built index.
            for (p, w) in sample.iter().zip(&want_refs) {
                let mut refs = live.as_view().lookup_refs(*p);
                refs.retain(|r| r.0 != new_id);
                assert_eq!(
                    &refs, w,
                    "delta-applied lookup diverged at {p} — not recording"
                );
            }
        }
        std::fs::remove_file(&delta_file).ok();

        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let (owned_min, view_min) = (min(&owned_runs), min(&view_runs));
        let delta_min = min(&delta_runs);
        println!(
            "load:  owned {owned_min:.3} s ({:.0}x vs build), zero-copy {view_min:.3} s ({:.0}x vs build)",
            build_secs / owned_min,
            build_secs / view_min
        );
        if opts.mmap {
            println!(
                "mmap:  {:.6} s open+validate ({:.0}x vs build; probes run off the page cache)",
                min(&mmap_runs),
                build_secs / min(&mmap_runs)
            );
        }
        println!(
            "delta: {delta_min:.6} s in-place apply of a {delta_bytes}-byte one-polygon delta \
             ({:.0}x vs owned reload; off-path scratch re-clone {:.3} s)",
            owned_min / delta_min,
            min(&clone_runs)
        );

        let runs = |v: &[f64]| array(v.iter().map(|s| format!("{s:.6}")));
        let mut entry = Obj::new()
            .str("dataset", &ds.name)
            .int("polygons", ds.polygons.len() as u64)
            .num("precision_m", precision)
            .int("snapshot_bytes", snapshot_bytes)
            .int("index_nodes", built.act().num_nodes() as u64)
            .num("build_secs", build_secs)
            .num("save_secs", save_secs)
            .num("load_owned_secs_min", owned_min)
            .num("load_view_secs_min", view_min)
            .num("build_over_load_owned", build_secs / owned_min)
            .num("build_over_load_view", build_secs / view_min)
            .raw("load_owned_secs", runs(&owned_runs))
            .raw("load_view_secs", runs(&view_runs))
            .int("delta_bytes", delta_bytes)
            .num("delta_apply_secs_min", delta_min)
            .num("reload_owned_over_delta_apply", owned_min / delta_min)
            .num("delta_scratch_clone_secs_min", min(&clone_runs))
            .raw("delta_apply_secs", runs(&delta_runs));
        if opts.mmap {
            entry = entry
                .num("load_mmap_secs_min", min(&mmap_runs))
                .num("build_over_load_mmap", build_secs / min(&mmap_runs))
                .raw("load_mmap_secs", runs(&mmap_runs));
        }
        entries.push(entry.build());
    }

    let doc = Obj::new()
        .str("bench", "snapshot")
        .str("command", "cargo run --release -p bench --bin snapshot")
        .raw("machine", machine_stamp())
        .int("seed", opts.seed)
        .int("loads_per_mode", LOADS as u64)
        .raw("snapshot_runs", array(entries))
        .build();

    // Anchor to the workspace root (two levels above crates/bench) so the
    // committed baseline is updated regardless of the invocation CWD.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(root.join("BENCH_snapshot.json"), pretty(&doc))
        .expect("write BENCH_snapshot.json");
    println!("\nwrote BENCH_snapshot.json to {}", root.display());
}
