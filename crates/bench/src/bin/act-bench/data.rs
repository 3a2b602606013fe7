//! Workload inputs and the answer oracle: the polygon datasets, seeded
//! point streams, input fingerprints, the snapshot cache, per-frame answer
//! hashes, and the brute-force point-in-polygon sample check.

use act_core::{coord_to_cell, ActIndex, ActIndexView, Probe, Refiner};
use datagen::{Dataset, PointGen};
use geom::{Coord, Polygon};
use s2cell::CellId;
use std::borrow::Borrow;
use std::path::{Path, PathBuf};

/// Polygon sets are fixed datasets (generated under this seed); `--seed`
/// drives the query streams, hot sets and fences. Real deployments join a
/// changing point stream against a stable zone set, and a fixed set keeps
/// the multi-second index builds cacheable across seeds.
const DATASET_SEED: u64 = 42;

/// Where cached snapshots, run directories and trace files live
/// (relative to the directory the benchmark runs from).
pub const WORK_DIR: &str = "target/act-bench";

/// Snapshots of one dataset kept from other builds of the benchmark, so
/// that interleaved runs of two builds from one directory each find
/// their own.
const KEEP_OTHER_BUILDS: usize = 3;

/// The polygon sets the workloads index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zones {
    /// 39,184 census-block-like polygons.
    Census,
    /// 16 stacked layers of 8×8 surge zones (~16 refs per point).
    Surge,
    /// 289 neighborhood-like polygons (`--smoke`).
    Neighborhoods,
}

impl Zones {
    pub const ALL: [Zones; 3] = [Zones::Census, Zones::Surge, Zones::Neighborhoods];

    pub fn name(self) -> &'static str {
        match self {
            Zones::Census => "census",
            Zones::Surge => "surge",
            Zones::Neighborhoods => "neighborhoods",
        }
    }

    pub fn dataset(self) -> Dataset {
        match self {
            Zones::Census => datagen::census_blocks(DATASET_SEED),
            Zones::Surge => datagen::surge_zones(DATASET_SEED, 16, 8, 8),
            Zones::Neighborhoods => datagen::neighborhoods(DATASET_SEED),
        }
    }

    /// The precision guarantee ε the dataset is indexed at: the paper's
    /// 15 m tier, except the surge stack, which takes its 60 m tier. At
    /// 15 m the 16 overlapping layers take over 30 s to build (nearly all
    /// of it merging the super-covering); at 60 m they take ~6 s with the
    /// same ~16 refs per point, and the cache path it serves never walks.
    pub fn precision_m(self) -> f64 {
        match self {
            Zones::Surge => 60.0,
            Zones::Census | Zones::Neighborhoods => 15.0,
        }
    }

    pub fn build(self, ds: &Dataset, pool: &jobs::JobPool) -> Result<ActIndex, String> {
        ActIndex::build_parallel(&ds.polygons, self.precision_m(), pool)
            .map_err(|e| format!("build {}: {e}", ds.name))
    }
}

/// The taxi-like point stream of a workload seed.
pub fn point_gen(ds: &Dataset, seed: u64) -> PointGen {
    PointGen::nyc_taxi_like(ds.bbox, seed)
}

// ---------------------------------------------------------------------
// Fingerprints and hashes
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words (one multiply per word, not per byte).
pub fn fnv_words(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Fingerprint of a polygon set: ring sizes and every vertex's bits, in
/// order. A `datagen` change shows up here as a different workload.
pub fn fingerprint_polygons(polys: &[Polygon]) -> u64 {
    polys.iter().fold(FNV_OFFSET, |h, p| {
        std::iter::once(p.outer()).chain(p.holes()).fold(
            fnv_words(h, [p.holes().len() as u64]),
            |h, ring| {
                let v = ring.vertices();
                let h = fnv_words(h, [v.len() as u64]);
                fnv_words(h, v.iter().flat_map(|c| [c.x.to_bits(), c.y.to_bits()]))
            },
        )
    })
}

/// Fingerprint of a coordinate stream.
pub fn fingerprint_coords(pts: &[Coord]) -> u64 {
    fnv_words(
        FNV_OFFSET,
        pts.iter().flat_map(|c| [c.x.to_bits(), c.y.to_bits()]),
    )
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One point's answer hash from its wire ref words (`(id << 1) | hit`).
/// Order-insensitive — a sum of mixed words — so an answer whose refs
/// come back in another order (a delta-edited or re-sharded trie) still
/// matches, while any missing, extra or re-flagged ref does not.
#[inline]
pub fn point_hash(words: impl Iterator<Item = u32>) -> u64 {
    let (n, sum) = words.fold((0u64, 0u64), |(n, s), w| {
        (n + 1, s.wrapping_add(mix64(u64::from(w) | 1 << 40)))
    });
    sum ^ mix64(n)
}

/// Folds point hashes, in frame order, into one frame hash.
pub fn frame_hash(points: impl Iterator<Item = u64>) -> u64 {
    fnv_words(FNV_OFFSET, points)
}

/// The frame hash of a decoded probe reply.
pub fn reply_hash(refs: &[Vec<(u32, bool)>]) -> u64 {
    frame_hash(refs.iter().map(|one| {
        point_hash(
            one.iter()
                .map(|&(id, hit)| act_serve::protocol::encode_ref(id, hit)),
        )
    }))
}

/// The frame hash of a raw probe-reply payload (`n × {count, refs}`),
/// walked without allocating; `None` when the payload is malformed.
pub fn payload_hash(n: u32, payload: &[u8]) -> Option<u64> {
    let word = |at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(
            payload.get(at..at + 4)?.try_into().ok()?,
        ))
    };
    let mut at = 0usize;
    // The same fold as `frame_hash`, one point at a time.
    let mut h = FNV_OFFSET;
    for _ in 0..n {
        let count = word(at)? as usize;
        let end = at.checked_add(4 + count.checked_mul(4)?)?;
        if end > payload.len() {
            return None;
        }
        let words = (0..count).map(|k| word(at + 4 + 4 * k).expect("bounds checked above"));
        h = fnv_words(h, [point_hash(words)]);
        at = end;
    }
    (at == payload.len()).then_some(h)
}

/// Per-point answer hashes of `cells` against `view` (the offline oracle:
/// `probe_batch` then `resolve_refs`).
pub fn point_hashes(view: &ActIndexView<'_>, cells: &[CellId]) -> Vec<u64> {
    let mut probes = vec![Probe::Miss; cells.len()];
    view.probe_batch(cells, &mut probes);
    probes
        .iter()
        .map(|&p| {
            point_hash(
                view.resolve_refs(p)
                    .map(|(id, hit)| act_serve::protocol::encode_ref(id, hit)),
            )
        })
        .collect()
}

/// Expected frame hashes for `cells` cut into frames of `frame` points.
pub fn frame_hashes(view: &ActIndexView<'_>, cells: &[CellId], frame: usize) -> Vec<u64> {
    point_hashes(view, cells)
        .chunks(frame)
        .map(|c| frame_hash(c.iter().copied()))
        .collect()
}

/// Indexes of a seeded sample of `k` positions out of `n`.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    (0..k.min(n) as u64)
        .map(|i| (mix64(seed ^ mix64(i)) % n as u64) as usize)
        .collect()
}

/// Brute-force check of `answer` (a point's reported `(id, true_hit)`
/// refs) against every polygon: no containing polygon is missing, every
/// true hit contains the point, and every candidate lies within
/// `eps_m`. Returns a description of the first violation.
pub fn check_point(
    polys: &[Polygon],
    refiner: &Refiner,
    p: Coord,
    answer: &[(u32, bool)],
    eps_m: f64,
) -> Result<(), String> {
    for (i, poly) in polys.iter().enumerate() {
        if poly.bbox().contains(p)
            && refiner.contains(i as u32, p)
            && !answer.iter().any(|&(id, _)| id as usize == i)
        {
            return Err(format!("polygon {i} contains {p} but was not reported"));
        }
    }
    for &(id, interior) in answer {
        let poly = polys
            .get(id as usize)
            .ok_or_else(|| format!("unknown polygon id {id} at {p}"))?;
        let d = poly.distance_meters(p);
        if interior && d != 0.0 {
            return Err(format!("true hit {id} lies {d:.2} m outside at {p}"));
        }
        if d > eps_m * 1.0001 {
            return Err(format!(
                "candidate {id} lies {d:.2} m away at {p} (ε = {eps_m} m)"
            ));
        }
    }
    Ok(())
}

/// [`check_point`] over `sample` with the view's own answers; returns the
/// number of violating points (the first few are printed).
pub fn check_sample(
    polys: &[Polygon],
    view: &ActIndexView<'_>,
    sample: &[Coord],
    eps_m: f64,
) -> u64 {
    let refiner = Refiner::new(polys);
    let mut bad = 0u64;
    for &p in sample {
        let answer: Vec<(u32, bool)> = view.resolve_refs(view.probe_coord(p)).collect();
        if let Err(e) = check_point(polys, &refiner, p, &answer, eps_m) {
            if bad < 5 {
                eprintln!("act-bench: oracle violation: {e}");
            }
            bad += 1;
        }
    }
    bad
}

// ---------------------------------------------------------------------
// Seeded Zipf ranks
// ---------------------------------------------------------------------

/// A seeded Zipf(s) rank sampler over `0..n`: precomputed CDF, xorshift64*
/// uniforms and binary search, so a seed always draws the same ranks.
pub struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        assert!(n > 0, "zipf needs a non-empty hot set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += ((k + 1) as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            state: mix64(seed) | 1,
        }
    }

    pub fn next_rank(&mut self) -> usize {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------
// Snapshot cache
// ---------------------------------------------------------------------

/// FNV over the running executable's bytes: part of every cache key, so a
/// commit never measures a snapshot another build wrote.
pub fn exe_hash() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let words = bytes.chunks(8).map(|c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    });
    fnv_words(fnv_words(FNV_OFFSET, [bytes.len() as u64]), words)
}

/// The cached snapshot of `ds`, keyed by the polygon fingerprint and the
/// executable hash. `index` is called only on a miss (it may build the
/// index or lend one already built); the miss also evicts all but the
/// newest [`KEEP_OTHER_BUILDS`] snapshots of `ds` from other builds.
pub fn cached_snapshot<I: Borrow<ActIndex>>(
    ds: &Dataset,
    exe: u64,
    index: impl FnOnce() -> Result<I, String>,
) -> Result<PathBuf, String> {
    let path = snapshot_path(ds, exe);
    if path.exists() {
        return Ok(path);
    }
    let dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    evict_other_builds(dir, &format!("{}-", ds.name));
    let t = std::time::Instant::now();
    let index = index()?;
    let tmp = path.with_extension(format!("{}.tmp", std::process::id()));
    let mut f = std::io::BufWriter::new(
        std::fs::File::create(&tmp).map_err(|e| format!("create {tmp:?}: {e}"))?,
    );
    let bytes = index
        .borrow()
        .save_snapshot(&mut f)
        .map_err(|e| format!("save {tmp:?}: {e}"))?;
    std::io::Write::flush(&mut f).map_err(|e| format!("write {tmp:?}: {e}"))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename {tmp:?}: {e}"))?;
    eprintln!(
        "act-bench: cached {} ({:.1} MB) in {:.1} s",
        path.display(),
        bytes as f64 / 1e6,
        t.elapsed().as_secs_f64()
    );
    Ok(path)
}

/// Where the snapshot of `ds` written by the executable hashing to `exe`
/// is cached.
pub fn snapshot_path(ds: &Dataset, exe: u64) -> PathBuf {
    let fp = fingerprint_polygons(&ds.polygons);
    Path::new(WORK_DIR).join(format!("{}-{fp:016x}-{exe:016x}.snap", ds.name))
}

/// Deletes all but the newest [`KEEP_OTHER_BUILDS`] cached snapshots
/// whose names start with `prefix`.
fn evict_other_builds(dir: &Path, prefix: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut found: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(prefix) && name.ends_with(".snap")
        })
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    found.sort_by_key(|(modified, _)| std::cmp::Reverse(*modified));
    for (_, p) in found.into_iter().skip(KEEP_OTHER_BUILDS) {
        let _ = std::fs::remove_file(p);
    }
}

/// A fresh per-run directory under [`WORK_DIR`], removed on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> Result<RunDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let p = Path::new(WORK_DIR).join(format!("run-{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&p).map_err(|e| format!("create {p:?}: {e}"))?;
        Ok(RunDir(p))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Converts a coordinate slice to leaf cells.
pub fn cells_of(pts: &[Coord]) -> Vec<CellId> {
    pts.iter().map(|&c| coord_to_cell(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Ring;

    fn square(cx: f64, cy: f64, h: f64) -> Polygon {
        Polygon::new(
            Ring::new(vec![
                Coord::new(cx - h, cy - h),
                Coord::new(cx + h, cy - h),
                Coord::new(cx + h, cy + h),
                Coord::new(cx - h, cy + h),
            ]),
            vec![],
        )
    }

    #[test]
    fn fingerprints_are_stable_and_order_sensitive() {
        let polys = vec![square(-74.0, 40.7, 0.01), square(-73.9, 40.8, 0.02)];
        // Pinned: a change here means every recorded fingerprint moved.
        assert_eq!(fingerprint_polygons(&polys), 0x7658_050f_a38a_1645);
        let swapped = vec![polys[1].clone(), polys[0].clone()];
        assert_ne!(fingerprint_polygons(&polys), fingerprint_polygons(&swapped));
        let pts = [Coord::new(-74.0, 40.7), Coord::new(-73.9, 40.8)];
        assert_ne!(
            fingerprint_coords(&pts),
            fingerprint_coords(&[pts[1], pts[0]])
        );
    }

    #[test]
    fn point_hash_ignores_ref_order_but_not_content() {
        let a = point_hash([2, 7, 9].into_iter());
        assert_eq!(a, point_hash([9, 2, 7].into_iter()));
        assert_ne!(a, point_hash([2, 7].into_iter()));
        assert_ne!(a, point_hash([2, 7, 8].into_iter()));
        assert_ne!(point_hash([].into_iter()), point_hash([0].into_iter()));
        // Frames are position-sensitive.
        assert_ne!(
            frame_hash([1, 2].into_iter()),
            frame_hash([2, 1].into_iter())
        );
    }

    #[test]
    fn payload_and_decoded_reply_hashes_agree() {
        use act_serve::protocol::encode_ref;
        let refs = vec![vec![(5, true), (9, false)], vec![], vec![(3, false)]];
        let mut payload = Vec::new();
        for one in &refs {
            payload.extend_from_slice(&(one.len() as u32).to_le_bytes());
            for &(id, hit) in one {
                payload.extend_from_slice(&encode_ref(id, hit).to_le_bytes());
            }
        }
        assert_eq!(payload_hash(3, &payload), Some(reply_hash(&refs)));
        assert_eq!(payload_hash(4, &payload), None, "truncated");
        assert_eq!(payload_hash(2, &payload), None, "trailing bytes");
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let draw = |seed| {
            let mut z = Zipf::new(1000, 1.1, seed);
            (0..5000).map(|_| z.next_rank()).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&r| r < 1000));
        let top = a.iter().filter(|&&r| r < 100).count();
        assert!(top > a.len() / 2, "top decile drew only {top}");
    }

    #[test]
    fn brute_force_check_flags_misses_and_far_candidates() {
        let polys = vec![square(-74.0, 40.7, 0.01)];
        let refiner = Refiner::new(&polys);
        let inside = Coord::new(-74.0, 40.7);
        let check = |p, answer: &[(u32, bool)], eps| check_point(&polys, &refiner, p, answer, eps);
        assert!(check(inside, &[(0, true)], 15.0).is_ok());
        assert!(check(inside, &[], 15.0).is_err());
        let far = Coord::new(-73.9, 40.7);
        assert!(check(far, &[], 15.0).is_ok());
        assert!(check(far, &[(0, false)], 15.0).is_err());
        assert!(check(far, &[(3, false)], 15.0).is_err());
        // ~25 m east of the square: a candidate within 60 m, not 15 m.
        let near = Coord::new(-73.99 + 0.0003, 40.7);
        assert!(check(near, &[(0, false)], 15.0).is_err());
        assert!(check(near, &[(0, false)], 60.0).is_ok());
        assert!(check(near, &[(0, true)], 60.0).is_err());
    }

    #[test]
    fn eviction_keeps_the_newest_snapshots_of_one_dataset() {
        let dir = std::env::temp_dir().join(format!("act-bench-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let now = std::time::SystemTime::now();
        for k in 0..5u64 {
            let f = std::fs::File::create(dir.join(format!("census-fp-{k}.snap"))).unwrap();
            f.set_modified(now - std::time::Duration::from_secs(100 - k))
                .unwrap();
        }
        std::fs::write(dir.join("surge-fp-0.snap"), b"").unwrap();
        std::fs::write(dir.join("census-fp-9.123.tmp"), b"").unwrap();
        evict_other_builds(&dir, "census-");
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            left,
            [
                "census-fp-2.snap",
                "census-fp-3.snap",
                "census-fp-4.snap",
                "census-fp-9.123.tmp",
                "surge-fp-0.snap"
            ]
        );
    }

    #[test]
    fn samples_are_seeded_and_in_range() {
        let a = sample_indices(1000, 50, 3);
        assert_eq!(a, sample_indices(1000, 50, 3));
        assert_ne!(a, sample_indices(1000, 50, 4));
        assert!(a.iter().all(|&i| i < 1000));
        assert_eq!(sample_indices(10, 50, 3).len(), 10);
    }
}
