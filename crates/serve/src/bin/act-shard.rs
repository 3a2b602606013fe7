//! Splits one `ACTSNP01` snapshot into N per-shard snapshots for a
//! sharded worker fleet (see `act_core::shard` for the cut).
//!
//! ```text
//! act-shard <snapshot> <out-dir> <num-shards> [--split-level L]
//! ```
//!
//! Maps `<snapshot>` (validated on open) and writes
//! `shard-<k>-of-<n>.snap` under `<out-dir>` one shard at a time (atomic
//! rename per shard), each a full self-validating snapshot an
//! `act-serve` worker mmaps directly. The router must be started with
//! the same split level (default `act_core::DEFAULT_SPLIT_LEVEL`).

use act_core::{write_shard_files, ActIndex, MappedSnapshot, DEFAULT_SPLIT_LEVEL};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: act-shard <snapshot> <out-dir> <num-shards> [--split-level L]";

fn main() -> ExitCode {
    let mut snapshot: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut num_shards: Option<usize> = None;
    let mut split_level = DEFAULT_SPLIT_LEVEL;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--split-level" => match args.next().and_then(|v| v.parse::<u8>().ok()) {
                Some(l) if l <= 14 => split_level = l,
                _ => return usage("--split-level takes a level in 0..=14"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if snapshot.is_none() => snapshot = Some(PathBuf::from(a)),
            _ if out_dir.is_none() => out_dir = Some(PathBuf::from(a)),
            _ if num_shards.is_none() => match a.parse::<usize>() {
                Ok(n) if n > 0 => num_shards = Some(n),
                _ => return usage("num-shards must be a positive integer"),
            },
            _ => return usage("unexpected extra argument"),
        }
    }
    let (Some(snapshot), Some(out_dir), Some(num_shards)) = (snapshot, out_dir, num_shards) else {
        return usage("missing required arguments");
    };

    // Read over the mapping: the split only reads the index, so it
    // needs no heap copy of the arena or the table.
    let index = match MappedSnapshot::open(&snapshot) {
        Ok(snap) => ActIndex::from_mapped(Arc::new(snap)),
        Err(e) => return fail(&format!("open {}: {e}", snapshot.display())),
    };
    match write_shard_files(&index, &out_dir, split_level, num_shards) {
        Ok(paths) => {
            for p in &paths {
                println!("{}", p.display());
            }
            eprintln!(
                "sharded {} into {num_shards} shards at split level {split_level} under {}",
                snapshot.display(),
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("shard: {e}")),
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("act-shard: {why}\n{USAGE}");
    ExitCode::from(2)
}

fn fail(why: &str) -> ExitCode {
    eprintln!("act-shard: {why}");
    ExitCode::FAILURE
}
