//! act-bench — the repository's benchmark: five workloads, end-to-end
//! metrics with a per-layer ledger, and a paired-run compare.
//!
//! ```text
//! act-bench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//!               [--smoke] [--out FILE]
//! act-bench compare A.jsonl B.jsonl
//! act-bench cache census|surge|neighborhoods
//! ```
//!
//! `run` measures one workload (all five without `--workload`) and prints
//! one JSON line per workload: `correct`, `attempted`, `failed` and the
//! metrics of its tier — the end-to-end metrics, or the per-layer ones
//! with `--trace`. `--out` appends the full record (workload, seed, input
//! fingerprints and every metric, extras included) for `compare`. The run
//! exits non-zero on any wrong answer. `cache` builds one dataset's
//! cached snapshot ahead of the runs that need it. See README.md beside
//! this file for the workloads, metrics and how to read them.

mod compare;
mod data;
mod drive;
mod ledger;
mod metrics;
mod stats;
mod workloads;

use bench::json::Obj;
use metrics::{def, Tier};
use std::io::Write;
use std::time::Duration;
use workloads::{Ctx, Record, WORKLOADS};

const USAGE: &str = "\
usage: act-bench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]
       act-bench compare A.jsonl B.jsonl
       act-bench cache census|surge|neighborhoods
workloads: join-census serve-census serve-surge-zipf route-census churn-census";

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: WORKLOADS.to_vec(),
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                let known = WORKLOADS
                    .iter()
                    .find(|&&k| k == w)
                    .ok_or_else(|| format!("unknown workload {w:?}"))?;
                r.workloads = vec![known];
            }
            "--seed" => {
                r.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer")?;
            }
            "--seconds" => {
                let s: u64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects an integer")?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                r.seconds = Some(s);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                }
                Some("1") => {
                    i += 1;
                    r.trace = true;
                }
                _ => r.trace = true,
            },
            "--smoke" => r.smoke = true,
            "--out" => r.out = Some(value(&mut i, "--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(r)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, …}` for the metrics `keep` selects.
fn metrics_json(rec: &Record, keep: impl Fn(Tier) -> bool) -> String {
    let mut o = Obj::new();
    for &(name, v) in &rec.metrics {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} missing from the registry"));
        if keep(d.tier) {
            o = o.raw(
                name,
                Obj::new().raw("value", num(v)).str("unit", d.unit).build(),
            );
        }
    }
    o.build()
}

/// Every metric the tier must report is present and finite.
fn complete(rec: &Record, tier: Tier) -> Result<(), String> {
    for d in metrics::DEFS.iter().filter(|d| d.tier == tier) {
        match rec.metrics.iter().find(|(n, _)| *n == d.name) {
            Some((_, v)) if v.is_finite() => {}
            Some((_, v)) => return Err(format!("metric {} is {v}", d.name)),
            None => return Err(format!("metric {} was not measured", d.name)),
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<i32, String> {
    let r = parse_run(args)?;
    let seconds = r.seconds.unwrap_or(if r.smoke { 1 } else { 10 });
    let ctx = Ctx::new(r.seed, Duration::from_secs(seconds), r.smoke, r.trace);
    let tier = if r.trace {
        Tier::PerLayer
    } else {
        Tier::EndToEnd
    };
    let mut code = 0;
    for &w in &r.workloads {
        let t = std::time::Instant::now();
        let rec = workloads::run(w, &ctx).map_err(|e| format!("{w}: {e}"))?;
        let shape = complete(&rec, tier);
        let correct = rec.failed == 0 && shape.is_ok();
        if let Err(e) = &shape {
            eprintln!("act-bench: {w}: {e}");
        }
        if !correct {
            code = 1;
        }
        let full = Obj::new()
            .str("workload", w)
            .int("seed", r.seed)
            .int("seconds", seconds)
            .bool("trace", r.trace)
            .bool("smoke", r.smoke)
            .raw("machine", bench::json::machine_stamp())
            .raw(
                "fingerprints",
                Obj::new()
                    .str("polygons", &format!("{:016x}", rec.fp_polygons))
                    .str("points", &format!("{:016x}", rec.fp_points))
                    .build(),
            )
            .bool("correct", correct)
            .int("attempted", rec.attempted)
            .int("failed", rec.failed)
            .raw("metrics", metrics_json(&rec, |_| true))
            .build();
        eprintln!(
            "act-bench: {w} finished in {:.1} s\n{full}",
            t.elapsed().as_secs_f64()
        );
        if let Some(path) = &r.out {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{full}"))
                .map_err(|e| format!("append to {path}: {e}"))?;
        }
        println!(
            "{}",
            Obj::new()
                .bool("correct", correct)
                .int("attempted", rec.attempted.max(1))
                .int("failed", rec.failed)
                .raw("metrics", metrics_json(&rec, |t| t == tier))
                .build()
        );
    }
    Ok(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("cache") if args.len() == 2 => workloads::cache(&args[1]),
        _ => Err("expected a subcommand".to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("act-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::{parse, Json};
    use stats::{Better, Bound};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cli_takes_trace_as_a_value_or_a_flag() {
        let r = parse_run(&args(
            "--workload serve-census --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(r.workloads, vec!["serve-census"]);
        assert_eq!((r.seed, r.seconds, r.trace), (7, Some(10), false));
        let r = parse_run(&args("--trace 1 --smoke")).unwrap();
        assert!(r.trace && r.smoke);
        assert_eq!(r.workloads.len(), 5);
        let r = parse_run(&args("--trace --smoke --out x.jsonl")).unwrap();
        assert!(r.trace && r.smoke);
        assert_eq!(r.out.as_deref(), Some("x.jsonl"));
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
        assert!(parse_run(&args("--bogus")).is_err());
    }

    /// The repository root: the first directory above the manifest that
    /// holds `BENCHMARK.json`.
    fn repo_root() -> std::path::PathBuf {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        }
        dir
    }

    /// The manifest beside this file copies the workspace's release
    /// profile (a package outside the workspace cannot inherit it), so
    /// both ways of building act-bench measure the same code generation.
    #[test]
    fn release_profile_matches_the_workspace() {
        let section = |toml: &str| -> Vec<String> {
            toml.lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let workspace = std::fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
        let own = section(include_str!("Cargo.toml"));
        assert!(!own.is_empty(), "no [profile.release] beside main.rs");
        assert_eq!(own, section(&workspace));
    }

    /// `BENCHMARK.json` (at the repository root) must list exactly the
    /// registry's end-to-end and per-layer metrics and the workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc = parse(&text).unwrap();
        let names = |key: &str| -> Vec<Json> {
            match doc.get(key) {
                Some(Json::Arr(v)) => v.clone(),
                _ => panic!("{key} is not an array"),
            }
        };
        let workloads: Vec<String> = names("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, tier) in [
            ("end_to_end", Tier::EndToEnd),
            ("per_layer", Tier::PerLayer),
        ] {
            let listed = names(key);
            let want: Vec<_> = metrics::DEFS.iter().filter(|d| d.tier == tier).collect();
            assert_eq!(listed.len(), want.len(), "{key}");
            for (m, d) in listed.iter().zip(want) {
                assert_eq!(m.get("name").and_then(Json::str), Some(d.name));
                assert_eq!(
                    m.get("unit").and_then(Json::str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(
                    m.get("better").and_then(Json::str),
                    Some(better),
                    "{}",
                    d.name
                );
                let bound = d.bound.map(|b| match b {
                    Bound::Relative(r) | Bound::Absolute(r) => r,
                });
                assert_eq!(m.get("bound").and_then(Json::num), bound, "{}", d.name);
            }
        }
    }
}
