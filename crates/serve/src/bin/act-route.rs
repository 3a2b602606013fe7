//! The scatter-gather router: one protocol endpoint in front of a
//! sharded `act-serve` fleet (see `act_serve::router`).
//!
//! ```text
//! act-route --shard <addr> [--shard <addr> ...] [--addr A] [--split-level L]
//!           [--metrics-addr A] [--trace-every N] [--trace-seed S]
//! ```
//!
//! Shard order must match the sharder's: the worker given as the k-th
//! `--shard` serves `shard-<k>-of-<n>.snap`. The split level must equal
//! the one the shards were written with (default
//! `act_core::DEFAULT_SPLIT_LEVEL`). Prints `listening on <addr>` once
//! accepting, then routes until killed.
//!
//! `--metrics-addr` turns on the router's trace ring and serves
//! Prometheus text on `GET /metrics` at that address: each scrape
//! fans a STATS out to every shard and renders the
//! merged fleet view plus per-shard (`shard="k"`-labeled) breakdowns.
//! On SIGINT/SIGTERM the router drains its trace ring (breaker
//! open/close events) as JSON lines to stdout before exiting.

use act_serve::{ObsConfig, Router, RouterConfig};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: act-route --shard <addr> [--shard <addr> ...] [--addr A] \
[--split-level L] [--metrics-addr A] [--trace-every N] [--trace-seed S]";

fn main() -> ExitCode {
    let mut shards: Vec<SocketAddr> = Vec::new();
    let mut config = RouterConfig::default();
    let mut metrics_addr: Option<String> = None;
    let mut obs = ObsConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shard" => match args.next().map(|v| v.to_socket_addrs()) {
                Some(Ok(mut resolved)) => match resolved.next() {
                    Some(addr) => shards.push(addr),
                    None => return usage("--shard address resolved to nothing"),
                },
                _ => return usage("--shard takes a resolvable address"),
            },
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => return usage("--addr takes an address"),
            },
            "--split-level" => match args.next().and_then(|v| v.parse::<u8>().ok()) {
                Some(l) if l <= 14 => config.split_level = l,
                _ => return usage("--split-level takes a level in 0..=14"),
            },
            "--metrics-addr" => match args.next() {
                Some(addr) => metrics_addr = Some(addr),
                None => return usage("--metrics-addr takes an address"),
            },
            "--trace-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => obs.trace_sample_every = n,
                None => return usage("--trace-every takes an integer (0 disables sampling)"),
            },
            "--trace-seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => obs.trace_seed = s,
                None => return usage("--trace-seed takes an integer"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => return usage("unexpected argument"),
        }
    }
    if shards.is_empty() {
        return usage("at least one --shard is required");
    }
    if metrics_addr.is_some() {
        config.obs = Some(obs);
    }

    let router = match Router::spawn(shards, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("act-route: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", router.addr());

    let _metrics = match metrics_addr {
        Some(addr) => match act_obs::MetricsServer::spawn(&addr, router.metrics_fn()) {
            Ok(m) => {
                println!("metrics on {}", m.addr());
                Some(m)
            }
            Err(e) => {
                eprintln!("act-route: metrics listener: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let sig = match install_signals() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("act-route: signal handler: {e}");
            return ExitCode::FAILURE;
        }
    };
    while !sig.is_raised() {
        std::thread::sleep(Duration::from_millis(100));
    }
    if let Some(trace) = router.trace_json_lines() {
        print!("{trace}");
    }
    ExitCode::SUCCESS
}

fn install_signals() -> std::io::Result<sigflag::SigFlag> {
    sigflag::SigFlag::install(sigflag::SIGINT)?;
    sigflag::SigFlag::install(sigflag::SIGTERM)
}

fn usage(why: &str) -> ExitCode {
    eprintln!("act-route: {why}\n{USAGE}");
    ExitCode::from(2)
}
