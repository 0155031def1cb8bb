//! `bench_hotpath` — the reproducible hot-path baseline.
//!
//! ```text
//! bench_hotpath [--smoke] [--out PATH] [--check PATH] [--diff BASE CUR]
//! ```
//!
//! * default: run the full grid (honours `MMT_SCALE` / `MMT_RUNS`) and
//!   write `BENCH_hotpath.json`;
//! * `--smoke`: the CI shape — tiny scale, two iterations, same artifact;
//! * `--out PATH`: write the artifact somewhere else;
//! * `--check PATH`: don't run anything — parse an existing artifact and
//!   validate it against the checked-in schema, exiting non-zero on any
//!   violation;
//! * `--diff BASE CUR`: compare two artifacts' relaxations/sec per
//!   `(workload, engine)` pair, exiting non-zero when the current run is
//!   more than 2x slower than the baseline anywhere (or when the
//!   artifacts share no pairs). This is the CI throughput gate against
//!   the checked-in `BENCH_hotpath.json`.
//!
//! Build with `--features count-alloc` to populate the per-query
//! allocation columns (otherwise they are reported as zero and
//! `alloc_counting` is `false`).

use mmt_bench::hotpath::{self, HotpathOptions};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out = String::from("BENCH_hotpath.json");
    let mut check: Option<String> = None;
    let mut diff: Option<(String, String)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(path) => check = Some(path),
                None => return usage("--check needs a path"),
            },
            "--diff" => match (args.next(), args.next()) {
                (Some(base), Some(cur)) => diff = Some((base, cur)),
                _ => return usage("--diff needs a baseline path and a current path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: bench_hotpath [--smoke] [--out PATH] [--check PATH] [--diff BASE CUR]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if let Some((base_path, cur_path)) = diff {
        return run_diff(&base_path, &cur_path);
    }

    if let Some(path) = check {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench_hotpath: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match hotpath::check_artifact(&text) {
            Ok(_) => {
                println!("{path}: valid BENCH_hotpath artifact");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_hotpath: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let opts = if smoke {
        HotpathOptions::smoke()
    } else {
        HotpathOptions::full()
    };
    eprintln!(
        "bench_hotpath: scale 2^{}, {} iterations x {} sources, alloc counting {}",
        opts.scale,
        opts.iterations,
        opts.sources,
        if hotpath::alloc_counting_enabled() {
            "on"
        } else {
            "off (build with --features count-alloc)"
        }
    );
    let report = hotpath::run(opts);
    let text = report.to_json();
    if let Err(e) = hotpath::check_artifact(&text) {
        // The emitter and the schema live in the same crate; disagreement
        // is a bug worth failing loudly on before the artifact lands.
        eprintln!("bench_hotpath: emitted artifact failed self-check: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("bench_hotpath: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    for w in &report.workloads {
        eprintln!(
            "  {} (n={}, m={}, adaptive delta {} vs default {})",
            w.name, w.n, w.m, w.adaptive_delta, w.default_delta
        );
        for e in &w.engines {
            eprintln!(
                "    {:<16} {:>10.4}s  {:>12.0} relax/s  {:>10.1} allocs/query",
                e.name,
                e.wall_secs,
                e.relaxations_per_sec(),
                e.allocs_per_query
            );
        }
    }
    let r = &report.registry;
    eprintln!(
        "  registry ({}, arena {} bytes)",
        r.workload, r.arena_arc_bytes
    );
    for s in &r.splits {
        eprintln!(
            "    {:>2} deltas: {:>12} bytes duplicated vs {:>12} offset-view",
            s.delta_count, s.duplicated_bytes, s.offset_view_bytes
        );
    }
    for g in &r.grid {
        eprintln!(
            "    {:>2} graphs: {:>12} bytes resident  {:>12.0} relax/s",
            g.graphs,
            g.resident_bytes,
            g.relaxations_per_sec()
        );
    }
    println!("{out}");
    ExitCode::SUCCESS
}

/// Relax/s may legitimately swing between machines and runs, so the gate
/// only fails on a >2x collapse — wide enough for shared-runner noise,
/// tight enough to catch a hot path losing its pre-split or its scratch.
const DIFF_TOLERANCE: f64 = 2.0;

fn run_diff(base_path: &str, cur_path: &str) -> ExitCode {
    let read_checked = |path: &str| -> Result<mmt_bench::json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        hotpath::check_artifact(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cur) = match (read_checked(base_path), read_checked(cur_path)) {
        (Ok(base), Ok(cur)) => (base, cur),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_hotpath: {e}");
            return ExitCode::FAILURE;
        }
    };
    match hotpath::diff_artifacts(&base, &cur, DIFF_TOLERANCE) {
        Ok(lines) => {
            for l in &lines {
                eprintln!(
                    "  {:<24} {:<16} {:>12.0} -> {:>12.0} relax/s ({:.2}x)",
                    l.workload,
                    l.engine,
                    l.baseline,
                    l.current,
                    l.ratio()
                );
            }
            println!(
                "{} pairs within {DIFF_TOLERANCE}x of {base_path}",
                lines.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_hotpath: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench_hotpath: {msg}");
    eprintln!("usage: bench_hotpath [--smoke] [--out PATH] [--check PATH] [--diff BASE CUR]");
    ExitCode::FAILURE
}
