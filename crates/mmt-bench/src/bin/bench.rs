//! `bench` — the two checked-in bench artifacts.
//!
//! ```text
//! bench hotpath|layout [--smoke] [--out PATH] [--check PATH]
//! bench hotpath --diff BASE CUR
//! ```
//!
//! * `hotpath` runs the hot-path baseline and writes `BENCH_hotpath.json`;
//!   `layout` runs the locality-layout grid and writes `BENCH_layout.json`.
//!   The full shapes honour `MMT_SCALE` / `MMT_RUNS`;
//! * `--smoke`: the CI shape — tiny scale, two iterations, same artifact;
//! * `--out PATH`: write the artifact somewhere else;
//! * `--check PATH`: don't run anything — parse an existing artifact and
//!   validate it against the family's checked-in schema and current
//!   format version, exiting non-zero on any violation;
//! * `--diff BASE CUR` (hotpath only): compare two artifacts'
//!   relaxations/sec per `(workload, engine)` pair, exiting non-zero when
//!   the current run is more than 2x slower than the baseline anywhere, or
//!   lacks any pair the baseline has. This is the CI throughput gate
//!   against the checked-in `BENCH_hotpath.json`.
//!
//! Build with `--features count-alloc` to populate hotpath's per-query
//! allocation columns (otherwise they are reported as zero and
//! `alloc_counting` is `false`).

use mmt_bench::artifact::{check_artifact, RunShape};
use mmt_bench::json::Json;
use mmt_bench::{hotpath, layout};
use std::process::ExitCode;

const USAGE: &str = "usage: bench hotpath|layout [--smoke] [--out PATH] [--check PATH]\n       \
                     bench hotpath --diff BASE CUR";

/// Relax/s may legitimately swing between machines and runs, so the gate
/// only fails on a >2x collapse — wide enough for shared-runner noise,
/// tight enough to catch a hot path losing its pre-split or its scratch.
const DIFF_TOLERANCE: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Hotpath,
    Layout,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Hotpath => "hotpath",
            Family::Layout => "layout",
        }
    }

    fn schema(self) -> &'static str {
        match self {
            Family::Hotpath => hotpath::SCHEMA_TEXT,
            Family::Layout => layout::SCHEMA_TEXT,
        }
    }

    fn version(self) -> u64 {
        match self {
            Family::Hotpath => hotpath::FORMAT_VERSION,
            Family::Layout => layout::FORMAT_VERSION,
        }
    }
}

/// What one invocation asks for.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        family: Family,
        shape: RunShape,
        out: String,
    },
    Check {
        family: Family,
        path: String,
    },
    Diff {
        base: String,
        cur: String,
    },
    Help,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut args = args.iter().map(String::as_str);
    let family = match args.next() {
        Some("hotpath") => Family::Hotpath,
        Some("layout") => Family::Layout,
        Some("--help" | "-h") => return Ok(Command::Help),
        Some(other) => return Err(format!("unknown family {other:?}")),
        None => return Err("name a family: hotpath or layout".into()),
    };
    let mut smoke = false;
    let mut out = None;
    let mut check = None;
    let mut diff = None;
    while let Some(arg) = args.next() {
        match arg {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().ok_or("--out needs a path")?.to_string()),
            "--check" => check = Some(args.next().ok_or("--check needs a path")?.to_string()),
            "--diff" if family == Family::Hotpath => match (args.next(), args.next()) {
                (Some(base), Some(cur)) => diff = Some((base.to_string(), cur.to_string())),
                _ => return Err("--diff needs a baseline path and a current path".into()),
            },
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument {other:?} for {}", family.name())),
        }
    }
    Ok(if let Some((base, cur)) = diff {
        Command::Diff { base, cur }
    } else if let Some(path) = check {
        Command::Check { family, path }
    } else {
        let shape = match (smoke, family) {
            (true, _) => RunShape::smoke(),
            (false, Family::Hotpath) => hotpath::full_shape(),
            (false, Family::Layout) => layout::full_shape(),
        };
        let out = out.unwrap_or_else(|| format!("BENCH_{}.json", family.name()));
        Command::Run { family, shape, out }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            Ok(())
        }
        Ok(Command::Check { family, path }) => read_checked(family, &path)
            .map(|_| println!("{path}: valid BENCH_{} artifact", family.name())),
        Ok(Command::Diff { base, cur }) => run_diff(&base, &cur),
        Ok(Command::Run { family, shape, out }) => run(family, shape, &out),
        Err(msg) => {
            eprintln!("bench: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_checked(family: Family, path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    check_artifact(family.schema(), family.version(), &text).map_err(|e| format!("{path}: {e}"))
}

fn run(family: Family, shape: RunShape, out: &str) -> Result<(), String> {
    let alloc = match family {
        Family::Hotpath if hotpath::alloc_counting_enabled() => ", alloc counting on",
        Family::Hotpath => ", alloc counting off (build with --features count-alloc)",
        Family::Layout => "",
    };
    eprintln!(
        "bench {}: scale 2^{}, {} iterations x {} sources{alloc}",
        family.name(),
        shape.scale,
        shape.iterations,
        shape.sources
    );
    let text = match family {
        Family::Hotpath => {
            let report = hotpath::run(shape);
            print_hotpath(&report);
            report.to_json()
        }
        Family::Layout => {
            let report = layout::run(shape);
            print_layout(&report);
            report.to_json()
        }
    };
    // The emitter and the schema live in the same crate; disagreement is a
    // bug worth failing loudly on before the artifact lands.
    check_artifact(family.schema(), family.version(), &text)
        .map_err(|e| format!("emitted artifact failed self-check: {e}"))?;
    std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("{out}");
    Ok(())
}

fn print_hotpath(report: &hotpath::HotpathReport) {
    if let Some((before, after)) = report.header.capacity {
        eprintln!("  capacity probe {before:.2} before, {after:.2} after");
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
    eprintln!("  registry ({})", r.workload);
    for g in &r.grid {
        eprintln!(
            "    {:>2} graphs: {:>12} bytes resident  {:>12.0} relax/s",
            g.graphs,
            g.resident_bytes,
            g.relaxations_per_sec()
        );
    }
}

fn print_layout(report: &layout::LayoutReport) {
    for w in &report.workloads {
        eprintln!("  {} (n={}, m={}, delta {})", w.name, w.n, w.m, w.delta);
        for s in &w.samples {
            eprintln!(
                "    {:<10} {:<8} {:>10.4}s  {:>12.0} relax/s  (+{:.4}s permute)",
                s.engine,
                s.layout,
                s.wall_secs,
                s.relaxations_per_sec(),
                s.permute_secs
            );
        }
    }
}

fn run_diff(base_path: &str, cur_path: &str) -> Result<(), String> {
    let base = read_checked(Family::Hotpath, base_path)?;
    let cur = read_checked(Family::Hotpath, cur_path)?;
    let lines = hotpath::diff_artifacts(&base, &cur, DIFF_TOLERANCE)?;
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &str) -> Result<Command, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn each_family_runs_checks_and_defaults_its_artifact_name() {
        for (family, name) in [(Family::Hotpath, "hotpath"), (Family::Layout, "layout")] {
            assert_eq!(
                parsed(&format!("{name} --smoke")),
                Ok(Command::Run {
                    family,
                    shape: RunShape::smoke(),
                    out: format!("BENCH_{name}.json"),
                })
            );
            assert_eq!(
                parsed(&format!("{name} --check a.json")),
                Ok(Command::Check {
                    family,
                    path: "a.json".into()
                })
            );
        }
        assert!(matches!(
            parsed("layout --out x.json"),
            Ok(Command::Run { family: Family::Layout, out, .. }) if out == "x.json"
        ));
    }

    #[test]
    fn diff_is_hotpath_only_and_bad_input_is_rejected() {
        assert_eq!(
            parsed("hotpath --diff a b"),
            Ok(Command::Diff {
                base: "a".into(),
                cur: "b".into()
            })
        );
        assert!(parsed("layout --diff a b").is_err());
        assert!(parsed("hotpath --diff a").is_err());
        assert!(parsed("hotpath --out").is_err());
        assert!(parsed("").is_err());
        assert!(parsed("scaling --smoke").is_err());
        assert_eq!(parsed("hotpath --help"), Ok(Command::Help));
    }
}
