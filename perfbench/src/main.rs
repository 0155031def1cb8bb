//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]`
//! runs one workload and prints its report, the result JSON last.
//! `perfbench probe` prints the host-drift pointer-chase time in ns.

use perfbench::spans::Tracer;
use perfbench::{probe, run, Report, Scale, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn print(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    println!(
        "# attempted {} succeeded {} failed {}",
        report.attempted,
        report.attempted - report.failed,
        report.failed
    );
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("probe") {
        println!("{}", probe::chase_ns());
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = args.trace.then(Tracer::default);
    let report = run(
        args.workload,
        args.seed,
        args.seconds,
        tracer.as_ref(),
        &Scale::full(),
    );
    print(&report);
    if let (Some(t), Some(path)) = (&tracer, &args.spans) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            t.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::from(3);
        }
    }
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: invalid run, not a data point: {why}");
        return ExitCode::from(4);
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} has no value", m.name);
        return ExitCode::from(4);
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
