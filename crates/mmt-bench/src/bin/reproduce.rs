//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! reproduce [table1|table2|table3|table4|table5|table6|fig4|fig5|all]...
//! ```
//!
//! Scale is controlled by `MMT_SCALE` (log2 of the base vertex count,
//! default 16 here), run averaging by `MMT_RUNS` (default 10, like the
//! paper). Output is markdown-ish text with the paper's reported values
//! printed next to ours where the source text preserves them.

use mmt_baselines::{delta_stepping, goldberg_sssp, DeltaConfig};
use mmt_bench::artifact::capacity_probe;
use mmt_bench::{paper_families, runs_from_env, scale_from_env, RunRecord, Workload};
use mmt_ch::{build_parallel, build_serial, ChMode, ChStats};
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_platform::pool::sweep_points;
use mmt_platform::timing::fmt_seconds;
use mmt_platform::{available_threads, with_pool, RunStats, Table};
use mmt_thorup::{BatchSolver, ThorupConfig, ThorupInstance, ThorupSolver, ToVisitStrategy};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1", "table2", "table3", "table4", "table5", "table6", "fig4", "fig5",
        ]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let scale = scale_from_env(16);
    let runs = runs_from_env();
    let threads = available_threads();
    println!("# Reproduction run");
    println!("host: {threads} hardware thread(s); base scale 2^{scale}; {runs} runs per timing\n");
    let mut record = RunRecord::new();
    for section in sections {
        match section {
            "table1" => table1(scale, runs),
            "table2" => table2(scale),
            "table3" => table3(scale, runs, threads),
            "table4" => table4(scale, runs, threads),
            "table5" => table5(scale, runs, threads, &mut record),
            "table6" => table6(scale, runs, threads, &mut record),
            "fig4" => fig4(scale, runs, threads),
            "fig5" => fig5(scale, threads, &mut record),
            other => eprintln!("unknown section `{other}` (skipped)"),
        }
    }
    // Machine-readable artifact for run-over-run comparison
    // (`mmt_bench::results::RunRecord::compare`).
    if let Some(path) = std::env::var_os("MMT_CSV") {
        match std::fs::File::create(&path) {
            Ok(f) => {
                if record.write_csv(std::io::BufWriter::new(f)).is_ok() {
                    println!(
                        "(wrote {} measurements to {})",
                        record.len(),
                        path.to_string_lossy()
                    );
                }
            }
            Err(e) => eprintln!("cannot write {}: {e}", path.to_string_lossy()),
        }
    }
}

/// Average seconds for `runs` runs of `f`.
fn avg(runs: usize, mut f: impl FnMut()) -> f64 {
    RunStats::measure(runs, &mut f).mean()
}

/// Table 1: serial Thorup vs the DIMACS reference solver (multilevel
/// buckets), plus the serial CH preprocessing time. A serial Thorup query
/// re-arms its instance, solves with child visits in turn and copies its
/// distances out, as the reference solver returns its own.
fn table1(scale: u32, runs: usize) {
    let mut t = Table::new(
        "Table 1 — Thorup sequential performance vs DIMACS reference solver",
        &[
            "Family",
            "Thorup",
            "DIMACS ref",
            "CH preproc",
            "ratio",
            "paper ratio",
        ],
    );
    for log_n in [scale, scale + 1] {
        let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, log_n, log_n);
        let w = Workload::generate(spec);
        let (ch, ch_secs) = RunStats::time_once(|| build_serial(&w.edges, ChMode::Collapsed));
        let solver = ThorupSolver::new(&w.graph, &ch).with_config(ThorupConfig::serial());
        let inst = ThorupInstance::new(&ch);
        let src = w.source();
        let thorup = avg(runs, || {
            inst.reset(&ch);
            solver.solve_into(&inst, src);
            std::hint::black_box(inst.distances());
        });
        let dimacs = avg(runs, || {
            std::hint::black_box(goldberg_sssp(&w.graph, src));
        });
        t.row(&[
            spec.name(),
            fmt_seconds(thorup),
            fmt_seconds(dimacs),
            fmt_seconds(ch_secs),
            format!("{:.2}x", thorup / dimacs),
            "2-4x (paper's claim)".into(),
        ]);
    }
    println!("{t}");
}

/// Table 2: Component Hierarchy statistics per family.
fn table2(scale: u32) {
    let mut t = Table::new(
        "Table 2 — CH statistics (faithful mode = paper's Algorithm 1 counts)",
        &[
            "Family",
            "paper family",
            "Comp",
            "Comp(collapsed)",
            "Children",
            "Instance",
            "Graph+CH",
        ],
    );
    for fam in paper_families(scale) {
        let w = Workload::generate(fam.spec);
        let faithful = ChStats::of(&build_serial(&w.edges, ChMode::Faithful));
        let collapsed_ch = build_serial(&w.edges, ChMode::Collapsed);
        let collapsed = ChStats::of(&collapsed_ch);
        t.row(&[
            fam.spec.name(),
            fam.paper_name.into(),
            format!("{}", faithful.components),
            format!("{}", collapsed.components),
            format!("{:.2}", faithful.avg_children),
            mmt_platform::mem::fmt_bytes(collapsed.instance_bytes),
            mmt_platform::mem::fmt_bytes(w.graph.heap_bytes() + collapsed.hierarchy_bytes),
        ]);
    }
    println!("{t}");
}

/// Table 3: parallel CH construction time and speedup (1 thread -> max).
/// Each cell is the median of `runs` builds, taken alternately at 1 thread
/// and at `threads`, with its interquartile range; the speedup holds only
/// where the gap between the medians exceeds both IQRs. The capacity probe
/// before and after says whether the host had its cores.
fn table3(scale: u32, runs: usize, threads: usize) {
    let mut t = Table::new(
        format!("Table 3 — CH construction on {threads} thread(s), median [IQR] of {runs}"),
        &[
            "Family",
            "CH p=1",
            &format!("CH p={threads}"),
            "speedup vs p=1",
            "verdict",
            "paper CH (40 proc)",
        ],
    );
    let before = capacity_probe();
    for fam in paper_families(scale) {
        let w = Workload::generate(fam.spec);
        let (mut one, mut many) = (Vec::new(), Vec::new());
        for _ in 0..runs.max(1) {
            for (p, samples) in [(1, &mut one), (threads, &mut many)] {
                let (_, s) = with_pool(p, || {
                    RunStats::time_once(|| std::hint::black_box(build_parallel(&w.edges)))
                });
                samples.push(s);
            }
        }
        let (q1, m1, q3) = RunStats::from_samples(one).quartiles();
        let (p1, mp, p3) = RunStats::from_samples(many).quartiles();
        let cell = |q1: f64, m: f64, q3: f64| {
            format!(
                "{} [{}–{}]",
                fmt_seconds(m),
                fmt_seconds(q1),
                fmt_seconds(q3)
            )
        };
        let verdict = if (m1 - mp).abs() <= (q3 - q1).max(p3 - p1) {
            "within noise"
        } else if mp < m1 {
            "faster"
        } else {
            "slower"
        };
        t.row(&[
            fam.spec.name(),
            cell(q1, m1, q3),
            cell(p1, mp, p3),
            format!("{:.2}x", m1 / mp),
            verdict.into(),
            fmt_seconds(fam.paper_ch),
        ]);
    }
    println!("{t}");
    println!(
        "capacity probe (2-thread/1-thread): {before:.2} before, {:.2} after\n",
        capacity_probe()
    );
}

/// Table 4: Thorup's algorithm on the full pool, with speedup vs 1 thread.
fn table4(scale: u32, runs: usize, threads: usize) {
    let mut t = Table::new(
        format!("Table 4 — Thorup's algorithm on {threads} thread(s)"),
        &[
            "Family",
            "Thorup",
            "speedup vs p=1",
            "paper Thorup (40 proc)",
        ],
    );
    for fam in paper_families(scale) {
        let w = Workload::generate(fam.spec);
        let ch = build_parallel(&w.edges);
        let solver = ThorupSolver::new(&w.graph, &ch);
        let src = w.source();
        let inst = ThorupInstance::new(&ch);
        let time_at = |p: usize| {
            with_pool(p, || {
                avg(runs, || {
                    inst.reset(&ch);
                    solver.solve_into(&inst, src);
                })
            })
        };
        let t1 = time_at(1);
        let tp = time_at(threads);
        t.row(&[
            fam.spec.name(),
            fmt_seconds(tp),
            format!("{:.2}x", t1 / tp),
            fmt_seconds(fam.paper_thorup),
        ]);
    }
    println!("{t}");
}

/// Table 5: Δ-stepping vs Thorup vs CH construction.
fn table5(scale: u32, runs: usize, threads: usize, record: &mut RunRecord) {
    let mut t = Table::new(
        format!("Table 5 — Δ-stepping vs Thorup on {threads} thread(s)"),
        &[
            "Family",
            "Δ-stepping",
            "Thorup",
            "CH",
            "paper Δ~",
            "paper Thorup",
            "paper CH",
        ],
    );
    for fam in paper_families(scale) {
        let w = Workload::generate(fam.spec);
        let src = w.source();
        let (ch, delta_secs, thorup_secs) = with_pool(threads, || {
            let (ch, ch_build) = RunStats::time_once(|| build_parallel(&w.edges));
            let cfg = DeltaConfig::auto(&w.graph);
            let d = avg(runs, || {
                std::hint::black_box(delta_stepping(&w.graph, src, cfg));
            });
            let solver = ThorupSolver::new(&w.graph, &ch);
            let inst = ThorupInstance::new(&ch);
            let th = avg(runs, || {
                inst.reset(&ch);
                solver.solve_into(&inst, src);
            });
            ((ch, ch_build), d, th)
        });
        record.record("table5", &fam.spec.name(), "delta_secs", delta_secs);
        record.record("table5", &fam.spec.name(), "thorup_secs", thorup_secs);
        record.record("table5", &fam.spec.name(), "ch_secs", ch.1);
        t.row(&[
            fam.spec.name(),
            fmt_seconds(delta_secs),
            fmt_seconds(thorup_secs),
            fmt_seconds(ch.1),
            fmt_seconds(fam.paper_delta),
            fmt_seconds(fam.paper_thorup),
            fmt_seconds(fam.paper_ch),
        ]);
    }
    println!("{t}");
}

/// Table 6: naive toVisit (Thorup A) vs selective (Thorup B).
fn table6(scale: u32, runs: usize, threads: usize, record: &mut RunRecord) {
    let mut t = Table::new(
        "Table 6 — toVisit strategy: naive (A) vs selective (B)",
        &[
            "Family",
            "Thorup A",
            "Thorup B",
            "B speedup",
            "paper A~",
            "paper B",
        ],
    );
    for fam in paper_families(scale) {
        let w = Workload::generate(fam.spec);
        let ch = build_parallel(&w.edges);
        let src = w.source();
        let inst = ThorupInstance::new(&ch);
        let time_with = |strategy: ToVisitStrategy| {
            let solver = ThorupSolver::new(&w.graph, &ch)
                .with_config(ThorupConfig::new().with_strategy(strategy));
            with_pool(threads, || {
                avg(runs, || {
                    inst.reset(&ch);
                    solver.solve_into(&inst, src);
                })
            })
        };
        let naive = time_with(ToVisitStrategy::AlwaysParallel);
        let selective = time_with(ToVisitStrategy::selective_default());
        record.record("table6", &fam.spec.name(), "thorup_a_secs", naive);
        record.record("table6", &fam.spec.name(), "thorup_b_secs", selective);
        t.row(&[
            fam.spec.name(),
            fmt_seconds(naive),
            fmt_seconds(selective),
            format!("{:.2}x", naive / selective),
            fmt_seconds(fam.paper_thorup_naive),
            fmt_seconds(fam.paper_thorup),
        ]);
    }
    println!("{t}");
}

/// Figure 4: scaling of CH construction and Thorup with thread count.
fn fig4(scale: u32, runs: usize, threads: usize) {
    let points = sweep_points(threads.max(2) * 2); // oversubscribe past core count
    let fams = paper_families(scale);
    let mut ch_table = Table::new(
        "Figure 4 (top) — CH construction seconds vs emulated processors",
        &header_with_points(&points),
    );
    let mut th_table = Table::new(
        "Figure 4 (bottom) — Thorup seconds vs emulated processors",
        &header_with_points(&points),
    );
    let mut ch_series: Vec<(String, Vec<f64>)> = Vec::new();
    let mut th_series: Vec<(String, Vec<f64>)> = Vec::new();
    for fam in &fams {
        let w = Workload::generate(fam.spec);
        let mut ch_row = vec![fam.spec.name()];
        let mut ch_secs = Vec::new();
        for &p in &points {
            let secs = with_pool(p, || {
                RunStats::time_once(|| std::hint::black_box(build_parallel(&w.edges))).1
            });
            ch_row.push(fmt_seconds(secs));
            ch_secs.push(secs);
        }
        ch_table.row(&ch_row);
        ch_series.push((fam.spec.name(), ch_secs));
        let ch = build_parallel(&w.edges);
        let solver = ThorupSolver::new(&w.graph, &ch);
        let src = w.source();
        let inst = ThorupInstance::new(&ch);
        let mut th_row = vec![fam.spec.name()];
        let mut th_secs = Vec::new();
        for &p in &points {
            let secs = with_pool(p, || {
                avg(runs.min(3), || {
                    inst.reset(&ch);
                    solver.solve_into(&inst, src);
                })
            });
            th_row.push(fmt_seconds(secs));
            th_secs.push(secs);
        }
        th_table.row(&th_row);
        th_series.push((fam.spec.name(), th_secs));
    }
    println!("{ch_table}");
    println!("{th_table}");
    let xs: Vec<f64> = points.iter().map(|&p| p as f64).collect();
    write_dat("fig4_ch_construction", "processors", &xs, &ch_series);
    write_dat("fig4_thorup", "processors", &xs, &th_series);
}

fn header_with_points(points: &[usize]) -> Vec<&'static str> {
    // Table headers borrow &str; leak tiny strings once per run.
    let mut h = vec!["Family"];
    for &p in points {
        h.push(Box::leak(format!("p={p}").into_boxed_str()));
    }
    h
}

/// When `MMT_DAT_DIR` is set, writes a gnuplot-ready data file: one `x`
/// column followed by one column per named series, plus a matching `.gp`
/// script (log-log, like the paper's Figures 4–5).
fn write_dat(name: &str, xlabel: &str, xs: &[f64], series: &[(String, Vec<f64>)]) {
    let Some(dir) = std::env::var_os("MMT_DAT_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let mut dat = String::new();
    dat.push_str(&format!(
        "# {name}: {xlabel} then {}\n",
        series
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (i, &x) in xs.iter().enumerate() {
        dat.push_str(&format!("{x}"));
        for (_, ys) in series {
            dat.push_str(&format!(" {}", ys.get(i).copied().unwrap_or(f64::NAN)));
        }
        dat.push('\n');
    }
    let mut gp = format!(
        "set logscale xy\nset xlabel \"{xlabel}\"\nset ylabel \"seconds\"\nset key outside\nplot "
    );
    let plots: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (n, _))| {
            format!(
                "\"{name}.dat\" using 1:{} with linespoints title \"{n}\"",
                i + 2
            )
        })
        .collect();
    gp.push_str(&plots.join(", \\\n     "));
    gp.push('\n');
    let _ = std::fs::write(dir.join(format!("{name}.dat")), dat);
    let _ = std::fs::write(dir.join(format!("{name}.gp")), gp);
    println!("(wrote {name}.dat/.gp to {})", dir.display());
}

/// Figure 5: k simultaneous shared-CH Thorup queries (one
/// [`BatchSolver`] batch) vs k sequential Δ-stepping runs vs k sequential
/// Thorup runs (one default-config solve per source), at two graph sizes.
fn fig5(scale: u32, threads: usize, record: &mut RunRecord) {
    for log_n in [scale.saturating_sub(2), scale + 1] {
        let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, log_n, log_n);
        let w = Workload::generate(spec);
        let ch = build_parallel(&w.edges);
        let solver = ThorupSolver::new(&w.graph, &ch);
        let batch = BatchSolver::new(&solver);
        let cfg = DeltaConfig::auto(&w.graph);
        let mut t = Table::new(
            format!(
                "Figure 5 — simultaneous Thorup vs sequential baselines, {}",
                spec.name()
            ),
            &[
                "sources",
                "simul Thorup",
                "seq Thorup",
                "seq Δ-stepping",
                "simul/Δ ratio",
                "instances mem",
                "graph copies mem",
            ],
        );
        let ks = [1usize, 2, 4, 8, 16, 32];
        let mut simul_s = Vec::new();
        let mut seq_th_s = Vec::new();
        let mut seq_ds_s = Vec::new();
        for k in ks {
            let sources = w.sources(k);
            let (simul, seq_th, seq_ds) = with_pool(threads, || {
                let simul = RunStats::time_once(|| {
                    std::hint::black_box(batch.solve_batch(&sources));
                })
                .1;
                let seq_th = RunStats::time_once(|| {
                    for &s in &sources {
                        std::hint::black_box(solver.solve(s));
                    }
                })
                .1;
                let seq_ds = RunStats::time_once(|| {
                    for &s in &sources {
                        std::hint::black_box(delta_stepping(&w.graph, s, cfg));
                    }
                })
                .1;
                (simul, seq_th, seq_ds)
            });
            t.row(&[
                k.to_string(),
                fmt_seconds(simul),
                fmt_seconds(seq_th),
                fmt_seconds(seq_ds),
                format!("{:.2}x", seq_ds / simul),
                // The paper's §5.2 memory argument: k shared-CH instances
                // vs k per-process graph copies. This holds regardless of
                // core count.
                mmt_platform::mem::fmt_bytes(k * mmt_ch::stats::instance_bytes(&ch)),
                mmt_platform::mem::fmt_bytes(k * w.graph.heap_bytes()),
            ]);
            record.record("fig5", &spec.name(), &format!("simul_thorup_k{k}"), simul);
            record.record("fig5", &spec.name(), &format!("seq_thorup_k{k}"), seq_th);
            record.record("fig5", &spec.name(), &format!("seq_delta_k{k}"), seq_ds);
            simul_s.push(simul);
            seq_th_s.push(seq_th);
            seq_ds_s.push(seq_ds);
        }
        println!("{t}");
        write_dat(
            &format!("fig5_{}", spec.name().replace('^', "")),
            "sources",
            &ks.map(|k| k as f64),
            &[
                ("simul-thorup".to_string(), simul_s),
                ("baseline-thorup".to_string(), seq_th_s),
                ("baseline-deltastep".to_string(), seq_ds_s),
            ],
        );
    }
}
