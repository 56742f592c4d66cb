//! The million-client equilibrium demonstration: synthesize a streaming
//! population, solve the Stage-I Stackelberg equilibrium with the chunked
//! parallel KKT solver, verify the paper's invariants on a sample, and
//! check the determinism contract (parallel output bit-identical to
//! sequential).
//!
//! ```text
//! scale_equilibrium [--clients N] [--threads T] [--seed S]
//!                   [--budget-frac F] [--out PATH] [--skip-sequential]
//!                   [--fast-path] [--json] [--json-out PATH]
//!                   [--metrics-out PATH]
//! ```
//!
//! `--metrics-out` appends a `"bench":"metrics"` JSONL export of the
//! run's solver counters and spans (probe evaluations, bisection
//! iterations, solve/index-build histograms). The solves record into the
//! registry as they run; recording never changes a price bit.
//!
//! With `--fast-path`, the run additionally builds the threshold index
//! (timed, positional segments), runs the certified fast solve cold and
//! warm (index + hint reuse), and records the probe-work comparison
//! against the exact solve — the sub-linear λ-probe demonstration. The exact solve remains
//! the one whose equilibrium is verified and reported.
//!
//! Defaults: 1,000,000 clients, auto threads, seed 2023, budget at half
//! the saturation path, report appended to
//! `results/scale_equilibrium.txt`. The solve runs over the population's
//! solver columns (`solve_kkt_columns`); the sequential one-thread
//! re-solve (`solve_kkt`) then asserts it bit-identical — unless
//! `--skip-sequential` suppresses that check. With `--json`, a
//! machine-readable record of the same run is appended as one JSON object
//! per line to `results/BENCH_scale.json` (or the given path) alongside
//! the text report.

use fedfl_bench::metrics_record::MetricsRecord;
use fedfl_bench::schema::check_line;
use fedfl_core::active_set::{ActiveSetIndex, IndexColumns, GRID_SEGMENT};
use fedfl_core::bound::BoundParams;
use fedfl_core::equilibrium::StackelbergEquilibrium;
use fedfl_core::population::{Population, PopulationSpec};
use fedfl_core::server::{path_budget, solve_kkt, solve_kkt_columns, SolverOptions};
use fedfl_obs::{Metric, NoopRecorder, Recorder, Registry};
use serde::{Serialize, Value};
use std::io::Write as _;
use std::time::Instant;

/// The machine-readable record `--json` appends (one object per line).
#[derive(Debug, Serialize)]
struct JsonRecord {
    clients: usize,
    threads: usize,
    seed: u64,
    budget: f64,
    synthesize_seconds: f64,
    solve_seconds: f64,
    spent: f64,
    budget_tight: bool,
    saturated: bool,
    lambda: Option<f64>,
    theorem2_max_residual: Option<f64>,
    negative_payments: usize,
    parallel_matches_sequential: Option<bool>,
    // --fast-path fields; `None` entries are stripped before writing so
    // plain runs keep the historical record shape (the ledger schema
    // rejects nulls).
    solver_mode: Option<String>,
    index_build_seconds: Option<f64>,
    fast_solve_seconds: Option<f64>,
    fast_warm_solve_seconds: Option<f64>,
    probe_evaluations: Option<u64>,
    probe_evaluations_exact: Option<u64>,
    fast_rel_spend_error: Option<f64>,
    index_segments: Option<usize>,
    index_keyed_build_seconds: Option<f64>,
    index_patch_seconds: Option<f64>,
    index_patch_segments_rebuilt: Option<usize>,
    index_patch_segments_reused: Option<usize>,
}

/// Everything a `--fast-path` run measured beyond the exact solve.
struct FastStats {
    solver_mode: String,
    index_build_seconds: f64,
    fast_solve_seconds: f64,
    fast_warm_solve_seconds: f64,
    probe_evaluations: u64,
    probe_evaluations_exact: u64,
    fast_rel_spend_error: f64,
    /// Segments of the positional index the fast solve probed.
    index_segments: usize,
    /// Cold keyed (service-layout) index build time — the incremental
    /// patch's baseline.
    index_keyed_build_seconds: f64,
    /// Time to patch the keyed index with [`PATCH_DIRTY_SEGMENTS`]
    /// segments marked dirty.
    index_patch_seconds: f64,
    /// Segments the patch re-sorted (== the dirty count).
    index_patch_segments_rebuilt: usize,
    /// Segments the patch reused verbatim.
    index_patch_segments_reused: usize,
}

/// Keyed-index layout of the patch micro-bench: the service's segment
/// count and routing-block width (`store::INDEX_SEGMENTS`, `ROUTE_BLOCK`).
const PATCH_SEGMENTS: usize = 256;
const PATCH_ROUTE_BLOCK: usize = 32;
/// How many segments the micro-bench marks dirty — a small churn batch.
const PATCH_DIRTY_SEGMENTS: usize = 4;

struct Args {
    clients: usize,
    threads: usize,
    seed: u64,
    budget_frac: f64,
    out: Option<String>,
    json: Option<String>,
    metrics_out: Option<String>,
    skip_sequential: bool,
    fast_path: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            clients: 1_000_000,
            threads: 0,
            seed: 2023,
            budget_frac: 0.5,
            out: Some("results/scale_equilibrium.txt".into()),
            json: None,
            metrics_out: None,
            skip_sequential: false,
            fast_path: false,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--clients" => {
                    args.clients = value("--clients")?
                        .parse()
                        .map_err(|e| format!("bad --clients: {e}"))?;
                }
                "--threads" => {
                    args.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?;
                }
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--budget-frac" => {
                    args.budget_frac = value("--budget-frac")?
                        .parse()
                        .map_err(|e| format!("bad --budget-frac: {e}"))?;
                }
                "--out" => args.out = Some(value("--out")?),
                "--no-out" => args.out = None,
                "--json" => {
                    args.json
                        .get_or_insert_with(|| "results/BENCH_scale.json".into());
                }
                "--json-out" => args.json = Some(value("--json-out")?),
                "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
                "--skip-sequential" => args.skip_sequential = true,
                "--fast-path" => args.fast_path = true,
                other => {
                    return Err(format!(
                        "unknown flag `{other}` (expected --clients N, --threads T, --seed S, \
                         --budget-frac F, --out PATH, --no-out, --json, --json-out PATH, \
                         --metrics-out PATH, --skip-sequential, --fast-path)"
                    ))
                }
            }
        }
        if args.clients == 0 {
            return Err("--clients must be positive".into());
        }
        if !(args.budget_frac > 0.0 && args.budget_frac <= 1.0) {
            return Err("--budget-frac must lie in (0, 1]".into());
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("scale_equilibrium: {msg}");
            std::process::exit(2);
        }
    };
    let spec = PopulationSpec::table1_like();
    let bound = BoundParams::new(4_000.0, 100.0, 1_000).expect("bound");

    println!(
        "synthesizing {} clients (seed {}) ...",
        args.clients, args.seed
    );
    let t0 = Instant::now();
    let population = Population::synthesize(args.clients, &spec, args.seed).expect("synthesize");
    let synth_time = t0.elapsed();
    println!("  {:.3}s", synth_time.as_secs_f64());

    let options = SolverOptions::with_threads(args.threads);
    let budget = path_budget(&population, &bound, &options, args.budget_frac);
    println!(
        "solving the Stackelberg equilibrium (budget {budget:.4e}, threads {}) ...",
        args.threads
    );
    let registry = args.metrics_out.as_ref().map(|_| Registry::new());
    let recorder: &dyn Recorder = match &registry {
        Some(registry) => registry,
        None => &NoopRecorder,
    };
    let cols = population.columns();
    let t0 = Instant::now();
    let (solution, exact_diag) =
        solve_kkt_columns(&cols, &bound, budget, &options, None, None, recorder).expect("solve");
    let solve_time = t0.elapsed();
    println!("  {:.3}s", solve_time.as_secs_f64());

    // Determinism contract: n_threads = 1 must reproduce the same bits.
    let seq_matches = if args.skip_sequential {
        None
    } else {
        println!("re-solving sequentially (1 thread) to check bit-identity ...");
        let t0 = Instant::now();
        let sequential = solve_kkt(&population, &bound, budget, &SolverOptions::with_threads(1))
            .expect("sequential solve");
        println!("  {:.3}s", t0.elapsed().as_secs_f64());
        Some(sequential == solution)
    };
    // --fast-path: build the threshold index (timed) and run the
    // certified fast solve cold and warm against the exact baseline.
    let fast = if args.fast_path {
        let index_cols = IndexColumns::from_population(&cols);
        println!("building the threshold index ...");
        let t0 = Instant::now();
        let grid_keys: Vec<u32> = (0..cols.len()).map(|i| (i / GRID_SEGMENT) as u32).collect();
        let index = ActiveSetIndex::build_keyed(
            &index_cols,
            &grid_keys,
            cols.len().div_ceil(GRID_SEGMENT),
            bound.alpha_over_r(),
            options.q_min,
            1.0,
            options.config.n_threads,
        );
        let index_build_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let index_build_seconds = index_build_ns as f64 / 1e9;
        println!("  {index_build_seconds:.3}s");
        recorder.add(Metric::SolverIndexBuilds, 1);
        recorder.observe(Metric::SolverIndexBuildNs, index_build_ns);
        println!("fast solve (cold, then warm with index + hint reuse) ...");
        let fast_solve = |hint: Option<f64>| {
            solve_kkt_columns(
                &cols,
                &bound,
                budget,
                &options,
                hint,
                Some(&index),
                recorder,
            )
        };
        let t0 = Instant::now();
        let (fast_cold, cold_diag) = fast_solve(None).expect("fast solve");
        let fast_solve_seconds = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (_, warm_diag) = fast_solve(Some(cold_diag.t_star)).expect("fast warm solve");
        let fast_warm_solve_seconds = t0.elapsed().as_secs_f64();
        println!(
            "  cold {fast_solve_seconds:.3}s / warm {fast_warm_solve_seconds:.3}s [{}]",
            cold_diag.solver_mode
        );
        debug_assert_eq!(warm_diag.solver_mode, cold_diag.solver_mode);
        let fast_rel_spend_error =
            (fast_cold.spent - solution.spent).abs() / solution.spent.abs().max(1.0);

        // Incremental-patch micro-bench on the service's keyed layout:
        // cold keyed build vs a patch with a small dirty batch. The rows
        // themselves are unchanged, so the patch's cost is pure re-sort
        // work on the dirty segments plus O(n) validation of the rest —
        // the O(S + dirty·(N/S)·log(N/S)) bound made measurable.
        println!(
            "keyed-index patch micro-bench ({PATCH_SEGMENTS} segments, \
             {PATCH_DIRTY_SEGMENTS} dirty) ..."
        );
        let seg_keys: Vec<u32> = (0..cols.len())
            .map(|i| ((i / PATCH_ROUTE_BLOCK) % PATCH_SEGMENTS) as u32)
            .collect();
        let t0 = Instant::now();
        let keyed = ActiveSetIndex::build_keyed(
            &index_cols,
            &seg_keys,
            PATCH_SEGMENTS,
            bound.alpha_over_r(),
            options.q_min,
            1.0,
            options.config.n_threads,
        );
        let index_keyed_build_seconds = t0.elapsed().as_secs_f64();
        let mut dirty = vec![false; PATCH_SEGMENTS];
        for flag in dirty.iter_mut().take(PATCH_DIRTY_SEGMENTS) {
            *flag = true;
        }
        let t0 = Instant::now();
        let (patched, patch_stats) = keyed.patch(
            &index_cols,
            &seg_keys,
            &dirty,
            1.0,
            options.config.n_threads,
        );
        let patch_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let index_patch_seconds = patch_ns as f64 / 1e9;
        assert_eq!(patched, keyed, "patched keyed index diverged from cold");
        println!(
            "  cold keyed {index_keyed_build_seconds:.3}s vs patch {index_patch_seconds:.3}s \
             (rebuilt {}, repaired {}, reused {})",
            patch_stats.rebuilt, patch_stats.repaired, patch_stats.reused
        );
        recorder.observe(Metric::SolverIndexPatchNs, patch_ns);
        recorder.add(
            Metric::SolverIndexSegmentsRebuilt,
            patch_stats.rebuilt as u64,
        );
        recorder.add(
            Metric::SolverIndexSegmentsRepaired,
            patch_stats.repaired as u64,
        );
        recorder.add(Metric::SolverIndexSegmentsReused, patch_stats.reused as u64);

        Some(FastStats {
            solver_mode: cold_diag.solver_mode.as_str().to_string(),
            index_build_seconds,
            fast_solve_seconds,
            fast_warm_solve_seconds,
            probe_evaluations: cold_diag.probe_evaluations,
            probe_evaluations_exact: exact_diag.probe_evaluations,
            fast_rel_spend_error,
            index_segments: index.segment_count(),
            index_keyed_build_seconds,
            index_patch_seconds,
            index_patch_segments_rebuilt: patch_stats.rebuilt,
            index_patch_segments_reused: patch_stats.reused,
        })
    } else {
        None
    };

    // Wrap the solution already computed — no third solve.
    let se = StackelbergEquilibrium::from_stage_one(solution, &population, &bound, budget);
    let tight = se.is_budget_tight(1e-5);
    let theorem2 = se.theorem2_max_residual(&population, &bound, 10_000, args.seed);
    let negative = se.negative_payment_count();

    let mut report = String::new();
    report.push_str(&format!(
        "clients={} threads={} seed={} budget={:.6e}\n",
        args.clients, args.threads, args.seed, budget
    ));
    report.push_str(&format!(
        "  synthesize: {:.3}s   solve_kkt: {:.3}s\n",
        synth_time.as_secs_f64(),
        solve_time.as_secs_f64()
    ));
    report.push_str(&format!(
        "  spent={:.6e} budget_tight={} saturated={} lambda={:?}\n",
        se.spent(),
        tight,
        se.is_saturated(),
        se.lambda()
    ));
    report.push_str(&format!(
        "  theorem2_max_residual(10k sample)={} negative_payments={}\n",
        theorem2.map_or("n/a".into(), |r| format!("{r:.3e}")),
        negative
    ));
    report.push_str(&format!(
        "  parallel==sequential: {}\n",
        seq_matches.map_or("skipped".into(), |m| m.to_string())
    ));
    if let Some(fast) = &fast {
        report.push_str(&format!(
            "  fast path [{}]: index {:.3}s, cold {:.3}s, warm {:.3}s\n",
            fast.solver_mode,
            fast.index_build_seconds,
            fast.fast_solve_seconds,
            fast.fast_warm_solve_seconds
        ));
        report.push_str(&format!(
            "  probe work: fast {} vs exact {} spend-evaluations ({:.1}x fewer), rel spend error {:.3e}\n",
            fast.probe_evaluations,
            fast.probe_evaluations_exact,
            fast.probe_evaluations_exact as f64 / (fast.probe_evaluations.max(1)) as f64,
            fast.fast_rel_spend_error
        ));
        report.push_str(&format!(
            "  segmented index: {} grid segments; keyed patch {:.3}s vs cold keyed build {:.3}s \
             (rebuilt {}, reused {})\n",
            fast.index_segments,
            fast.index_patch_seconds,
            fast.index_keyed_build_seconds,
            fast.index_patch_segments_rebuilt,
            fast.index_patch_segments_reused
        ));
    }
    print!("{report}");

    if let Some(path) = &args.out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open report file");
        file.write_all(report.as_bytes()).expect("write report");
        println!("appended to {path}");
    }

    if let Some(path) = &args.json {
        let record = JsonRecord {
            clients: args.clients,
            threads: args.threads,
            seed: args.seed,
            budget,
            synthesize_seconds: synth_time.as_secs_f64(),
            solve_seconds: solve_time.as_secs_f64(),
            spent: se.spent(),
            budget_tight: tight,
            saturated: se.is_saturated(),
            lambda: se.lambda(),
            theorem2_max_residual: theorem2,
            negative_payments: negative,
            parallel_matches_sequential: seq_matches,
            solver_mode: fast.as_ref().map(|f| f.solver_mode.clone()),
            index_build_seconds: fast.as_ref().map(|f| f.index_build_seconds),
            fast_solve_seconds: fast.as_ref().map(|f| f.fast_solve_seconds),
            fast_warm_solve_seconds: fast.as_ref().map(|f| f.fast_warm_solve_seconds),
            probe_evaluations: fast.as_ref().map(|f| f.probe_evaluations),
            probe_evaluations_exact: fast.as_ref().map(|f| f.probe_evaluations_exact),
            fast_rel_spend_error: fast.as_ref().map(|f| f.fast_rel_spend_error),
            index_segments: fast.as_ref().map(|f| f.index_segments),
            index_keyed_build_seconds: fast.as_ref().map(|f| f.index_keyed_build_seconds),
            index_patch_seconds: fast.as_ref().map(|f| f.index_patch_seconds),
            index_patch_segments_rebuilt: fast.as_ref().map(|f| f.index_patch_segments_rebuilt),
            index_patch_segments_reused: fast.as_ref().map(|f| f.index_patch_segments_reused),
        };
        // `None` fields serialize as `null`, which the ledger schema
        // rejects — strip them so plain runs keep the historical shape
        // and fast runs only add the fields they measured.
        let mut value = record.to_value();
        if let Value::Map(entries) = &mut value {
            entries.retain(|(_, v)| !matches!(v, Value::Null));
        }
        let line = serde_json::to_string(&value).expect("serialize json record");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open json record file");
        writeln!(file, "{line}").expect("write json record");
        println!("appended JSON record to {path}");
    }

    if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
        let record = MetricsRecord::new("scale_equilibrium", "none", &registry.snapshot());
        let line = serde_json::to_string(&record).expect("serialize metrics record");
        if let Err(err) = check_line(&line) {
            eprintln!("scale_equilibrium: produced a malformed metrics record: {err}");
            std::process::exit(1);
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open metrics record file");
        writeln!(file, "{line}").expect("write metrics record");
        println!("appended metrics record to {path}");
    }

    let ok =
        tight && theorem2.map_or(se.is_saturated(), |r| r < 1e-6) && seq_matches.unwrap_or(true);
    if !ok {
        eprintln!("FAILED: equilibrium checks did not hold");
        std::process::exit(1);
    }
}
