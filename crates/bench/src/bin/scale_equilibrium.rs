//! The million-client equilibrium demonstration: synthesize a streaming
//! population, solve the Stage-I Stackelberg equilibrium with the chunked
//! parallel KKT solver, verify the paper's invariants on a sample, and
//! check the determinism contract (parallel output bit-identical to
//! sequential).
//!
//! ```text
//! scale_equilibrium [--clients N] [--threads T] [--seed S]
//!                   [--budget-frac F] [--out PATH] [--no-out]
//!                   [--skip-sequential] [--fast-path]
//! ```
//!
//! With `--fast-path`, the run additionally builds the threshold index
//! (timed, positional segments), runs the certified fast solve cold and
//! warm (index + hint reuse), and reports the probe-work comparison
//! against the exact solve — the sub-linear λ-probe demonstration. The
//! exact solve remains the one whose equilibrium is verified and
//! reported.
//!
//! Defaults: 1,000,000 clients, auto threads, seed 2023, budget at half
//! the saturation path, report appended to
//! `results/scale_equilibrium.txt`. The solve runs over the population's
//! solver columns (`solve_kkt_columns`); the sequential one-thread
//! re-solve (`solve_kkt`) then asserts it bit-identical — unless
//! `--skip-sequential` suppresses that check.

use fedfl_core::active_set::{ActiveSetIndex, IndexColumns, GRID_SEGMENT};
use fedfl_core::bound::BoundParams;
use fedfl_core::equilibrium::StackelbergEquilibrium;
use fedfl_core::population::{Population, PopulationSpec};
use fedfl_core::server::{path_budget, solve_kkt, solve_kkt_columns, SolverOptions};
use fedfl_obs::NoopRecorder;
use std::io::Write as _;
use std::time::Instant;

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
                "--skip-sequential" => args.skip_sequential = true,
                "--fast-path" => args.fast_path = true,
                other => {
                    return Err(format!(
                        "unknown flag `{other}` (expected --clients N, --threads T, --seed S, \
                         --budget-frac F, --out PATH, --no-out, --skip-sequential, --fast-path)"
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
    let cols = population.columns();
    let t0 = Instant::now();
    let (solution, exact_diag) =
        solve_kkt_columns(&cols, &bound, budget, &options, None, None, &NoopRecorder)
            .expect("solve");
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
        let index_build_seconds = t0.elapsed().as_secs_f64();
        println!("  {index_build_seconds:.3}s");
        println!("fast solve (cold, then warm with index + hint reuse) ...");
        let fast_solve = |hint: Option<f64>| {
            solve_kkt_columns(
                &cols,
                &bound,
                budget,
                &options,
                hint,
                Some(&index),
                &NoopRecorder,
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
        let index_patch_seconds = t0.elapsed().as_secs_f64();
        assert_eq!(patched, keyed, "patched keyed index diverged from cold");
        println!(
            "  cold keyed {index_keyed_build_seconds:.3}s vs patch {index_patch_seconds:.3}s \
             (rebuilt {}, repaired {}, reused {})",
            patch_stats.rebuilt, patch_stats.repaired, patch_stats.reused
        );

        // The report lines of everything the fast path measured beyond
        // the exact solve.
        let probes_fast = cold_diag.probe_evaluations;
        let probes_exact = exact_diag.probe_evaluations;
        Some(
            [
                format!(
                    "  fast path [{}]: index {index_build_seconds:.3}s, \
                     cold {fast_solve_seconds:.3}s, warm {fast_warm_solve_seconds:.3}s\n",
                    cold_diag.solver_mode
                ),
                format!(
                    "  probe work: fast {probes_fast} vs exact {probes_exact} spend-evaluations \
                     ({:.1}x fewer), rel spend error {fast_rel_spend_error:.3e}\n",
                    probes_exact as f64 / probes_fast.max(1) as f64
                ),
                format!(
                    "  segmented index: {} grid segments; keyed patch {index_patch_seconds:.3}s \
                     vs cold keyed build {index_keyed_build_seconds:.3}s (rebuilt {}, reused {})\n",
                    index.segment_count(),
                    patch_stats.rebuilt,
                    patch_stats.reused
                ),
            ]
            .concat(),
        )
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
    if let Some(lines) = &fast {
        report.push_str(lines);
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

    let ok =
        tight && theorem2.map_or(se.is_saturated(), |r| r < 1e-6) && seq_matches.unwrap_or(true);
    if !ok {
        eprintln!("FAILED: equilibrium checks did not hold");
        std::process::exit(1);
    }
}
