//! Closed-loop workload driver for the pricing service.
//!
//! Generates the deterministic diurnal/flash-crowd trace described by a
//! [`fedfl_workload::WorkloadSpec`], replays it through a live
//! [`fedfl_service::PricingService`], and reports per-phase p50/p99
//! re-solve and read latencies, warm-vs-cold bisection iterations, and
//! dirty-shard fractions. With `--verify-every V`, every V-th step's
//! served prices are certified bit-identical to a from-scratch solve.
//!
//! ```text
//! workload [--clients N] [--steps S] [--seed S] [--shards K] [--threads T]
//!          [--period P] [--trough F] [--peak F] [--cohorts C]
//!          [--arrivals N] [--departures N]
//!          [--surge-every K] [--surge-size N] [--surge-hold K]
//!          [--budget-every K] [--budget-frac F] [--budget-tail-alpha A]
//!          [--reads N] [--read-batch N] [--snapshot-every K]
//!          [--verify-every V] [--min-population N] [--fast-path]
//!          [--transport inproc|tcp] [--record-wire PATH]
//!          [--assert-price-checksum HEX] [--assert-solver-mode MODE]
//!          [--assert-mean-resolve-ms X] [--assert-p99-read-ms X]
//!          [--assert-counter NAME=V] [--assert-counter-min NAME=V]
//!          [--assert-counter-le A=B] [--out PATH] [--no-out]
//! ```
//!
//! Every number the run reports comes from one obs registry: the
//! service, the solver and the replay loop record into it, and the
//! summary reads its snapshot (with `--transport tcp`, the snapshot is a
//! `Metrics` scrape over the connection, so the exposition path itself is
//! exercised).
//!
//! `--fast-path` replays through the threshold-indexed fast solver;
//! `verify_every` checkpoints then certify served prices against the
//! fast-path tolerance instead of bit-identity, and the price checksum is
//! no longer comparable to exact-solver references.
//! `--assert-solver-mode exact|threshold_index|threshold_index_fallback`
//! pins the run-level solver mode (CI uses
//! `--assert-solver-mode threshold_index` to prove certification never
//! tripped the fallback on the reference trace).
//!
//! With `--transport tcp` the trace is replayed through a loopback
//! `fedfl-net` server instead of direct calls; the served price bits and
//! `price_checksum` must be bit-identical to the in-process transport.
//! `--assert-price-checksum` pins the checksum to a reference (CI pins
//! both transports to the 10k reference checksum), and `--record-wire`
//! dumps every (command, reply) exchange to a JSONL wire trace.
//!
//! `--assert-counter NAME=V` and `--assert-counter-min NAME=V` gate on
//! the snapshot's counters, and `--assert-counter-le A=B` gates counter A
//! at or below counter B (CI uses
//! `solver_index_segments_rebuilt=service_dirty_shards` to prove churn
//! batches patch only the affected shard segments). Names are accepted
//! with or without the `fedfl_` prefix and `_total` suffix.
//! `--assert-mean-resolve-ms` reads the exact mean of the re-solve
//! histograms, `--assert-p99-read-ms` the p99 of the read histograms
//! (the upper bound of its bucket, at most 1/32 above the sample).
//!
//! Defaults are the committed 10k reference trace
//! ([`WorkloadSpec::reference_10k`]). A human-readable report is appended
//! to `results/workload.txt`. Exits non-zero on a bit-identity mismatch
//! or a failed gate.

use fedfl_bench::tcp::replay_over_tcp;
use fedfl_workload::report::counter;
use fedfl_workload::{generate, replay, WorkloadRecord, WorkloadSpec};
use std::io::Write as _;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Transport {
    Inproc,
    Tcp,
}

impl Transport {
    fn name(self) -> &'static str {
        match self {
            Transport::Inproc => "inproc",
            Transport::Tcp => "tcp",
        }
    }
}

struct Args {
    spec: WorkloadSpec,
    transport: Transport,
    record_wire: Option<String>,
    assert_price_checksum: Option<String>,
    assert_solver_mode: Option<String>,
    assert_mean_resolve_ms: Option<f64>,
    assert_p99_read_ms: Option<f64>,
    out: Option<String>,
    assert_counter: Vec<(String, u64)>,
    assert_counter_min: Vec<(String, u64)>,
    assert_counter_le: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            spec: WorkloadSpec::reference_10k(),
            transport: Transport::Inproc,
            record_wire: None,
            assert_price_checksum: None,
            assert_solver_mode: None,
            assert_mean_resolve_ms: None,
            assert_p99_read_ms: None,
            out: Some("results/workload.txt".into()),
            assert_counter: Vec::new(),
            assert_counter_min: Vec::new(),
            assert_counter_le: Vec::new(),
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
            let spec = &mut args.spec;
            match arg.as_str() {
                "--clients" => spec.clients = parse(value("--clients")?)?,
                "--steps" => spec.steps = parse(value("--steps")?)?,
                "--seed" => spec.seed = parse(value("--seed")?)?,
                "--shards" => spec.shards = parse(value("--shards")?)?,
                "--threads" => spec.threads = parse(value("--threads")?)?,
                "--period" => spec.diurnal.period = parse(value("--period")?)?,
                "--trough" => spec.diurnal.trough = parse(value("--trough")?)?,
                "--peak" => spec.diurnal.peak = parse(value("--peak")?)?,
                "--cohorts" => spec.cohorts = parse(value("--cohorts")?)?,
                "--arrivals" => spec.arrivals_per_step = parse(value("--arrivals")?)?,
                "--departures" => spec.departures_per_step = parse(value("--departures")?)?,
                "--surge-every" => spec.surge_every = parse(value("--surge-every")?)?,
                "--surge-size" => spec.surge_size = parse(value("--surge-size")?)?,
                "--surge-hold" => spec.surge_hold = parse(value("--surge-hold")?)?,
                "--budget-every" => spec.budget_every = parse(value("--budget-every")?)?,
                "--budget-frac" => spec.budget_frac = parse(value("--budget-frac")?)?,
                "--budget-tail-alpha" => {
                    spec.budget_tail_alpha = parse(value("--budget-tail-alpha")?)?
                }
                "--reads" => spec.reads_per_step = parse(value("--reads")?)?,
                "--read-batch" => spec.read_batch = parse(value("--read-batch")?)?,
                "--snapshot-every" => spec.snapshot_every = parse(value("--snapshot-every")?)?,
                "--verify-every" => spec.verify_every = parse(value("--verify-every")?)?,
                "--min-population" => spec.min_population = parse(value("--min-population")?)?,
                "--fast-path" => spec.fast_path = true,
                "--transport" => {
                    args.transport = match value("--transport")?.as_str() {
                        "inproc" => Transport::Inproc,
                        "tcp" => Transport::Tcp,
                        other => return Err(format!("unknown transport `{other}`")),
                    }
                }
                "--record-wire" => args.record_wire = Some(value("--record-wire")?),
                "--assert-price-checksum" => {
                    args.assert_price_checksum = Some(value("--assert-price-checksum")?)
                }
                "--assert-solver-mode" => {
                    args.assert_solver_mode = Some(value("--assert-solver-mode")?)
                }
                "--assert-mean-resolve-ms" => {
                    args.assert_mean_resolve_ms = Some(parse(value("--assert-mean-resolve-ms")?)?)
                }
                "--assert-p99-read-ms" => {
                    args.assert_p99_read_ms = Some(parse(value("--assert-p99-read-ms")?)?)
                }
                "--assert-counter" => args
                    .assert_counter
                    .push(parse_counter_assert(&value("--assert-counter")?)?),
                "--assert-counter-min" => args
                    .assert_counter_min
                    .push(parse_counter_assert(&value("--assert-counter-min")?)?),
                "--assert-counter-le" => args
                    .assert_counter_le
                    .push(parse_counter_pair(&value("--assert-counter-le")?)?),
                "--out" => args.out = Some(value("--out")?),
                "--no-out" => args.out = None,
                other => return Err(format!("unknown flag `{other}` (see --help in the doc)")),
            }
        }
        // Scale the population floor with smaller --clients runs so CI
        // smokes don't have to pass --min-population explicitly.
        if args.spec.min_population > args.spec.clients {
            args.spec.min_population = (args.spec.clients / 10).max(1);
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(s: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value `{s}`: {e}"))
}

/// Parse a `NAME=VALUE` counter assertion.
fn parse_counter_assert(s: &str) -> Result<(String, u64), String> {
    let (name, value) = s
        .split_once('=')
        .ok_or_else(|| format!("bad counter assertion `{s}`: expected NAME=VALUE"))?;
    Ok((name.to_string(), parse(value.to_string())?))
}

/// Parse an `A=B` counter-vs-counter assertion (A must be ≤ B).
fn parse_counter_pair(s: &str) -> Result<(String, String), String> {
    let (a, b) = s
        .split_once('=')
        .ok_or_else(|| format!("bad counter comparison `{s}`: expected NAME=NAME"))?;
    if a.is_empty() || b.is_empty() {
        return Err(format!("bad counter comparison `{s}`: expected NAME=NAME"));
    }
    Ok((a.to_string(), b.to_string()))
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("workload: {msg}");
            std::process::exit(2);
        }
    };
    let spec = &args.spec;
    if let Err(err) = spec.validate() {
        eprintln!("workload: {err}");
        std::process::exit(2);
    }

    println!(
        "generating trace: {} clients, {} steps, period {}, {} cohorts, seed {} ...",
        spec.clients, spec.steps, spec.diurnal.period, spec.cohorts, spec.seed
    );
    let trace = match generate(spec) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("workload: {err}");
            std::process::exit(2);
        }
    };
    println!(
        "trace {:016x}: {} commands; replaying over {} through {} shards ({} threads) ...",
        trace.fingerprint,
        trace.commands(),
        args.transport.name(),
        spec.shards,
        spec.threads
    );
    if args.record_wire.is_some() && args.transport != Transport::Tcp {
        eprintln!("workload: --record-wire needs --transport tcp");
        std::process::exit(2);
    }
    let outcome = match args.transport {
        Transport::Inproc => replay(spec, &trace),
        Transport::Tcp => replay_over_tcp(spec, &trace, args.record_wire.as_deref()),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(err) => {
            eprintln!("workload: {err}");
            std::process::exit(1);
        }
    };
    let record = WorkloadRecord::new(spec, &trace, &outcome);

    let mut report = String::new();
    report.push_str(&format!(
        "workload[{}]: clients {} (final {}), steps {}, shards {}, threads {}, seed {}\n",
        args.transport.name(),
        record.clients,
        record.final_clients,
        spec.steps,
        spec.shards,
        spec.threads,
        spec.seed
    ));
    report.push_str(&format!(
        "  trace {} · {} commands · prices {} · base budget {:.3}\n",
        record.trace_fingerprint, record.commands, record.price_checksum, record.base_budget
    ));
    report.push_str(&format!(
        "  solves: {} warm ({:.1} iters) / {} cold ({:.1} iters); dirty shards mean {:.3} max {:.3}; rebuilt columns mean {:.3}\n",
        record.warm_solves,
        record.mean_warm_iterations,
        record.cold_solves,
        record.mean_cold_iterations,
        record.mean_dirty_shard_fraction,
        record.max_dirty_shard_fraction,
        record.mean_rebuilt_column_fraction
    ));
    if spec.fast_path {
        report.push_str(&format!(
            "  index: {} cold builds (mean {:.3} ms) / {} patches (mean {:.3} ms); \
             segments rebuilt {} repaired {} reused {}\n",
            record.index_cold_builds,
            record.mean_index_build_ms,
            record.index_patches,
            record.mean_index_patch_ms,
            record.index_segments_rebuilt,
            record.index_segments_repaired,
            record.index_segments_reused
        ));
    }
    for phase in &record.phases {
        report.push_str(&format!(
            "  {:>6}: {} re-solves p50 {:.3} ms p99 {:.3} ms · {} reads p50 {:.3} ms p99 {:.3} ms\n",
            phase.phase,
            phase.resolves,
            phase.resolve_p50_ms,
            phase.resolve_p99_ms,
            phase.reads,
            phase.read_p50_ms,
            phase.read_p99_ms
        ));
    }
    report.push_str(&format!(
        "  verified {} / {} steps {} · solver {} · wall {:.2} s\n",
        record.verified_steps,
        spec.steps,
        if spec.fast_path {
            "within fast-path tolerance"
        } else {
            "bit-identical"
        },
        record.solver_mode,
        record.total_wall_seconds
    ));
    print!("{report}");

    if let Some(path) = &args.out {
        if let Err(err) = append(path, &report) {
            eprintln!("workload: cannot write {path}: {err}");
            std::process::exit(1);
        }
        println!("report appended to {path}");
    }

    // Every gate prints its verdict; any failure fails the run.
    let mut failed = false;
    let mut gate = |ok: bool, verdict: String| {
        if ok {
            println!("{verdict}");
        } else {
            eprintln!("workload: FAILED {verdict}");
            failed = true;
        }
    };
    // A counter's value, `-` when the snapshot has no such counter.
    let lookup = |name: &str| counter(&outcome.metrics, name);
    let show = |value: Option<u64>| value.map_or("-".to_string(), |v| v.to_string());
    for (name, expected) in &args.assert_counter {
        let value = lookup(name);
        gate(
            value == Some(*expected),
            format!("counter {name} = {}, expected {expected}", show(value)),
        );
    }
    for (name, floor) in &args.assert_counter_min {
        let value = lookup(name);
        gate(
            value.is_some_and(|v| v >= *floor),
            format!(
                "counter {name} = {}, expected at least {floor}",
                show(value)
            ),
        );
    }
    for (a, b) in &args.assert_counter_le {
        let (lhs, rhs) = (lookup(a), lookup(b));
        gate(
            matches!((lhs, rhs), (Some(l), Some(r)) if l <= r),
            format!(
                "counter {a} = {}, expected at most {b} = {}",
                show(lhs),
                show(rhs)
            ),
        );
    }
    if let Some(expected) = &args.assert_price_checksum {
        gate(
            &record.price_checksum == expected,
            format!(
                "price checksum {}, pinned reference {expected}",
                record.price_checksum
            ),
        );
    }
    if let Some(expected) = &args.assert_solver_mode {
        gate(
            &record.solver_mode == expected,
            format!(
                "solver mode `{}`, expected `{expected}`",
                record.solver_mode
            ),
        );
    }
    if let Some(ceiling) = args.assert_mean_resolve_ms {
        gate(
            record.mean_resolve_ms <= ceiling,
            format!(
                "mean re-solve {:.3} ms, ceiling {ceiling:.3} ms",
                record.mean_resolve_ms
            ),
        );
    }
    if let Some(ceiling) = args.assert_p99_read_ms {
        gate(
            record.read_p99_ms <= ceiling,
            format!(
                "p99 read {:.3} ms, ceiling {ceiling:.3} ms",
                record.read_p99_ms
            ),
        );
    }
    if failed {
        std::process::exit(1);
    }
}

fn append(path: &str, text: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(text.as_bytes())
}
