//! `pricebench` — closed-loop benchmark of the pricing service.
//!
//! ```text
//! cargo run --release --manifest-path pricebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client, solver threads fixed at 2. The workload's
//! commands are generated from the seed and built before any clock
//! starts; the measured loop only moves them into
//! `PricingService::execute` or, on the wire workload,
//! `PricingClient::call` over one loopback connection. Served prices are
//! checked against a twin service at untimed checkpoints; a mismatch
//! stops the run, which still prints its operation counts and a JSON line
//! with `"correct": false`, then exits with status 1.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! untraced phase, then a traced phase over the same commands with an
//! `obs::Registry` installed, and prints the per-layer metrics. The last
//! line of standard output is one JSON object.

mod host;
mod layers;
mod measure;
mod stats;
mod stream;
#[cfg(test)]
mod tests;
mod transport;
mod workloads;

use host::Reference;
use layers::{LayerSamples, Traced};
use measure::{run_phase, setup, Length, Measures, Tally, Twin, Untraced};
use stats::{mean, median, percentile};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Built, Workload, DEFAULT_SEED, SOLVER_THREADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Host reference samples taken before the phases (more follow between
/// segments).
const HOST_REF_REPEATS: usize = 9;

const USAGE: &str = "usage: pricebench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
workloads: diurnal-exact-100k, local-churn-fast-250k, wire-reads-fast-100k";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Percentile `q` of `samples` as a metric, or an error naming the
/// metric when the run has too few samples for it.
fn pct(name: &'static str, samples: &[f64], q: f64) -> Result<Metric, String> {
    let value = percentile(samples, q).ok_or(format!(
        "{name}: {} samples cannot support it",
        samples.len()
    ))?;
    Ok(metric(name, value, "ms", samples.len()))
}

/// What the untraced phase measured.
struct UntracedRun {
    setup_s: Vec<f64>,
    rss_mb: f64,
    measures: Measures,
    /// Whether every checkpoint passed.
    checked: bool,
}

/// The untraced phase: `setups` timed set-ups (the last one is kept),
/// then warm-up and the measured segments.
fn untraced_phase(
    workload: Workload,
    built: &Built,
    seconds: f64,
    setups: usize,
    host: &mut Reference,
    tally: &mut Tally,
) -> Result<UntracedRun, String> {
    let stream = &built.stream;
    let batches: Vec<_> = (0..setups).map(|_| stream.seeding.clone()).collect();
    let baseline = host::rss_mb()?;
    host::reset_peak_rss()?;
    let mut target = None;
    let mut setup_s = Vec::new();
    let mut rss_mb = None;
    for batch in batches {
        drop(target.take());
        let (t, secs) = setup(
            built.config,
            workload.over_wire(),
            None,
            batch,
            stream,
            &mut Untraced,
            tally,
        )?;
        // The first set-up runs on a fresh heap: its peak is what the
        // service adds. Later set-ups reuse freed memory.
        if rss_mb.is_none() {
            rss_mb = Some(host::peak_rss_mb()? - baseline);
        }
        target = Some(t);
        setup_s.push(secs);
    }
    let rss_mb = rss_mb.expect("at least one set-up");
    let mut target = target.expect("at least one set-up");
    let mut twin = Twin::new(built.config, stream, workload.tolerance())?;
    let (measures, last) = run_phase(
        &mut target,
        &mut twin,
        stream,
        Length::Seconds(seconds),
        &mut Untraced,
        host,
        tally,
    )?;
    Ok(UntracedRun {
        setup_s,
        rss_mb,
        measures,
        checked: last.is_some(),
    })
}

fn end_to_end(phase: &UntracedRun) -> Result<Vec<Metric>, String> {
    let m = &phase.measures;
    Ok(vec![
        metric("setup_s", median(&phase.setup_s), "s", phase.setup_s.len()),
        pct("resolve_p50_ms", &m.resolve, 0.5)?,
        pct("resolve_p90_ms", &m.resolve, 0.9)?,
        pct("read_p50_ms", &m.read, 0.5)?,
        pct("write_p50_ms", &m.write, 0.5)?,
        pct("snapshot_p50_ms", &m.snapshot, 0.5)?,
        metric("steps_per_s", m.steps as f64 / m.wall_s, "1/s", m.steps),
        metric("service_rss_mb", phase.rss_mb, "MB", 1),
    ])
}

/// Median of `samples` as a per-layer metric (no tail, so no minimum
/// beyond one sample).
fn p50(name: &'static str, samples: &[f64]) -> Result<Metric, String> {
    pct(name, samples, 0.5)
}

fn ratio(name: &'static str, num: f64, den: f64, samples: usize) -> Metric {
    metric(name, num / den, "ratio", samples)
}

/// What the traced phase observed.
struct TracedRun {
    samples: LayerSamples,
    measures: Measures,
    /// Wire only: encode and decode time of the last snapshot reply, ms.
    codec: Option<(f64, f64)>,
}

/// The traced phase over exactly the untraced phase's segments; `None`
/// when a checkpoint failed.
fn traced_phase(
    workload: Workload,
    built: &Built,
    segments: usize,
    host: &mut Reference,
    tally: &mut Tally,
) -> Result<Option<TracedRun>, String> {
    let stream = &built.stream;
    let registry = Arc::new(fedfl_obs::Registry::new());
    let mut observer = Traced::new(
        Arc::clone(&registry),
        workload.over_wire(),
        built.config.shards,
    );
    let (mut target, _) = setup(
        built.config,
        workload.over_wire(),
        Some(registry),
        stream.seeding.clone(),
        stream,
        &mut observer,
        tally,
    )?;
    let mut twin = Twin::new(built.config, stream, workload.tolerance())?;
    let (measures, last) = run_phase(
        &mut target,
        &mut twin,
        stream,
        Length::Segments(segments),
        &mut observer,
        host,
        tally,
    )?;
    let Some(last) = last else {
        return Ok(None);
    };
    // The codec cost of the run's last snapshot reply, timed directly.
    let codec = workload.over_wire().then(|| {
        let reply = fedfl_net::WireReply::Ok(fedfl_service::Response::Snapshot(last));
        let started = Instant::now();
        let bytes = reply.encode();
        let encode_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let decoded = fedfl_net::WireReply::decode(&bytes);
        let decode_ms = started.elapsed().as_secs_f64() * 1e3;
        assert!(decoded.is_ok(), "a snapshot reply decodes");
        (encode_ms, decode_ms)
    });
    Ok(Some(TracedRun {
        samples: observer.samples,
        measures,
        codec,
    }))
}

/// Per-layer metrics: those common to every workload go in the JSON
/// line; workload-specific ones are returned separately for the text
/// report.
fn per_layer(
    workload: Workload,
    untraced: &Measures,
    traced: &TracedRun,
    host_ref: (f64, usize),
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let s = &traced.samples;
    let solves = s.reprice.len();
    let untraced_resolve = percentile(&untraced.resolve, 0.5).ok_or("no untraced re-solves")?;
    let traced_resolve = percentile(&traced.measures.resolve, 0.5).ok_or("no traced re-solves")?;
    let cpu = untraced.cpu.user + untraced.cpu.sys;
    let common = vec![
        p50("service.reprice_p50_ms", &s.reprice)?,
        p50("service.floor_p50_ms", &s.floor)?,
        metric(
            "service.dirty_shard_frac",
            mean(&s.dirty_frac),
            "ratio",
            solves,
        ),
        metric(
            "service.rebuilt_columns",
            mean(&s.rebuilt_columns),
            "count",
            solves,
        ),
        p50("service.add_p50_ms", &s.writes[0])?,
        p50("service.remove_p50_ms", &s.writes[1])?,
        p50("service.read_p50_ms", &s.read_service)?,
        ratio("service.warm_frac", s.warm as f64, solves as f64, solves),
        p50("core.solve_p50_ms", &s.solve)?,
        metric(
            "core.iterations_per_solve",
            mean(&s.iterations),
            "count",
            solves,
        ),
        metric(
            "core.probe_evals_per_client",
            mean(&s.probe_evals_per_client),
            "count",
            solves,
        ),
        metric("core.fallback_solves", s.fallbacks as f64, "count", solves),
        ratio("num.cpu_per_wall", cpu, untraced.wall_s, untraced.steps),
        ratio("num.sys_share", untraced.cpu.sys, cpu, untraced.steps),
        ratio(
            "obs.overhead_frac",
            traced_resolve - untraced_resolve,
            untraced_resolve,
            solves,
        ),
        ratio(
            "bench.loop_share",
            untraced.wall_s - untraced.busy_s,
            untraced.wall_s,
            untraced.steps,
        ),
        metric("host.ref_ms", host_ref.0, "ms", host_ref.1),
        metric(
            "host.steal_frac",
            untraced.host.steal_frac(),
            "ratio",
            untraced.steps,
        ),
    ];
    let mut specific = Vec::new();
    if workload == Workload::DiurnalExact {
        specific.push(p50("service.availability_p50_ms", &s.writes[2])?);
    } else {
        let [rebuilt, repaired, reused] = s.segments.map(|n| n as f64);
        let patches = s.index_patch.len();
        specific.extend([
            p50("service.budget_p50_ms", &s.writes[3])?,
            p50("core.index_patch_p50_ms", &s.index_patch)?,
            metric("core.index_build_ms", s.index_build_ms, "ms", 1),
            ratio(
                "core.segments_reused_frac",
                reused,
                rebuilt + repaired + reused,
                patches,
            ),
            metric(
                "core.segments_repaired",
                repaired / patches as f64,
                "count",
                patches,
            ),
            ratio(
                "core.index_reuse_frac",
                s.index_reuses as f64,
                solves as f64,
                solves,
            ),
        ]);
    }
    if let Some((encode_ms, decode_ms)) = traced.codec {
        specific.extend([
            p50("net.read_server_p50_ms", &s.read_service)?,
            p50("net.read_transport_p50_ms", &s.read_transport)?,
            p50("net.publish_p50_ms", &s.publish)?,
            p50("net.snapshot_transport_p50_ms", &s.snapshot_transport)?,
            metric("net.encode_snapshot_ms", encode_ms, "ms", 1),
            metric("net.decode_snapshot_ms", decode_ms, "ms", 1),
            metric(
                "net.bytes_per_read",
                mean(&s.read_bytes),
                "B",
                s.read_bytes.len(),
            ),
            metric(
                "net.bytes_per_snapshot",
                mean(&s.snapshot_bytes),
                "B",
                s.snapshot_bytes.len(),
            ),
        ]);
    }
    Ok((common, specific))
}

/// Whether the traced figures confirm the workload's stated role.
fn role_check(workload: Workload, common: &[Metric], specific: &[Metric], read_p50: f64) -> String {
    let get = |name: &str| {
        common
            .iter()
            .chain(specific)
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let (claim, holds) = match workload {
        Workload::DiurnalExact => (
            "dirty_shard_frac >= 0.8 and solve > half of reprice",
            get("service.dirty_shard_frac") >= 0.8
                && get("core.solve_p50_ms") > 0.5 * get("service.reprice_p50_ms"),
        ),
        Workload::LocalChurnFast => (
            "dirty_shard_frac <= 0.05 and floor is the largest of floor, solve, index patch",
            get("service.dirty_shard_frac") <= 0.05
                && get("service.floor_p50_ms") >= get("core.solve_p50_ms")
                && get("service.floor_p50_ms") >= get("core.index_patch_p50_ms"),
        ),
        Workload::WireReadsFast => (
            "read transport > half of read_p50_ms",
            get("net.read_transport_p50_ms") > 0.5 * read_p50,
        ),
    };
    format!(
        "role check ({claim}): {}",
        if holds { "holds" } else { "does not hold" }
    )
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{label} {} {} {} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Run the workload. Returns the tally and the metrics to report; the
/// metrics are empty when a failed checkpoint stopped the run.
fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let workload = args.workload;
    println!(
        "pricebench {} seed {} seconds {} trace {} solver threads {SOLVER_THREADS}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let started = Instant::now();
    let built = workload.build(args.seed)?;
    let fingerprint = built.stream.fingerprint;
    let pinned = workload.pinned_fingerprint();
    if args.seed == DEFAULT_SEED && fingerprint != pinned {
        return Err(format!(
            "input fingerprint {fingerprint:016x} differs from the pinned {pinned:016x}: \
             the generated commands changed, so this is no longer the same workload"
        ));
    }
    println!(
        "input fingerprint {fingerprint:016x} ({}), {} clients, {} steps in {} segments, \
         generated in {:.2} s",
        if args.seed == DEFAULT_SEED {
            "matches the pin"
        } else {
            "unpinned seed"
        },
        built.stream.seeding.len(),
        built.stream.steps.len(),
        built.stream.segments(),
        started.elapsed().as_secs_f64()
    );
    let mut host = Reference::new();
    host.sample(HOST_REF_REPEATS);
    let mut tally = Tally::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let untraced = untraced_phase(
        workload,
        &built,
        args.seconds,
        setups,
        &mut host,
        &mut tally,
    )?;
    if !untraced.checked {
        return Ok((tally, Vec::new()));
    }
    let m = &untraced.measures;
    println!(
        "measured {} segments, {} steps in {:.2} s",
        m.segments, m.steps, m.wall_s
    );
    let metrics = if args.trace {
        let Some(traced) = traced_phase(workload, &built, m.segments, &mut host, &mut tally)?
        else {
            return Ok((tally, Vec::new()));
        };
        let read_p50 = percentile(&m.read, 0.5).ok_or("no reads")?;
        let (common, specific) = per_layer(workload, m, &traced, host.median_ms())?;
        print_metrics("layer", &common);
        print_metrics("layer", &specific);
        println!("{}", role_check(workload, &common, &specific, read_p50));
        if workload.over_wire() {
            println!(
                "note: the server records into a registry in both phases, so on this \
                 workload obs.overhead_frac is the cost of the per-call attribution, not \
                 of recording"
            );
        }
        common
    } else {
        let metrics = end_to_end(&untraced)?;
        print_metrics("metric", &metrics);
        metrics
    };
    println!("host.ref_ms {}", host.median_ms().0);
    println!("host.steal_frac {}", m.host.steal_frac());
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not finite", bad.name));
    }
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pricebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            let correct = tally.failed == 0;
            println!("ops attempted={} failed={}", tally.attempted, tally.failed);
            println!("{}", json_line(correct, tally, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pricebench: {e}");
            ExitCode::FAILURE
        }
    }
}
