//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a perfvar checkout and prints, as
//! its last line, one JSON object: `correct`, `attempted`, `failed` and
//! the metrics — the end-to-end ones untraced, the per-layer ledger
//! traced. Lines before it, each starting with `#`, say what the numbers
//! were measured on. Exits 1 when any op failed its check.

use perfbench::host::{self, Probe};
use perfbench::layers::{self, METRICS};
use perfbench::spans::{self_time, subtree, Tracer};
use perfbench::stats::{at_reference_speed, latency_quantile, median, Better};
use perfbench::{serve, workloads, Ctx, Inject, Measured, Metric, Sample};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject: Option<Inject>,
}

const USAGE: &str = "usage: perfbench --workload <analyze-2m|serve-mixed|diagnose-exact> \
--seed <n> --seconds <s> --trace <0|1> [--inject <flip-body|wrong-origin>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        inject: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--inject" => {
                args.inject = Some(Inject::parse(&value).ok_or_else(|| bad(&"unknown fault"))?)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace),
        inject: args.inject,
        work: root
            .join(".bench_work")
            .join(format!("{}-{}", args.workload, std::process::id())),
        nproc: host::nproc(),
        tally: Default::default(),
    };
    // Writes left pending by whatever ran before are committed before
    // anything is timed, and this run's own deletions before it exits.
    host::sync_filesystems();
    let code = run(&args, &ctx, &root);
    let _ = std::fs::remove_dir_all(&ctx.work);
    // Only succeeds once no other run is using the scratch root.
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    host::sync_filesystems();
    code
}

fn run(args: &Args, ctx: &Ctx, root: &Path) -> ExitCode {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let load_before = host::loadavg();
    let alu_before = host::alu_canary_ms();
    let probe = Probe::now();
    let result = match args.workload.as_str() {
        "analyze-2m" => workloads::analyze_2m(ctx),
        "serve-mixed" => serve::serve_mixed(ctx),
        _ => workloads::diagnose_exact(ctx),
    };
    let noise = probe.since();
    let (setup, measured) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let ledger = if args.trace {
        // Before the ledger adds spans of its own.
        if let Err(e) = report_self_times(ctx) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        match layers::sweep(ctx) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("perfbench: per-layer ledger: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let read_canary = read_canary(ctx);
    let alu_after = host::alu_canary_ms();
    let context = serde_json::json!({
        "commit": host::commit(root),
        "source_digest": host::source_digest(root),
        "workload": args.workload.clone(),
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": args.trace,
        "nproc": ctx.nproc,
        "caches": host::caches().into_iter().map(|(l, s)| format!("{l}={s}")).collect::<Vec<_>>(),
        "kernel": host::kernel(),
        "loadavg_before": load_before,
        "loadavg_after": host::loadavg(),
        "wall_s": noise.wall_s,
        "cpu_s": noise.cpu_s,
        "runq_wait_s": noise.runq_s,
        "steal_frac": noise.steal_frac,
        "alu_canary_ms": [alu_before, alu_after],
        "read_canary_mib_per_s": read_canary,
    });
    println!(
        "# context {}",
        serde_json::to_string(&context).unwrap_or_default()
    );
    for note in &measured.notes {
        println!("# note {note}");
    }

    let metrics = match &ledger {
        None => end_to_end(&setup, &measured),
        Some(ledger) => {
            for (layer, calls, failed) in ledger.calls() {
                println!("# calls {layer}: {calls} calls, {failed} failed");
            }
            let mut m = ledger.metrics();
            m.extend(overhead(&measured));
            write_spans(ctx, root, args);
            m
        }
    };
    for m in &metrics {
        match m.summary {
            Some(s) => println!(
                "# metric {} = {} {} ({} is better; best {} median {} stddev {} quartiles {}..{} over n={})",
                m.name,
                m.value,
                m.unit,
                m.better.word(),
                s.best,
                s.median,
                s.stddev,
                s.quartiles.0,
                s.quartiles.1,
                s.n
            ),
            None => println!(
                "# metric {} = {} {} ({} is better)",
                m.name,
                m.value,
                m.unit,
                m.better.word()
            ),
        }
    }
    let (attempted, failed) = (ctx.tally.attempted(), ctx.tally.failed());
    println!(
        "# error_frac = {} ({failed} of {attempted} ops failed)",
        perfbench::stats::error_frac(attempted, failed)
    );
    for e in ctx.tally.errors() {
        println!("# failure {e}");
    }
    let expected: Vec<&str> = if args.trace {
        METRICS.iter().map(|m| m.0).collect()
    } else {
        E2E.to_vec()
    };
    let complete = expected
        .iter()
        .all(|n| metrics.iter().any(|m| m.name == *n));
    let correct = failed == 0 && attempted > 0 && complete;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
const E2E: [&str; 3] = ["setup_s", "p50_ref_ms", "peak_rss_mib"];

fn end_to_end(setup: &[f64], measured: &Measured) -> Vec<Metric> {
    let lat: Vec<(f64, bool)> = measured
        .latencies
        .iter()
        .filter(|s| !s.traced)
        .map(|s| (s.ms, s.ok))
        .collect();
    let quantiles: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .filter_map(|&q| Some(format!("q{q}={:.3}", latency_quantile(&lat, q)?)))
        .collect();
    println!(
        "# samples {} latencies ({} ms), {} set-ups",
        lat.len(),
        quantiles.join(" "),
        setup.len()
    );
    // Every end-to-end time is reported at the reference host speed; the
    // times as measured are printed beside them.
    let probe = &measured.probe_ms;
    let at_ref = |v: f64| at_reference_speed(v, probe, host::PROBE_REFERENCE_MS);
    println!(
        "# speed probe {} rounds, median {:.4} ms (reference {} ms)",
        probe.len(),
        median(probe).unwrap_or(f64::NAN),
        host::PROBE_REFERENCE_MS
    );
    let mut out = Vec::new();
    if let Some(v) = median(setup) {
        println!("# setup as measured: median {v:.4} s");
    }
    let setup: Vec<f64> = setup.iter().filter_map(|&s| at_ref(s)).collect();
    out.extend(Metric::median_of("setup_s", "s", Better::Lower, &setup));
    if let Some(v) = latency_quantile(&lat, 0.5) {
        println!("# p50 as measured {v:.4} ms");
        out.extend(at_ref(v).map(|v| Metric::single("p50_ref_ms", "ms", Better::Lower, v)));
    }
    if let Some(rss) = host::peak_rss_mib() {
        out.push(Metric::single("peak_rss_mib", "MiB", Better::Lower, rss));
    }
    out
}

/// Traced ÷ untraced median op latency − 1, over the interleaved ops,
/// compared within each kind of op; the median over the kinds.
fn overhead(measured: &Measured) -> Option<Metric> {
    let side = |kind: usize, traced: bool| -> Vec<f64> {
        measured
            .latencies
            .iter()
            .filter(|s: &&Sample| s.kind == kind && s.traced == traced && s.ok)
            .map(|s| s.ms)
            .collect()
    };
    let kinds = measured.latencies.iter().map(|s| s.kind).max()? + 1;
    let ratios: Vec<f64> = (0..kinds)
        .filter_map(|k| {
            let (on, off) = (median(&side(k, true))?, median(&side(k, false))?);
            println!("# tracing overhead, op kind {k}: traced median {on:.3} ms, untraced median {off:.3} ms");
            Some(on / off - 1.0)
        })
        .collect();
    Some(Metric::single(
        "tracing.overhead",
        "fraction",
        Better::Lower,
        median(&ratios)?,
    ))
}

/// Most of an op's wall time its layer spans may leave uncovered, as the
/// median over the traced ops.
const MAX_UNCOVERED: f64 = 0.01;

/// Prints the median self time of each span name inside the workload's
/// traced ops, and the share of each op's wall time that no layer span
/// covers: the root span's own self time over its duration. Fails when
/// the median share is above [`MAX_UNCOVERED`], i.e. when the layer spans
/// do not account for the op.
fn report_self_times(ctx: &Ctx) -> Result<(), String> {
    let spans = ctx.tracer.spans();
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("op."))
        .collect();
    let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut uncovered = Vec::new();
    for root in &roots {
        for s in subtree(root, &spans) {
            by_name
                .entry(s.name)
                .or_default()
                .push(self_time(s, &spans) as f64 / 1e6);
        }
        uncovered.push(self_time(root, &spans) as f64 / root.duration().max(1) as f64);
    }
    for (name, v) in &by_name {
        println!(
            "# self {name}: median {:.3} ms over {} spans",
            median(v).unwrap_or(0.0),
            v.len()
        );
    }
    let Some(mid) = median(&uncovered) else {
        return Err("no traced op".into());
    };
    let max = uncovered.iter().cloned().fold(0.0, f64::max);
    println!(
        "# uncovered by layer spans: median {mid:.6}, max {max:.6} of the wall time of {} traced ops",
        uncovered.len()
    );
    if mid > MAX_UNCOVERED {
        return Err(format!(
            "layer spans leave {mid:.4} of a traced op's wall time uncovered (limit {MAX_UNCOVERED})"
        ));
    }
    Ok(())
}

fn write_spans(ctx: &Ctx, root: &Path, args: &Args) {
    let dir = root.join(".bench_out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            ctx.tracer.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}

/// MiB/s of re-reading a 16 MiB scratch file from the page cache.
fn read_canary(ctx: &Ctx) -> f64 {
    let path = ctx.work.join("canary.bin");
    if std::fs::write(&path, vec![0x5au8; 16 << 20]).is_err() {
        return 0.0;
    }
    host::read_canary_mib_per_s(&[path])
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// a non-finite value (a failed op ranked past every other) is clamped.
fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { f64::MAX };
    format!("{v:?}")
}
