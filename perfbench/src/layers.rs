//! The per-layer ledger of a traced run: each layer's public call timed
//! on its own, in interleaved rounds, on the workloads' inputs.
//!
//! Every traced run measures every layer, whichever workload it belongs
//! to, so every traced run reports the same metrics.

use crate::inputs::{self, archive, stream_files};
use crate::oracle::{check_wave, ensure};
use crate::serve::{self, Daemon, Route};
use crate::spans::Tracer;
use crate::stats::{median, Better};
use crate::workloads::DIAGNOSE_INPUT;
use crate::workloads::{config, follow, live_input, reference, LiveInput, ANALYZE_INPUT};
use crate::{ms_since, Ctx, Metric};
use perfvar_analysis::diagnose::{diagnose_meta, DiagnoseConfig};
use perfvar_analysis::outofcore::{analyze_path_observed, analyze_path_with, RecoveryMode};
use perfvar_analysis::part::{archive_part, AnalysisPart, PartOutcome};
use perfvar_analysis::stream::{ReplayMachine, ReplayVisitor};
use perfvar_analysis::telemetry::Telemetry;
use perfvar_server::CachedResult;
use perfvar_trace::format::cursor::ArchiveCursor;
use perfvar_trace::ProcessId;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Interleaved rounds: every probe runs once per round.
pub const ROUNDS: usize = 3;
/// Length of the loaded phase `server.wait_ms` is read from.
pub const WAIT_PHASE: Duration = Duration::from_secs(3);

/// Every per-layer metric: name, unit, direction. The layer is the name
/// up to its last dot.
pub const METRICS: [(&str, &str, Better); 29] = [
    ("trace.read.mib_per_s", "MiB/s", Better::Higher),
    ("trace.cursor.mev_per_s", "Mev/s", Better::Higher),
    ("trace.cursor.mib_per_s", "MiB/s", Better::Higher),
    ("analysis.stream.self_ms", "ms", Better::Lower),
    ("analysis.outofcore.mev_per_s_t1", "Mev/s", Better::Higher),
    ("analysis.outofcore.mev_per_s_tn", "Mev/s", Better::Higher),
    ("analysis.outofcore.scaling", "x", Better::Higher),
    (
        "analysis.outofcore.replays_per_event",
        "ratio",
        Better::Lower,
    ),
    ("analysis.report.render_ms", "ms", Better::Lower),
    ("analysis.part.merge_ms", "ms", Better::Lower),
    ("analysis.part.finalize_ms", "ms", Better::Lower),
    ("analysis.diagnose.exact_s", "s", Better::Lower),
    ("analysis.diagnose.sketch_ms", "ms", Better::Lower),
    ("serde_json.to_value_ms", "ms", Better::Lower),
    ("serde_json.pretty_ms", "ms", Better::Lower),
    ("serde_json.encode_mib_per_s", "MiB/s", Better::Higher),
    ("serde_json.parse_ms", "ms", Better::Lower),
    ("server.cache.render_ms", "ms", Better::Lower),
    ("server.route.warm_analyze_ms", "ms", Better::Lower),
    ("server.route.warm_diagnose_ms", "ms", Better::Lower),
    ("server.route.warm_compare_ms", "ms", Better::Lower),
    ("server.route.cold_analyze_ms", "ms", Better::Lower),
    ("server.wait_ms", "ms", Better::Lower),
    ("server.replays_per_cold_event", "ratio", Better::Lower),
    ("trace.live.append_mev_per_s", "Mev/s", Better::Higher),
    ("trace.live.flush_ms", "ms", Better::Lower),
    ("analysis.live.poll_ms", "ms", Better::Lower),
    ("analysis.live.finalize_ms", "ms", Better::Lower),
    ("tracing.overhead", "fraction", Better::Lower),
];

/// The layer a metric belongs to.
pub fn layer_of(metric: &str) -> &str {
    metric.rsplit_once('.').map_or(metric, |(layer, _)| layer)
}

/// Samples per metric and calls/failures per layer.
#[derive(Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    calls: BTreeMap<String, (u64, u64)>,
}

impl Ledger {
    /// Adds one sample of `metric`.
    pub fn add(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Counts one call into the layer of `metric` and whether it failed.
    fn count(&mut self, ctx: &Ctx, metric: &str, outcome: Result<(), String>) -> bool {
        let entry = self.calls.entry(layer_of(metric).to_string()).or_default();
        entry.0 += 1;
        let ok = ctx
            .tally
            .record(outcome.map_err(|e| format!("{metric}: {e}")));
        entry.1 += u64::from(!ok);
        ok
    }

    /// The metrics, in [`METRICS`] order, of those that have samples.
    pub fn metrics(&self) -> Vec<Metric> {
        METRICS
            .iter()
            .filter_map(|&(name, unit, better)| {
                Metric::median_of(name, unit, better, self.samples.get(name)?)
            })
            .collect()
    }

    /// `(layer, calls, failed)` of every layer called.
    pub fn calls(&self) -> Vec<(String, u64, u64)> {
        self.calls
            .iter()
            .map(|(l, &(c, f))| (l.clone(), c, f))
            .collect()
    }
}

/// Times `f` inside a span named `name`.
fn timed<T>(tr: &Tracer, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let open = tr.open(name, None, op);
    let t = Instant::now();
    let out = f();
    let ms = ms_since(t);
    tr.close(open, false);
    (out, ms)
}

struct Noop;
impl ReplayVisitor for Noop {}

/// Decodes every rank of `path` on one thread, optionally replaying each
/// record through a no-op visitor; returns the events seen.
fn decode(path: &Path, replay: bool) -> Result<u64, String> {
    let cursor = ArchiveCursor::open(path).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut events = 0u64;
    let mut noop = Noop;
    for pid in 0..cursor.num_processes() {
        let mut s = cursor
            .stream(ProcessId::from_index(pid))
            .map_err(|e| e.to_string())?;
        let mut machine = ReplayMachine::new(cursor.registry());
        loop {
            let n = s.next_chunk(&mut buf, 4096).map_err(|e| e.to_string())?;
            if n == 0 {
                break;
            }
            events += n as u64;
            if replay {
                for r in &buf {
                    machine.step(r, &mut noop);
                }
            }
        }
        if replay {
            machine.finish(&mut noop);
        }
    }
    Ok(events)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Builds every layer's input from the run's seed and measures each
/// layer [`ROUNDS`] times, interleaved. Failed calls count in `ctx.tally`
/// and per layer.
pub fn sweep(ctx: &Ctx) -> Result<Ledger, String> {
    let tr = &ctx.tracer;
    let dir = ctx.dir("layers")?;
    let seed = ctx.seed;
    let a = archive(
        &inputs::cosmo(ANALYZE_INPUT.0, ANALYZE_INPUT.1, seed)?,
        &dir,
        "cosmo-400",
    )?;
    let d = archive(
        &inputs::wave(DIAGNOSE_INPUT.0, DIAGNOSE_INPUT.1, seed)?,
        &dir,
        "wave-480",
    )?;
    let live_dir = ctx.dir("layers-live")?;
    let (trace, live_path) = live_input(seed, &live_dir)?;
    let live = LiveInput {
        reference: reference(&live_path)?.analysis,
        trace,
    };
    let live_events = live.trace.num_events() as f64;
    let serve_dir = ctx.dir("layers-serve")?;
    let daemon = Daemon::start(seed, &serve_dir, ctx.nproc)?;
    daemon.validate(ctx.nproc)?;

    let analyze = |path: &Path, threads| {
        analyze_path_with(path, &config(threads), RecoveryMode::Strict).map_err(|e| e.to_string())
    };
    let a_result = analyze(&a, ctx.nproc)?;
    let a_events = a_result.meta.num_events;
    let a_files = stream_files(&a);
    let a_stream_bytes: u64 = a_files
        .iter()
        .filter_map(|f| std::fs::metadata(f).ok())
        .map(|m| m.len())
        .sum();
    let d_result = analyze(&d, ctx.nproc)?;
    let w_result = analyze(&daemon.archives[2], ctx.nproc)?;
    let s_result = analyze(&daemon.archives[0], ctx.nproc)?;
    let s_body = CachedResult::render(&s_result)?.body;
    let mev = |events: f64, ms: f64| events / ms / 1e3;

    let mut plan = serve::plan(seed, serve::PLAN_BLOCKS);
    let mut led = Ledger::default();
    let no_flip = AtomicBool::new(false);
    let mut idle: [Vec<f64>; 4] = Default::default();
    for round in 0..ROUNDS {
        let op = round as u64;

        for _ in 0..3 {
            let (bytes, ms) = timed(tr, "trace.read.fs_read", op, || {
                a_files
                    .iter()
                    .map(|f| std::fs::read(f).map(|b| b.len()))
                    .sum::<std::io::Result<usize>>()
            });
            let bytes = bytes.map_err(|e| e.to_string());
            if let Some(bytes) = led_ok(&mut led, ctx, "trace.read.mib_per_s", bytes) {
                led.add("trace.read.mib_per_s", bytes as f64 / MIB / (ms / 1e3));
            }
        }

        let (events, decode_ms) = timed(tr, "trace.cursor.next_chunk", op, || decode(&a, false));
        let ok = led.count(
            ctx,
            "trace.cursor.mev_per_s",
            events.and_then(|n| {
                ensure(n == a_events, || {
                    format!("decoded {n} of {a_events} events")
                })
            }),
        );
        if ok {
            led.add("trace.cursor.mev_per_s", mev(a_events as f64, decode_ms));
            led.add(
                "trace.cursor.mib_per_s",
                a_stream_bytes as f64 / MIB / (decode_ms / 1e3),
            );
        }
        let (events, replay_ms) = timed(tr, "analysis.stream.step", op, || decode(&a, true));
        if led.count(
            ctx,
            "analysis.stream.self_ms",
            events.and_then(|n| {
                ensure(n == a_events, || {
                    format!("replayed {n} of {a_events} events")
                })
            }),
        ) && ok
        {
            led.add("analysis.stream.self_ms", replay_ms - decode_ms);
        }

        let telemetry = Telemetry::enabled();
        let (r1, t1) = timed(tr, "analysis.outofcore.analyze_path_t1", op, || {
            analyze_path_observed(&a, &config(1), RecoveryMode::Strict, &telemetry)
                .map_err(|e| e.to_string())
        });
        let ok1 = led.count(
            ctx,
            "analysis.outofcore.mev_per_s_t1",
            r1.and_then(|r| {
                ensure(r.analysis == a_result.analysis, || {
                    "1-thread result differs".into()
                })
            }),
        );
        if ok1 {
            led.add("analysis.outofcore.mev_per_s_t1", mev(a_events as f64, t1));
            if let Some(stats) = telemetry.snapshot() {
                led.add(
                    "analysis.outofcore.replays_per_event",
                    stats.totals.events_replayed as f64 / a_events as f64,
                );
            }
        }
        let (rn, tn) = timed(tr, "analysis.outofcore.analyze_path_tn", op, || {
            analyze(&a, ctx.nproc)
        });
        if led.count(
            ctx,
            "analysis.outofcore.mev_per_s_tn",
            rn.and_then(|r| {
                ensure(r.analysis == a_result.analysis, || {
                    "n-thread result differs".into()
                })
            }),
        ) {
            led.add("analysis.outofcore.mev_per_s_tn", mev(a_events as f64, tn));
            if ok1 {
                led.add("analysis.outofcore.scaling", t1 / tn);
            }
        }

        for _ in 0..3 {
            let (text, ms) = timed(tr, "analysis.report.render_text_meta", op, || {
                a_result.analysis.render_text_meta(&a_result.meta)
            });
            if led.count(
                ctx,
                "analysis.report.render_ms",
                ensure(!text.is_empty(), || "empty report".into()),
            ) {
                led.add("analysis.report.render_ms", ms);
            }
        }

        let shards = ctx.nproc.max(2);
        let np = a_result.meta.num_processes();
        let parts: Result<Vec<AnalysisPart>, String> = (0..shards)
            .map(|s| {
                archive_part(
                    &a,
                    &config(1),
                    RecoveryMode::Strict,
                    np * s / shards..np * (s + 1) / shards,
                )
                .map_err(|e| e.to_string())
            })
            .collect();
        if let Some(parts) = led_ok(&mut led, ctx, "analysis.part.merge_ms", parts) {
            let (merged, merge_ms) = timed(tr, "analysis.part.merge", op, || {
                parts
                    .into_iter()
                    .fold(AnalysisPart::empty(), AnalysisPart::merge)
            });
            led.add("analysis.part.merge_ms", merge_ms);
            let meta = &a_result.meta;
            let (outcome, fin_ms) = timed(tr, "analysis.part.finalize", op, || {
                merged.finalize(&meta.name, meta.clock, &meta.registry, &config(1))
            });
            let checked = match outcome {
                Ok(PartOutcome::Done(r)) => ensure(r.analysis == a_result.analysis, || {
                    "merged shards differ from analyze_path".into()
                }),
                Ok(PartOutcome::Mispredicted { .. }) => {
                    Err("shard speculation mispredicted".into())
                }
                Err(e) => Err(e.to_string()),
            };
            if led.count(ctx, "analysis.part.finalize_ms", checked) {
                led.add("analysis.part.finalize_ms", fin_ms);
            }
        }

        let (diag, ms) = timed(tr, "analysis.diagnose.exact", op, || {
            diagnose_meta(
                &d_result.meta,
                &d_result.analysis,
                &DiagnoseConfig::default(),
            )
        });
        if led.count(
            ctx,
            "analysis.diagnose.exact_s",
            check_wave(&diag, DIAGNOSE_INPUT.0 / 4, DIAGNOSE_INPUT.1 / 4),
        ) {
            led.add("analysis.diagnose.exact_s", ms / 1e3);
        }
        let (diag, ms) = timed(tr, "analysis.diagnose.sketch", op, || {
            diagnose_meta(
                &w_result.meta,
                &w_result.analysis,
                &DiagnoseConfig::default(),
            )
        });
        if led.count(
            ctx,
            "analysis.diagnose.sketch_ms",
            check_wave(&diag, serve::WAVE_INPUT.0 / 4, serve::WAVE_INPUT.1 / 4),
        ) {
            led.add("analysis.diagnose.sketch_ms", ms);
        }

        let (value, value_ms) = timed(tr, "serde_json.to_value", op, || {
            serde_json::to_value(&a_result.analysis)
        });
        let (text, pretty_ms) = timed(tr, "serde_json.to_string_pretty", op, || {
            serde_json::to_string_pretty(&value).map_err(|e| e.to_string())
        });
        if let Some(text) = led_ok(&mut led, ctx, "serde_json.pretty_ms", text) {
            led.add("serde_json.to_value_ms", value_ms);
            led.add("serde_json.pretty_ms", pretty_ms);
            led.add(
                "serde_json.encode_mib_per_s",
                text.len() as f64 / MIB / ((value_ms + pretty_ms) / 1e3),
            );
        }
        drop(value);
        let (parsed, ms) = timed(tr, "serde_json.from_str", op, || {
            serde_json::from_str::<serde_json::Value>(&s_body).map_err(|e| e.to_string())
        });
        let checked = parsed.and_then(|v| {
            // Comparing the whole tree once is enough to trust the parser.
            ensure(
                round > 0 || v == serde_json::to_value(&s_result.analysis),
                || "parsed body differs from the analysis".into(),
            )
        });
        if led.count(ctx, "serde_json.parse_ms", checked) {
            led.add("serde_json.parse_ms", ms);
        }

        let (cached, ms) = timed(tr, "server.cache.render", op, || {
            CachedResult::render(&s_result)
        });
        if led.count(
            ctx,
            "server.cache.render_ms",
            cached.and_then(|c| {
                ensure(c.body == s_body, || {
                    "rendered body differs between calls".into()
                })
            }),
        ) {
            led.add("server.cache.render_ms", ms);
        }

        // Cold probes take their multipliers from the end of the plan, the
        // loaded phase below from its start, so none repeats.
        let cold = plan
            .iter()
            .rposition(|r| matches!(r, Route::Cold(..)))
            .map(|i| plan.remove(i));
        let before = daemon.events_replayed();
        for route in [
            Route::WarmAnalyze(0),
            Route::WarmDiagnose,
            Route::WarmCompare,
        ]
        .into_iter()
        .chain(cold)
        {
            let name = ROUTE_METRICS[route.kind_index()];
            let (reply, out) = serve::request(&daemon, route, tr, op, &no_flip);
            let out = out.and_then(|()| serve::check_cold(&daemon, &reply, ctx.nproc));
            if led.count(ctx, name, out) {
                led.add(name, reply.ms);
                idle[route.kind_index()].push(reply.ms);
            }
            if let (Route::Cold(i, _), Ok(before)) = (route, &before) {
                if let Ok(after) = daemon.events_replayed() {
                    led.add(
                        "server.replays_per_cold_event",
                        (after - before) as f64 / daemon.events[i] as f64,
                    );
                }
            }
        }

        let follow_dir = ctx.dir(&format!("layers-follow-{round}"))?;
        let (f, out) = follow(&live, &follow_dir, ctx.nproc, tr, op);
        if led.count(ctx, "analysis.live.finalize_ms", out) {
            led.add("trace.live.append_mev_per_s", mev(live_events, f.append_ms));
            for ms in f.flush_ms {
                led.add("trace.live.flush_ms", ms);
            }
            for ms in f.poll_ms {
                led.add("analysis.live.poll_ms", ms);
            }
            led.add("analysis.live.finalize_ms", f.finalize_ms);
        }
    }

    // Waiting under load: each request's latency minus the idle median
    // of its route.
    let idle: Vec<f64> = idle.iter().map(|v| median(v).unwrap_or(0.0)).collect();
    let (replies, _) = serve::load(ctx, &daemon, &plan, ctx.nproc, WAIT_PHASE);
    for r in replies.iter().filter(|r| r.ok) {
        led.add("server.wait_ms", r.ms - idle[r.route.kind_index()]);
    }
    Ok(led)
}

/// The idle-route metric of each route kind, in [`serve::KINDS`] order.
const ROUTE_METRICS: [&str; 4] = [
    "server.route.warm_analyze_ms",
    "server.route.warm_diagnose_ms",
    "server.route.warm_compare_ms",
    "server.route.cold_analyze_ms",
];

/// Counts a call that yields a value needed by the rest of the probe.
fn led_ok<T>(led: &mut Ledger, ctx: &Ctx, metric: &str, r: Result<T, String>) -> Option<T> {
    let outcome = r.as_ref().map(|_| ()).map_err(Clone::clone);
    led.count(ctx, metric, outcome).then(|| r.ok()).flatten()
}
