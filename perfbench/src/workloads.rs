//! The workloads: how each sets up from its seed, what one op is, and
//! how its output is checked. `serve-mixed` lives in [`crate::serve`].
//! The live-follow op is timed by the per-layer ledger ([`follow`]).

use crate::host::SpeedProbe;
use crate::inputs::{self, archive};
use crate::oracle::{check_wave, ensure};
use crate::spans::Tracer;
use crate::{ms_since, Ctx, Inject, Measured, Sample};
use perfvar_analysis::diagnose::{diagnose_meta, DiagnoseConfig};
use perfvar_analysis::live::LiveAnalysis;
use perfvar_analysis::outofcore::{analyze_path_with, RecoveryMode};
use perfvar_analysis::report::{Analysis, AnalysisConfig};
use perfvar_trace::format::live::LiveArchiveWriter;
use perfvar_trace::{ProcessId, Trace};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 3] = ["analyze-2m", "serve-mixed", "diagnose-exact"];

/// Set-ups per run of analyze-2m; `setup_s` is their median. Each takes
/// about half a second.
pub const ANALYZE_SETUPS: usize = 15;
/// Set-ups per run of diagnose-exact. Each takes about 3 s, most of it
/// the reference diagnosis.
pub const DIAGNOSE_SETUPS: usize = 5;

/// Flush rounds of one live-follow op.
pub const LIVE_ROUNDS: usize = 20;

/// Ranks and iterations of each workload's input.
pub const ANALYZE_INPUT: (usize, usize) = (400, 500);
/// Input of diagnose-exact: below the 512-rank exact-clustering threshold.
pub const DIAGNOSE_INPUT: (usize, usize) = (480, 200);
/// Input of the live-follow op.
pub const LIVE_INPUT: (usize, usize) = (400, 250);

/// The analysis config of an op at `threads`.
pub fn config(threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads,
        ..AnalysisConfig::default()
    }
}

/// One set-up: builds a workload's state into the directory it is given.
type SetUpFn<'a, S> = Box<dyn FnMut(&Path) -> Result<S, String> + 'a>;

/// The set-ups of one run, each into a fresh directory and timed on its
/// own; `setup_s` is the median of their times. Their directories stay
/// until the run ends, so no deletion is trimmed while a set-up writes.
pub struct SetUps<'a, S> {
    ctx: &'a Ctx,
    f: SetUpFn<'a, S>,
    /// Wall time of each set-up so far, s.
    pub times: Vec<f64>,
}

impl<'a, S> SetUps<'a, S> {
    /// Set-ups that run `f` on a fresh directory.
    pub fn new(ctx: &'a Ctx, f: impl FnMut(&Path) -> Result<S, String> + 'a) -> Self {
        SetUps {
            ctx,
            f: Box::new(f),
            times: Vec::new(),
        }
    }

    /// Runs and times one set-up. Pending writes are committed before the
    /// clock starts and after it stops, so no other writes land in a
    /// set-up's time and none of its own land in an op's.
    pub fn run(&mut self) -> Result<S, String> {
        let dir = self.ctx.dir(&format!("setup-{}", self.times.len()))?;
        crate::host::sync_filesystems();
        let t = Instant::now();
        let state = (self.f)(&dir)?;
        self.times.push(t.elapsed().as_secs_f64());
        crate::host::sync_filesystems();
        Ok(state)
    }
}

/// Op wall time per [`SpeedProbe`] round: after each op, one round per
/// this much of the op's time, at least one. At about 20 ms a round, the
/// probe takes a sixth of the phase and samples the host at every op.
pub const PROBE_EVERY_MS: f64 = 100.0;

/// Runs one untimed warm-up op, then ops until the measured phase is
/// over, each followed by [`SpeedProbe`] rounds (their time counts against
/// `budget`). In a traced run every second op is traced, so traced and
/// untraced ops interleave and the tracing overhead can be read off
/// their medians. Returns the ops' samples and the probe's round times.
///
/// `extra` set-ups run between ops at evenly spaced moments of the phase,
/// so that `setup_s` samples the host over the whole run rather than its
/// first seconds (file creation on a virtual disk drifts several-fold
/// within a minute). Their time does not count against `budget`.
pub fn op_loop<S>(
    ctx: &Ctx,
    budget: Duration,
    setups: &mut SetUps<'_, S>,
    extra: usize,
    mut op: impl FnMut(usize, &Tracer) -> Vec<Sample>,
) -> Result<(Vec<Sample>, Vec<f64>), String> {
    let off = Tracer::new(false);
    let probe = SpeedProbe::new();
    let mut probe_ms = Vec::new();
    op(0, &off);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut done = 0;
    let mut samples = Vec::new();
    let mut i = 1;
    loop {
        let elapsed = start.elapsed() - paused;
        if elapsed >= budget {
            break;
        }
        if done < extra && elapsed >= budget * (done as u32 + 1) / (extra as u32 + 1) {
            let t = Instant::now();
            setups.run()?;
            paused += t.elapsed();
            done += 1;
            continue;
        }
        let traced = ctx.tracer.enabled() && i % 2 == 0;
        let ops = op(i, if traced { &ctx.tracer } else { &off });
        let op_ms: f64 = ops.iter().map(|s| s.ms).sum();
        samples.extend(ops);
        for _ in 0..(op_ms / PROBE_EVERY_MS).ceil().max(1.0) as usize {
            probe_ms.push(probe.round_ms());
        }
        i += 1;
    }
    for _ in done..extra {
        setups.run()?;
    }
    Ok((samples, probe_ms))
}

/// Length of the op phase: the whole run, or half of it in a traced run,
/// whose other half goes to the per-layer ledger.
pub fn op_budget(ctx: &Ctx) -> Duration {
    if ctx.tracer.enabled() {
        ctx.seconds / 2
    } else {
        ctx.seconds
    }
}

fn analyze(path: &Path, threads: usize) -> Result<perfvar_analysis::OutOfCoreAnalysis, String> {
    analyze_path_with(path, &config(threads), RecoveryMode::Strict).map_err(|e| e.to_string())
}

/// The 1-thread reference analysis the checks compare against.
pub fn reference(path: &Path) -> Result<perfvar_analysis::OutOfCoreAnalysis, String> {
    analyze(path, 1)
}

/// `analyze-2m`: what `perfvar analyze` does after process start —
/// `analyze_path` at `nproc` threads, then the text report. Each op's
/// result must equal a 1-thread reference computed in set-up.
pub fn analyze_2m(ctx: &Ctx) -> Result<(Vec<f64>, Measured), String> {
    let seed = ctx.seed;
    let mut setups = SetUps::new(ctx, |dir| {
        let t = inputs::cosmo(ANALYZE_INPUT.0, ANALYZE_INPUT.1, seed)?;
        let path = archive(&t, dir, "cosmo-400")?;
        drop(t);
        let reference = reference(&path)?;
        Ok((path, reference))
    });
    let (path, reference) = setups.run()?;
    let events = reference.meta.num_events;
    let reference = reference.analysis;
    let (samples, probe_ms) = op_loop(
        ctx,
        op_budget(ctx),
        &mut setups,
        ANALYZE_SETUPS - 1,
        |i, tr| {
            let op = i as u64;
            let root = tr.open("op.analyze", None, op);
            let t = Instant::now();
            let out = tr
                .call("analysis.outofcore.analyze_path", root.id(), op, || {
                    analyze(&path, ctx.nproc)
                })
                .and_then(|r| {
                    tr.call("analysis.report.render_text_meta", root.id(), op, || {
                        Ok::<_, String>(r.analysis.render_text_meta(&r.meta))
                    })
                    .map(|text| (r, text))
                });
            let ms = ms_since(t);
            tr.close(root, out.is_err());
            let ok = ctx.tally.record(out.and_then(|(r, text)| {
                ensure(r.analysis == reference, || {
                    "analysis differs from the 1-thread reference".into()
                })?;
                let name = &r.meta.registry.function(r.analysis.function).name;
                ensure(name == "cosmo_specs_step", || {
                    format!("dominant function {name}")
                })?;
                ensure(text.contains(name.as_str()), || {
                    "report does not name the dominant function".into()
                })
            }));
            vec![Sample {
                ms,
                ok,
                traced: tr.enabled(),
                kind: 0,
            }]
        },
    )?;
    Ok((
        setups.times,
        Measured {
            latencies: samples,
            probe_ms,
            notes: vec![format!("events per op {events}")],
        },
    ))
}

/// `diagnose-exact`: what `perfvar diagnose --json` does — analysis,
/// exact-threshold diagnosis and JSON encoding. Each op's bytes must equal
/// those of a 1-thread reference computed in set-up.
pub fn diagnose_exact(ctx: &Ctx) -> Result<(Vec<f64>, Measured), String> {
    let seed = ctx.seed;
    let mut setups = SetUps::new(ctx, |dir| {
        let t = inputs::wave(DIAGNOSE_INPUT.0, DIAGNOSE_INPUT.1, seed)?;
        let path = archive(&t, dir, "wave-480")?;
        drop(t);
        let r = reference(&path)?;
        let d = diagnose_meta(&r.meta, &r.analysis, &DiagnoseConfig::default());
        let json = serde_json::to_string_pretty(&d).map_err(|e| e.to_string())?;
        Ok((path, json))
    });
    let (path, expected) = setups.run()?;
    let (origin, start) = (DIAGNOSE_INPUT.0 / 4, DIAGNOSE_INPUT.1 / 4);
    let (samples, probe_ms) = op_loop(
        ctx,
        op_budget(ctx),
        &mut setups,
        DIAGNOSE_SETUPS - 1,
        |i, tr| {
            let op = i as u64;
            let root = tr.open("op.diagnose", None, op);
            let t = Instant::now();
            let out = tr
                .call("analysis.outofcore.analyze_path", root.id(), op, || {
                    analyze(&path, ctx.nproc)
                })
                .and_then(|r| {
                    let d = tr.call("analysis.diagnose.diagnose_meta", root.id(), op, || {
                        Ok::<_, String>(diagnose_meta(
                            &r.meta,
                            &r.analysis,
                            &DiagnoseConfig::default(),
                        ))
                    })?;
                    let json = tr.call("serde_json.to_string_pretty", root.id(), op, || {
                        serde_json::to_string_pretty(&d).map_err(|e| e.to_string())
                    })?;
                    Ok((d, json))
                });
            let ms = ms_since(t);
            tr.close(root, out.is_err());
            let ok = ctx.tally.record(out.and_then(|(mut d, json)| {
                if ctx.inject == Some(Inject::WrongOrigin) && i == 1 {
                    if let Some(w) = d.wave.as_mut() {
                        w.origin = ProcessId::from_index(w.origin.index() + 1);
                    }
                }
                check_wave(&d, origin, start)?;
                ensure(json == expected, || {
                    "diagnosis bytes differ from the 1-thread reference".into()
                })
            }));
            vec![Sample {
                ms,
                ok,
                traced: tr.enabled(),
                kind: 0,
            }]
        },
    )?;
    Ok((
        setups.times,
        Measured {
            latencies: samples,
            probe_ms,
            notes: Vec::new(),
        },
    ))
}

/// The held-in-memory input of live-follow and its reference.
pub struct LiveInput {
    /// The trace the writer replays.
    pub trace: Trace,
    /// `analyze_path` of the same trace written in one go.
    pub reference: Analysis,
}

/// Per-call timings of one live-follow op.
#[derive(Default)]
pub struct Follow {
    /// Wall time of the whole op, ms.
    pub op_ms: f64,
    /// Sum of `append` calls, ms.
    pub append_ms: f64,
    /// Each `flush`, ms.
    pub flush_ms: Vec<f64>,
    /// Each poll after a flush, ms: flush returned → poll returned.
    pub poll_ms: Vec<f64>,
    /// `finalize`, ms.
    pub finalize_ms: f64,
}

/// One live-follow op: write `input` into a fresh live archive in
/// [`LIVE_ROUNDS`] equal flush rounds, polling a [`LiveAnalysis`] after
/// each, then seal, finalize and check against the reference.
///
/// Creating the archive's files comes before the op's clock starts: it
/// happens once per application run, and its cost is the filesystem's
/// inode allocation, which on a virtual disk varies several-fold from
/// one run to the next.
pub fn follow(
    input: &LiveInput,
    dir: &Path,
    threads: usize,
    tr: &Tracer,
    op: u64,
) -> (Follow, Result<(), String>) {
    let mut f = Follow::default();
    let trace = &input.trace;
    let opened = tr
        .call("trace.live.create", None, op, || {
            LiveArchiveWriter::create(dir, &trace.name, trace.clock(), trace.registry())
                .map_err(|e| e.to_string())
        })
        .and_then(|w| {
            tr.call("analysis.live.open", None, op, || {
                LiveAnalysis::open(dir, config(threads)).map_err(|e| e.to_string())
            })
            .map(|live| (w, live))
        });
    let (w, live) = match opened {
        Ok(pair) => pair,
        Err(e) => return (f, Err(e)),
    };
    let root = tr.open("op.live_follow", None, op);
    let t_op = Instant::now();
    let out = follow_rounds(input, w, live, tr, root.id(), op, &mut f);
    f.op_ms = ms_since(t_op);
    tr.close(root, out.is_err());
    (f, out)
}

fn follow_rounds(
    input: &LiveInput,
    mut w: LiveArchiveWriter,
    mut live: LiveAnalysis,
    tr: &Tracer,
    parent: Option<u32>,
    op: u64,
    f: &mut Follow,
) -> Result<(), String> {
    let trace = &input.trace;
    let streams = trace.streams();
    for round in 0..LIVE_ROUNDS {
        let t = Instant::now();
        tr.call("trace.live.append", parent, op, || {
            for s in streams {
                let records = s.records();
                let lo = records.len() * round / LIVE_ROUNDS;
                let hi = records.len() * (round + 1) / LIVE_ROUNDS;
                for r in &records[lo..hi] {
                    w.append(s.process, r).map_err(|e| e.to_string())?;
                }
            }
            Ok::<_, String>(())
        })?;
        f.append_ms += ms_since(t);
        let t = Instant::now();
        tr.call("trace.live.flush", parent, op, || {
            w.flush().map_err(|e| e.to_string())
        })?;
        f.flush_ms.push(ms_since(t));
        let t = Instant::now();
        let delta = tr.call("analysis.live.poll", parent, op, || {
            let d = live.poll();
            match d.error {
                Some(e) => Err(e.to_string()),
                None => Ok(d),
            }
        })?;
        f.poll_ms.push(ms_since(t));
        ensure(!delta.finished, || {
            "run finished before it was sealed".into()
        })?;
    }
    tr.call("trace.live.finish", parent, op, || {
        w.finish().map_err(|e| e.to_string())
    })?;
    let mut polls = 0;
    while !live.finished() {
        polls += 1;
        ensure(polls <= 3, || "sealed run not seen as finished".into())?;
        tr.call("analysis.live.poll", parent, op, || {
            match live.poll().error {
                Some(e) => Err(e.to_string()),
                None => Ok(()),
            }
        })?;
    }
    let t = Instant::now();
    let result = tr.call("analysis.live.finalize", parent, op, || {
        live.finalize().map_err(|e| e.to_string())
    })?;
    f.finalize_ms = ms_since(t);
    ensure(result.analysis == input.reference, || {
        "finalized live analysis differs from analyze_path of the trace written in one go".into()
    })
}

/// Builds the live-follow input from `seed` into `dir`: the trace in
/// memory, written once as a plain archive for the reference.
pub fn live_input(seed: u64, dir: &Path) -> Result<(Trace, PathBuf), String> {
    let trace = inputs::cosmo(LIVE_INPUT.0, LIVE_INPUT.1, seed)?;
    let path = archive(&trace, dir, "cosmo-400-live")?;
    Ok((trace, path))
}
