//! `serve-mixed`: an in-process daemon over a seeded corpus, driven by
//! closed-loop clients with a seeded request mix, every reply checked.

use crate::host::SpeedProbe;
use crate::inputs::{self, archive, Rng};
use crate::oracle::{ensure, envelope_digest, json_digest};
use crate::spans::Tracer;
use crate::workloads::{config, op_budget, SetUps};
use crate::{ms_since, Ctx, Inject, Measured, Sample};
use perfvar_analysis::outofcore::{analyze_path_with, RecoveryMode};
use perfvar_server::http::percent_encode;
use perfvar_server::{client, ServeOptions, Server, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The two compared runs: `cosmo-specs --ranks 256 --iterations 250`.
pub const RUN_INPUT: (usize, usize) = (256, 250);
/// The wave: above the 512-rank threshold, so diagnosis takes the sketch.
pub const WAVE_INPUT: (usize, usize) = (1024, 100);
/// Cache capacity of the daemon: the three warm entries plus room for
/// the cold ones in flight, which bounds the daemon's memory.
pub const CACHE_ENTRIES: usize = 8;
/// Set-ups per run; each takes about 3 s.
pub const SERVE_SETUPS: usize = 3;

/// Blocks of the request plan: 1200 requests, more than a run sends,
/// with 180 cold ones, within the 294 distinct cold requests there are.
pub const PLAN_BLOCKS: usize = 60;

/// One kind of request of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `/v1/analyze` of archive `0..3` (a, b, wave), answered from cache.
    WarmAnalyze(usize),
    /// `/v1/diagnose` of the wave, from the cached analysis.
    WarmDiagnose,
    /// `/v1/compare?base=a&cand=b`, both sides cached.
    WarmCompare,
    /// `/v1/analyze` of archive `.0` at a multiplier `.1` that no other
    /// request of the run uses: a cache miss.
    Cold(usize, u64),
}

impl Route {
    /// The route's name in reports.
    pub fn kind(self) -> &'static str {
        KINDS[self.kind_index()]
    }

    /// The route kind and archive, as one index: requests of one class
    /// do the same work.
    pub fn class(self) -> usize {
        match self {
            Route::WarmAnalyze(i) => i,
            Route::WarmDiagnose => 3,
            Route::WarmCompare => 4,
            Route::Cold(i, _) => 5 + i,
        }
    }

    /// Index of the route kind in [`KINDS`].
    pub fn kind_index(self) -> usize {
        match self {
            Route::WarmAnalyze(_) => 0,
            Route::WarmDiagnose => 1,
            Route::WarmCompare => 2,
            Route::Cold(..) => 3,
        }
    }
}

/// Route kinds in report order.
pub const KINDS: [&str; 4] = [
    "warm_analyze",
    "warm_diagnose",
    "warm_compare",
    "cold_analyze",
];

/// The daemon with its corpus registered and its cache primed. Dropping
/// it shuts the daemon down and joins its threads.
pub struct Daemon {
    handle: Option<ServerHandle>,
    /// `host:port` of the daemon.
    pub addr: String,
    /// Archives a, b and the wave.
    pub archives: [PathBuf; 3],
    /// Events of each archive.
    pub events: [u64; 3],
    /// The primed bodies of the warm routes: analyze a, b, wave;
    /// diagnose; compare.
    primed: Vec<(Route, String)>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// The warm routes, in priming order.
pub const WARM: [Route; 5] = [
    Route::WarmAnalyze(0),
    Route::WarmAnalyze(1),
    Route::WarmAnalyze(2),
    Route::WarmDiagnose,
    Route::WarmCompare,
];

impl Daemon {
    /// Simulates the corpus from `seed` into `dir`, binds a daemon with
    /// `workers = shards = nproc` and 1 analysis thread, registers runs
    /// `a` and `b`, and primes every warm route.
    pub fn start(seed: u64, dir: &Path, nproc: usize) -> Result<Daemon, String> {
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("resolving {}: {e}", dir.display()))?;
        let mut archives = Vec::new();
        let mut events = [0u64; 3];
        for (i, name) in ["a", "b", "wave"].into_iter().enumerate() {
            let trace = match i {
                2 => inputs::wave(WAVE_INPUT.0, WAVE_INPUT.1, seed)?,
                _ => inputs::cosmo(RUN_INPUT.0, RUN_INPUT.1, seed + i as u64)?,
            };
            events[i] = trace.num_events() as u64;
            archives.push(archive(&trace, &dir, name)?);
        }
        let options = ServeOptions {
            workers: nproc,
            threads: 1,
            shards: nproc,
            cache_entries: CACHE_ENTRIES,
            ..ServeOptions::default()
        };
        let handle = Server::bind("127.0.0.1:0", options)
            .and_then(Server::spawn)
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let mut daemon = Daemon {
            addr: handle.addr().to_string(),
            handle: Some(handle),
            archives: archives.try_into().expect("three archives"),
            events,
            primed: Vec::new(),
        };
        for (i, label) in ["a", "b"].into_iter().enumerate() {
            let path = percent_encode(&daemon.archives[i].to_string_lossy());
            daemon.get_ok(&format!("/v1/runs/register?path={path}&label={label}"))?;
        }
        for route in WARM {
            let body = daemon.get_ok(&daemon.target(route))?;
            daemon.primed.push((route, body));
        }
        Ok(daemon)
    }

    /// The request target of `route`.
    pub fn target(&self, route: Route) -> String {
        let path = |i: usize| percent_encode(&self.archives[i].to_string_lossy());
        match route {
            Route::WarmAnalyze(i) => format!("/v1/analyze?path={}", path(i)),
            Route::WarmDiagnose => format!("/v1/diagnose?path={}", path(2)),
            Route::WarmCompare => "/v1/compare?base=a&cand=b".to_string(),
            Route::Cold(i, k) => format!("/v1/analyze?path={}&multiplier={k}", path(i)),
        }
    }

    fn get_ok(&self, target: &str) -> Result<String, String> {
        let reply = client::get(&self.addr, target).map_err(|e| format!("GET {target}: {e}"))?;
        ensure(reply.status == 200, || {
            format!("GET {target}: status {}", reply.status)
        })?;
        Ok(reply.body)
    }

    /// The primed body of a warm route.
    pub fn primed(&self, route: Route) -> Option<&str> {
        self.primed
            .iter()
            .find(|(r, _)| *r == route)
            .map(|(_, b)| b.as_str())
    }

    /// Checks the primed bodies once, outside any timed region: each
    /// analysis is the envelope around `analyze_path`'s result, the
    /// diagnosis finds the planted wave, the comparison has a verdict.
    pub fn validate(&self, nproc: usize) -> Result<(), String> {
        for i in 0..3 {
            let body = self.primed(Route::WarmAnalyze(i)).unwrap_or_default();
            let expected = reference_digest(&self.archives[i], 2, nproc)?;
            ensure(json_digest(body.as_bytes()) == expected, || {
                format!("primed analysis of archive {i} differs from analyze_path")
            })?;
        }
        let data = |route| -> Result<serde_json::Value, String> {
            let env = client::parse_envelope(self.primed(route).unwrap_or_default())
                .map_err(|e| format!("primed {}: {e}", route.kind()))?;
            ensure(env.ok, || format!("primed {} is not ok", route.kind()))?;
            Ok(env.data)
        };
        let diagnosis = data(Route::WarmDiagnose)?;
        let wave = diagnosis
            .get("wave")
            .ok_or("primed diagnosis has no wave")?;
        let field = |k: &str| wave.get(k).and_then(|v| v.as_u64());
        ensure(
            field("origin") == Some((WAVE_INPUT.0 / 4) as u64)
                && field("start_ordinal") == Some((WAVE_INPUT.1 / 4) as u64),
            || {
                format!(
                    "primed diagnosis found the wave at {:?}",
                    (field("origin"), field("start_ordinal"))
                )
            },
        )?;
        let compare = data(Route::WarmCompare)?;
        ensure(compare.get("verdict").is_some(), || {
            "primed comparison has no verdict".into()
        })
    }

    /// Cumulative events the daemon's pipeline replayed (`/v1/stats`).
    pub fn events_replayed(&self) -> Result<u64, String> {
        let env = client::parse_envelope(&self.get_ok("/v1/stats")?).map_err(|e| e.to_string())?;
        env.data
            .get("totals")
            .and_then(|t| t.get("events_replayed"))
            .and_then(|v| v.as_u64())
            .ok_or_else(|| "stats have no events_replayed".into())
    }
}

/// Digest of the envelope a `/v1/analyze` of `archive` at multiplier `k`
/// must carry.
pub fn reference_digest(archive: &Path, k: u64, nproc: usize) -> Result<u64, String> {
    let mut config = config(nproc);
    config.dominant_multiplier = k;
    let result =
        analyze_path_with(archive, &config, RecoveryMode::Strict).map_err(|e| e.to_string())?;
    Ok(envelope_digest(serde_json::to_value(&result.analysis)))
}

/// The seeded request mix: blocks of 20 requests — 12 warm analyses (4
/// per archive), 2 diagnoses, 3 comparisons and 3 cold analyses — each
/// block shuffled. The slowest kind, cold analyses, makes up 15%, so the
/// 90th percentile falls inside its cluster of latencies rather than on
/// the edge between two clusters, where it would jump from run to run.
/// Cold requests cycle over the archives with multipliers `3..=100`
/// drawn without repetition per archive, so no cold request of a run
/// repeats another.
pub fn plan(seed: u64, blocks: usize) -> Vec<Route> {
    let mut rng = Rng::new(seed);
    let mut multipliers: Vec<Vec<u64>> = (0..3)
        .map(|_| {
            let mut ks: Vec<u64> = (3..=100).collect();
            rng.shuffle(&mut ks);
            ks
        })
        .collect();
    let mut cold = 0usize;
    let mut out = Vec::with_capacity(blocks * 20);
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(20);
        for i in 0..3 {
            block.extend([Route::WarmAnalyze(i); 4]);
        }
        block.extend([Route::WarmDiagnose; 2]);
        block.extend([Route::WarmCompare; 3]);
        for _ in 0..3 {
            let archive = cold % 3;
            cold += 1;
            match multipliers[archive].pop() {
                Some(k) => block.push(Route::Cold(archive, k)),
                None => block.push(Route::WarmAnalyze(archive)),
            }
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    /// What was asked.
    pub route: Route,
    /// Latency, ms: request sent → whole reply read.
    pub ms: f64,
    /// Whether the reply passed its check (for a cold reply: so far).
    pub ok: bool,
    /// Whether spans were recorded around it.
    pub traced: bool,
    /// Whitespace-insensitive digest of a cold reply's body, checked
    /// against a reference after the load phase.
    pub digest: u64,
}

/// Sends `route` once and checks the reply; a cold reply's digest is
/// checked later by [`check_cold`].
pub fn request(
    d: &Daemon,
    route: Route,
    tr: &Tracer,
    op: u64,
    flip: &AtomicBool,
) -> (Reply, Result<(), String>) {
    let root = tr.open("op.request", None, op);
    let t = Instant::now();
    let reply = tr.call("server.client.get", root.id(), op, || {
        client::get(&d.addr, &d.target(route))
    });
    let ms = ms_since(t);
    tr.close(root, reply.is_err());
    let mut digest = 0;
    let out = reply.map_err(|e| e.to_string()).and_then(|reply| {
        ensure(reply.status == 200, || {
            format!("{}: status {}", route.kind(), reply.status)
        })?;
        let mut body = reply.body.into_bytes();
        if let Route::Cold(..) = route {
            digest = json_digest(&body);
            return Ok(());
        }
        if flip.swap(false, Ordering::Relaxed) {
            let mid = body.len() / 2;
            body[mid] ^= 0x01;
        }
        ensure(
            d.primed(route).map(str::as_bytes) == Some(&body[..]),
            || format!("{}: body differs from the primed body", route.kind()),
        )
    });
    let reply = Reply {
        route,
        ms,
        ok: out.is_ok(),
        traced: tr.enabled(),
        digest,
    };
    (reply, out)
}

/// Checks a cold reply against `analyze_path` at its multiplier.
pub fn check_cold(d: &Daemon, reply: &Reply, nproc: usize) -> Result<(), String> {
    let Route::Cold(i, k) = reply.route else {
        return Ok(());
    };
    let expected = reference_digest(&d.archives[i], k, nproc)?;
    ensure(reply.digest == expected, || {
        format!("cold analysis of archive {i} at multiplier {k} differs from analyze_path")
    })
}

/// Closed-loop load: `clients` threads each send the next request of
/// `plan` as soon as their previous reply is in, until `budget` has
/// passed. Returns every reply and the wall time of the phase. Cold
/// replies are checked after the phase; every reply is counted in
/// `ctx.tally` exactly once.
pub fn load(
    ctx: &Ctx,
    d: &Daemon,
    plan: &[Route],
    clients: usize,
    budget: Duration,
) -> (Vec<Reply>, f64) {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::new());
    let flip = AtomicBool::new(ctx.inject == Some(Inject::FlipBody));
    let off = Tracer::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut sent = 0usize;
                while start.elapsed() < budget {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&route) = plan.get(i) else { break };
                    let traced = ctx.tracer.enabled() && sent % 2 == 1;
                    let tr = if traced { &ctx.tracer } else { &off };
                    let (reply, out) = request(d, route, tr, i as u64, &flip);
                    if !matches!(route, Route::Cold(..)) || out.is_err() {
                        ctx.tally.record(out);
                    }
                    replies
                        .lock()
                        .expect("no client panics holding the replies")
                        .push(reply);
                    sent += 1;
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut replies = replies.into_inner().expect("clients joined");
    for reply in replies.iter_mut() {
        if matches!(reply.route, Route::Cold(..)) && reply.ok {
            reply.ok = ctx.tally.record(check_cold(d, reply, ctx.nproc));
        }
    }
    (replies, wall)
}

/// [`SpeedProbe`] rounds just before and just after the load phase.
const SERVE_PROBE_ROUNDS: usize = 25;

/// The `serve-mixed` workload.
pub fn serve_mixed(ctx: &Ctx) -> Result<(Vec<f64>, Measured), String> {
    // Each daemon goes before the next set-up is timed.
    let mut setups = SetUps::new(ctx, |dir| Daemon::start(ctx.seed, dir, ctx.nproc));
    let mut daemon = setups.run()?;
    for _ in 1..SERVE_SETUPS {
        drop(daemon);
        daemon = setups.run()?;
    }
    daemon.validate(ctx.nproc)?;
    let plan = plan(ctx.seed, PLAN_BLOCKS);
    // The clients keep every vCPU busy, so the speed probe runs beside
    // the load phase rather than among its requests.
    let probe = SpeedProbe::new();
    let mut probe_ms: Vec<f64> = (0..SERVE_PROBE_ROUNDS).map(|_| probe.round_ms()).collect();
    let (replies, wall) = load(ctx, &daemon, &plan, ctx.nproc, op_budget(ctx));
    probe_ms.extend((0..SERVE_PROBE_ROUNDS).map(|_| probe.round_ms()));
    let sizes: Vec<String> = WARM
        .iter()
        .map(|&r| {
            format!(
                "{} {} B",
                daemon.target(r).rsplit('/').next().unwrap_or_default(),
                daemon.primed(r).map_or(0, str::len)
            )
        })
        .collect();
    let mut notes = vec![
        format!("primed bodies: {}", sizes.join(", ")),
        format!(
            "{} requests from {} closed-loop clients in {wall:.2} s = {:.2} req/s",
            replies.len(),
            ctx.nproc,
            replies.len() as f64 / wall
        ),
    ];
    for (k, kind) in KINDS.iter().enumerate() {
        let ms: Vec<f64> = replies
            .iter()
            .filter(|r| r.route.kind_index() == k && !r.traced)
            .map(|r| r.ms)
            .collect();
        notes.push(format!(
            "route {kind}: {} requests, median {:.1} ms",
            ms.len(),
            crate::stats::median(&ms).unwrap_or(f64::NAN)
        ));
    }
    let latencies = replies
        .iter()
        .map(|r| Sample {
            ms: r.ms,
            ok: r.ok,
            traced: r.traced,
            kind: r.route.class(),
        })
        .collect();
    Ok((
        setups.times,
        Measured {
            latencies,
            probe_ms,
            notes,
        },
    ))
}
