//! The `serve-mix` workload: the closed analytics loop on the served
//! graph, then an open loop of seeded Poisson arrivals into
//! `serve::Engine`, dispatched by two sender threads, in a nominal phase
//! and an overload phase at fixed rates.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use essentials_algos::bfs::bfs_sequential;
use essentials_algos::pagerank::{pagerank_sequential, PrConfig};
use essentials_core::prelude::*;
use essentials_serve::{Brownout, Engine, EngineConfig, Outcome as Served};

use crate::analytics::{
    largest_component, ratio, reference, region_us_p50, timed_loop, warm_up, LoopSamples, LoopSpec,
    Skew, Sources,
};
use crate::inputs::{build, raw_topology_bytes_per_edge, read_mm};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::sampler::{fingerprint_u32, poisson_arrivals, sample_sources, stream};
use crate::stats::{median, percentile, tail};
use crate::trace::{self, BenchSink, Kind};
use crate::workload::{new_context, BFS_SOURCES, SETUP_REPS};
use crate::Settings;

/// Arrival rates, fixed in absolute terms so every commit is offered the
/// same load. Calibrated once on a 2-vCPU x86-64 VM with the two-thread
/// engine: with both senders kept busy and no limit, the mix (80% probes
/// at 1.8 ms, 10% batches at 6 ms, 10% PageRank at 11 ms of service) was
/// answered at about 520 requests/s, and under the limit with shedding
/// about 500 answers/s came back in time. Nominal is half of the one,
/// overload 1.5 times the other.
pub const NOMINAL_RPS: f64 = 260.0;
pub const OVERLOAD_RPS: f64 = 750.0;
/// Every request must complete within this time of its due time.
pub const LIMIT: Duration = Duration::from_millis(50);
/// Sources of the probes; a batch carries all of them.
const PROBE_SOURCES: usize = 64;
const SENDERS: usize = 2;
/// Workers of the engine's pool.
pub const ENGINE_THREADS: usize = 2;
/// Engine sizing: two pool threads, two permits (one heavy).
fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: ENGINE_THREADS,
        permits: 2,
        heavy_permits: 1,
    }
}
/// Shares of the run window: closed analytics loop, nominal, overload.
const SHARES: [f64; 3] = [0.3, 0.45, 0.25];
/// Share of the window for each of the two tracing-overhead slices that
/// a traced run serves before the nominal phase.
const OVERHEAD_SLICE: f64 = 0.15;

fn serve_pr() -> PrConfig {
    PrConfig {
        damping: 0.85,
        tolerance: 1e-4,
        max_iterations: 100,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    Probe,
    Batch,
    Heavy,
}

#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// Due time, seconds after the phase starts.
    pub due: f64,
    pub kind: ReqKind,
    /// Probe source index.
    pub source: usize,
}

/// What became of a request.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Degraded,
    /// Error or rejection, with the engine's label.
    Failed(&'static str),
    /// An answer that failed its check.
    Wrong(String),
}

#[derive(Clone, Debug)]
pub struct Done {
    /// Position in the schedule.
    pub index: usize,
    pub kind: ReqKind,
    /// Seconds from due to sent, and from due to completion.
    pub lag: f64,
    pub latency: f64,
    /// Seconds from the phase start to completion.
    pub finished: f64,
    pub verdict: Verdict,
}

impl Done {
    /// An answer (full or degraded) within the latency limit.
    pub fn good(&self) -> bool {
        matches!(self.verdict, Verdict::Ok | Verdict::Degraded)
            && self.latency <= LIMIT.as_secs_f64()
    }
}

/// The seeded arrival schedule of one phase.
pub fn schedule(seed: u64, phase: u64, rate: f64, duration: f64) -> Vec<Req> {
    let mut rng = stream(seed, 100 + phase);
    poisson_arrivals(&mut rng, rate, duration)
        .into_iter()
        .map(|due| {
            let roll = rng.below(10);
            let kind = match roll {
                0 => ReqKind::Batch,
                1 => ReqKind::Heavy,
                _ => ReqKind::Probe,
            };
            Req {
                due,
                kind,
                source: rng.below(PROBE_SOURCES),
            }
        })
        .collect()
}

/// Open-loop dispatch: `senders` threads take requests in due order, wait
/// until each is due, and call `serve(request, deadline)`. Latency runs
/// from the due time, so a sender that stalls charges its delay to every
/// request queued behind it.
pub fn dispatch<F>(reqs: &[Req], senders: usize, serve: F) -> Vec<Done>
where
    F: Fn(u64, &Req, Instant) -> Verdict + Sync,
{
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(reqs.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(r) = reqs.get(i) else { break };
                let due = t0 + Duration::from_secs_f64(r.due);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let verdict = serve(i as u64 + 1, r, due + LIMIT);
                let end = Instant::now();
                let rec = Done {
                    index: i,
                    kind: r.kind,
                    lag: sent.saturating_duration_since(due).as_secs_f64(),
                    latency: end.saturating_duration_since(due).as_secs_f64(),
                    finished: (end - t0).as_secs_f64(),
                    verdict,
                };
                done.lock().expect("results lock poisoned").push(rec);
            });
        }
    });
    done.into_inner().expect("results lock poisoned")
}

/// Serial oracles of every answer the mix can ask for.
struct Oracle {
    sources: Vec<u32>,
    probe: Vec<u64>,
    batch: u64,
    ranks: Vec<f64>,
}

impl Oracle {
    fn new(g: &Graph<f32>, sources: Vec<u32>) -> Oracle {
        let levels: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| bfs_sequential(g, s).level)
            .collect();
        let n = g.get_num_vertices();
        let mut table = vec![0u32; n * sources.len()];
        for (s, l) in levels.iter().enumerate() {
            for (v, &x) in l.iter().enumerate() {
                table[v * sources.len() + s] = x;
            }
        }
        Oracle {
            probe: levels.iter().map(|l| fingerprint_u32(l)).collect(),
            batch: fingerprint_u32(&table),
            // Converged far past the served tolerance: the fixed point itself.
            ranks: pagerank_sequential(
                g,
                PrConfig {
                    tolerance: 1e-12,
                    ..serve_pr()
                },
            )
            .rank,
            sources,
        }
    }

    /// A full answer stopped when an iteration moved the ranks by less than
    /// the tolerance; with damping 0.85 the power iteration then sits
    /// within 0.85 / 0.15 ≈ 5.7 tolerances of the fixed point in L1. A
    /// degraded answer must still be a distribution.
    fn check_ranks(&self, r: &[f64], degraded: bool) -> bool {
        let sum: f64 = r.iter().sum();
        if r.len() != self.ranks.len()
            || (sum - 1.0).abs() > 1e-6
            || r.iter().any(|x| x.is_nan() || *x < 0.0)
        {
            return false;
        }
        let l1: f64 = r.iter().zip(&self.ranks).map(|(a, b)| (a - b).abs()).sum();
        degraded || l1 <= 6.0 * serve_pr().tolerance
    }
}

/// Sends one request and checks its answer; with a sink, records the
/// benchmark span around the call.
fn call(
    engine: &Engine<f32>,
    oracle: &Oracle,
    sink: Option<&BenchSink>,
    id: u64,
    r: &Req,
    deadline: Instant,
) -> Verdict {
    trace::set_current(id);
    let start = Instant::now();
    let verdict = send(
        engine,
        oracle,
        r,
        RunBudget::unlimited().with_deadline(deadline),
    );
    if let Some(sink) = sink {
        let name = match r.kind {
            ReqKind::Probe => "serve.bfs",
            ReqKind::Batch => "serve.bfs-batch",
            ReqKind::Heavy => "serve.pagerank",
        };
        sink.span(name, id, 0, start, Instant::now());
    }
    verdict
}

fn send(engine: &Engine<f32>, oracle: &Oracle, r: &Req, budget: RunBudget) -> Verdict {
    match r.kind {
        ReqKind::Probe => match engine.bfs(oracle.sources[r.source], budget) {
            Ok(res) if fingerprint_u32(&res.level) == oracle.probe[r.source] => Verdict::Ok,
            Ok(_) => Verdict::Wrong(format!(
                "probe from {} differs from serial BFS",
                oracle.sources[r.source]
            )),
            Err(e) => Verdict::Failed(e.kind()),
        },
        ReqKind::Batch => match engine.bfs_batch(&oracle.sources, budget) {
            Ok(res) => {
                let ok = fingerprint_u32(&res.levels) == oracle.batch;
                engine.recycle_batch(res);
                if ok {
                    Verdict::Ok
                } else {
                    Verdict::Wrong("batch differs from serial BFS".into())
                }
            }
            Err(e) => Verdict::Failed(e.kind()),
        },
        ReqKind::Heavy => match engine.pagerank_degradable(serve_pr(), budget, Brownout::new(5)) {
            Ok(resp) => {
                let degraded = matches!(resp.outcome, Served::Degraded { .. });
                if !oracle.check_ranks(&resp.value.rank, degraded) {
                    Verdict::Wrong("pagerank differs from serial PageRank".into())
                } else if degraded {
                    Verdict::Degraded
                } else {
                    Verdict::Ok
                }
            }
            Err(e) => Verdict::Failed(e.kind()),
        },
    }
}

/// Warms the scratch slots, the batch free-list and the service estimator,
/// unmeasured.
fn warm(engine: &Engine<f32>, oracle: &Oracle, mismatches: &mut Vec<String>) {
    for kind in [ReqKind::Probe, ReqKind::Batch, ReqKind::Heavy].repeat(4) {
        let r = Req {
            due: 0.0,
            kind,
            source: 0,
        };
        let budget = RunBudget::unlimited().with_timeout(Duration::from_secs(5));
        if let Verdict::Wrong(e) = send(engine, oracle, &r, budget) {
            mismatches.push(e);
        }
    }
}

/// Median over the requests answered in full in both runs of one schedule
/// of traced over untraced service time (sent to answered), minus one.
pub fn trace_overhead_share(untraced: &[Done], traced: &[Done]) -> f64 {
    let service = |d: &Done| d.latency - d.lag;
    let n = untraced.len().max(traced.len());
    let mut base = vec![0.0; n];
    for d in untraced.iter().filter(|d| d.verdict == Verdict::Ok) {
        base[d.index] = service(d);
    }
    let pairs: Vec<f64> = traced
        .iter()
        .filter(|d| d.verdict == Verdict::Ok && base[d.index] > 0.0)
        .map(|d| service(d) / base[d.index] - 1.0)
        .collect();
    median(&pairs)
}

/// Latency in ms, charged at least the limit when the request failed.
fn charged_ms(d: &Done) -> f64 {
    let l = if d.good() {
        d.latency
    } else {
        d.latency.max(LIMIT.as_secs_f64())
    };
    l * 1e3
}

pub fn run(s: &Settings, dir: &Path) -> Result<Outcome, String> {
    // Set-up: read, build, and start the engine, several times.
    let (mut reads, mut builds, mut news, mut totals) = (vec![], vec![], vec![], vec![]);
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        drop(graph.take());
        let t = Instant::now();
        let (coo, read_s) = read_mm(dir)?;
        let (g, build_s) = build(coo);
        let g = Arc::new(g);
        let t_new = Instant::now();
        let engine = Engine::new(g.clone(), engine_config());
        news.push(t_new.elapsed().as_secs_f64());
        totals.push(t.elapsed().as_secs_f64());
        reads.push(read_s);
        builds.push(build_s);
        // The engine's pool is stopped before the analytics loop starts
        // its own, so no more than two pool threads exist at once.
        drop(engine);
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up");
    let window = s.seconds;
    let sink = s.trace.then(|| Arc::new(BenchSink::new()));
    let mut m = Metrics::default();
    let mut mismatches = Vec::new();

    // Closed analytics loop on the served graph, on one worker as on the
    // analytics workloads.
    let ctx = new_context();
    let giant = largest_component(&*g, &ctx);
    let eligible = |v: u32| giant[v as usize] && g.out_degree(v) > 0;
    let sources = Sources {
        ids: sample_sources(s.seed, giant.len(), eligible, BFS_SOURCES),
        sssp_every: 2,
    };
    let refs = reference(&*g, &ctx, &sources, Some(&g))?;
    let mut samples = LoopSamples::default();
    let spec = LoopSpec {
        sink: sink.as_ref(),
        sources: &sources,
        reference: &refs,
        check: Some(&g),
        window: Duration::from_secs_f64(window * SHARES[0]),
    };
    warm_up(&*g, &ctx, &sources);
    timed_loop(&*g, &ctx, &spec, &mut samples);
    samples.emit_end_to_end(&mut m);
    samples.layers.emit(&mut m);
    m.put("graph.csr.scan_meps", samples.layers.scan_meps(), "Medge/s");
    drop(ctx);
    let mut attempted = samples.attempted;
    let mut failed = samples.failed;
    mismatches.extend(samples.mismatches);

    // Open loop.
    let oracle = Oracle::new(
        &g,
        sample_sources(s.seed ^ 0x5EED, giant.len(), eligible, PROBE_SOURCES),
    );
    // A traced run first serves one slice of nominal load twice: on an
    // untraced engine, then on the traced one. The pairs give the serve
    // path's tracing overhead.
    let slice = s
        .trace
        .then(|| schedule(s.seed, 2, NOMINAL_RPS, window * OVERHEAD_SLICE));
    let untraced_slice = slice.as_ref().map(|reqs| {
        let engine = Engine::new(g.clone(), engine_config());
        warm(&engine, &oracle, &mut mismatches);
        dispatch(reqs, SENDERS, |id, r, dl| {
            call(&engine, &oracle, None, id, r, dl)
        })
    });
    let mut engine = Engine::new(g.clone(), engine_config());
    if let Some(sink) = &sink {
        engine = engine.with_obs(sink.clone() as Arc<dyn ObsSink>);
    }
    warm(&engine, &oracle, &mut mismatches);
    let traced = sink.as_deref();
    // Request ids: 1.. in the nominal phase, 1_000_001.. in the overload,
    // 2_000_001.. in the traced slice.
    let traced_slice = slice.as_ref().map(|reqs| {
        dispatch(reqs, SENDERS, |id, r, dl| {
            call(&engine, &oracle, traced, 2_000_000 + id, r, dl)
        })
    });
    let mark = sink.as_ref().map_or(0, |k| k.len());
    let nominal_reqs = schedule(s.seed, 0, NOMINAL_RPS, window * SHARES[1]);
    let nominal = dispatch(&nominal_reqs, SENDERS, |id, r, dl| {
        call(&engine, &oracle, traced, id, r, dl)
    });
    let nominal_events = sink.as_ref().map_or(0, |k| k.len()) - mark;
    // Peak memory through the nominal phase. In the overload phase the
    // number of 1 MB batch tables alive at once follows the host's
    // scheduling: it moved the peak by up to 2 MB between runs.
    let peak = peak_rss_mb();
    let overload_reqs = schedule(s.seed, 1, OVERLOAD_RPS, window * SHARES[2]);
    let overload = dispatch(&overload_reqs, SENDERS, |id, r, dl| {
        call(&engine, &oracle, traced, 1_000_000 + id, r, dl)
    });
    let health = engine.health();
    drop(engine);

    let slices = untraced_slice.iter().chain(&traced_slice).flatten();
    for d in nominal.iter().chain(&overload).chain(slices) {
        if let Verdict::Wrong(e) = &d.verdict {
            mismatches.push(e.clone());
        }
    }
    attempted += nominal.len() as u64;
    failed += nominal.iter().filter(|d| !d.good()).count() as u64;

    let of = |k: ReqKind| -> Vec<f64> {
        nominal
            .iter()
            .filter(|d| d.kind == k)
            .map(charged_ms)
            .collect()
    };
    let probes = of(ReqKind::Probe);

    m.put("serve.probe_p50_ms", median(&probes), "ms");
    // The tail: p99 once ten probes lie beyond it, else the highest
    // percentile that has ten. Too unsteady between runs on a shared
    // 2-vCPU host to carry a bound, so it is a per-layer metric.
    let p99 = if probes.len() >= 1000 {
        percentile(&probes, 99.0)
    } else {
        tail(&probes).map_or(0.0, |t| t.1)
    };
    m.put("serve.probe_p99_ms", p99, "ms");
    m.put("serve.heavy_p50_ms", median(&of(ReqKind::Heavy)), "ms");
    let good = overload.iter().filter(|d| d.good()).count() as f64;
    let span = overload.iter().map(|d| d.finished).fold(0.0, f64::max);
    m.put("goodput_rps", ratio(good, span), "1/s");

    let new_ms = median(&news) * 1e3;
    m.put("setup_s", median(&totals), "s");
    m.put("peak_rss_mb", peak, "MB");
    m.put("io.mm_read_s", median(&reads), "s");
    m.put("graph.build_s", median(&builds), "s");
    m.put("serve.engine_new_ms", new_ms, "ms");
    // An empty region on a pool of the engine's size, after the engine has
    // stopped its own.
    let pool = ThreadPool::new(ENGINE_THREADS);
    m.put("parallel.region_us_p50", region_us_p50(&pool), "us");
    drop(pool);
    m.put(
        "graph.topology_bytes_per_edge",
        raw_topology_bytes_per_edge(&g),
        "B",
    );
    let lags: Vec<f64> = nominal.iter().map(|d| d.lag * 1e3).collect();
    m.put("bench.send_lag_ms_p99", percentile(&lags, 99.0), "ms");
    m.put(
        "serve.quarantined_total",
        health.quarantined_total as f64,
        "count",
    );

    if let Some(sink) = &sink {
        // Shed and degraded shares over both phases; queue and service
        // times from the nominal phase.
        let recs = sink.since(mark);
        let mut queue = Vec::new();
        let mut service: [Vec<f64>; 3] = Default::default();
        let (mut total, mut shed, mut degraded) = (0usize, 0usize, 0usize);
        // The served traversals run on the engine's workers: their skew
        // replaces the one-worker closed loop's.
        let mut skew = Skew::default();
        for (i, r) in recs.iter().enumerate() {
            if let Kind::Advance {
                skew: k, pushed, ..
            } = r.kind
            {
                if i < nominal_events {
                    skew.add(k, pushed);
                }
                continue;
            }
            let Kind::Request {
                kind,
                outcome,
                queue_ns,
                service_ns,
            } = r.kind
            else {
                continue;
            };
            total += 1;
            shed += usize::from(outcome == "shed");
            degraded += usize::from(outcome == "degraded");
            if i < nominal_events {
                queue.push(queue_ns as f64 / 1e6);
                let slot = match kind {
                    "bfs" => 0,
                    "bfs-batch" => 1,
                    _ => 2,
                };
                if service_ns > 0 {
                    service[slot].push(service_ns as f64 / 1e6);
                }
            }
        }
        m.put("core.advance.skew", skew.value(), "ratio");
        if let (Some(u), Some(t)) = (&untraced_slice, &traced_slice) {
            m.put(
                "bench.trace_overhead_share",
                trace_overhead_share(u, t),
                "ratio",
            );
        }
        m.put("serve.admission.queue_ms_p50", median(&queue), "ms");
        m.put(
            "serve.admission.queue_ms_p99",
            percentile(&queue, 99.0),
            "ms",
        );
        m.put("serve.service_ms_p50.bfs", median(&service[0]), "ms");
        m.put("serve.service_ms_p50.bfs-batch", median(&service[1]), "ms");
        m.put("serve.service_ms_p50.pagerank", median(&service[2]), "ms");
        m.put(
            "serve.shed_share",
            ratio(shed as f64, total as f64),
            "ratio",
        );
        m.put(
            "serve.degraded_share",
            ratio(degraded as f64, total as f64),
            "ratio",
        );
        s.write_trace(sink);
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        mismatches,
        probes: probes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_sender_charges_later_requests() {
        // One sender; the first request stalls 60 ms, the second was due
        // at 10 ms, so it is sent about 50 ms late and its latency counts
        // from its due time.
        let reqs = [
            Req {
                due: 0.0,
                kind: ReqKind::Heavy,
                source: 0,
            },
            Req {
                due: 0.010,
                kind: ReqKind::Probe,
                source: 0,
            },
        ];
        let done = dispatch(&reqs, 1, |id, _, _| {
            if id == 1 {
                std::thread::sleep(Duration::from_millis(60));
            }
            Verdict::Ok
        });
        let probe = done.iter().find(|d| d.kind == ReqKind::Probe).unwrap();
        assert!(probe.lag >= 0.045, "lag {}", probe.lag);
        assert!(probe.latency >= probe.lag);
        assert!(probe.latency >= 0.045);
    }

    #[test]
    fn an_idle_sender_sends_on_time() {
        let reqs = [Req {
            due: 0.005,
            kind: ReqKind::Probe,
            source: 0,
        }];
        let done = dispatch(&reqs, 2, |_, _, _| Verdict::Ok);
        assert_eq!(done.len(), 1);
        assert!(done[0].lag < 0.005, "lag {}", done[0].lag);
        assert!(done[0].good());
    }

    #[test]
    fn failures_are_charged_at_least_the_limit() {
        let d = Done {
            index: 0,
            kind: ReqKind::Probe,
            lag: 0.0,
            latency: 0.001,
            finished: 0.0,
            verdict: Verdict::Failed("shed"),
        };
        assert!(!d.good());
        assert_eq!(charged_ms(&d), LIMIT.as_secs_f64() * 1e3);
    }

    #[test]
    fn trace_overhead_pairs_requests_by_schedule_position() {
        let done = |index, service: f64, verdict| Done {
            index,
            kind: ReqKind::Probe,
            lag: 0.001,
            latency: 0.001 + service,
            finished: 0.0,
            verdict,
        };
        // Completion order differs between the runs; request 2 failed in
        // the traced run and is left out.
        let untraced = [
            done(1, 0.004, Verdict::Ok),
            done(0, 0.002, Verdict::Ok),
            done(2, 0.010, Verdict::Ok),
        ];
        let traced = [
            done(0, 0.0022, Verdict::Ok),
            done(2, 0.001, Verdict::Failed("shed")),
            done(1, 0.0044, Verdict::Ok),
        ];
        let share = trace_overhead_share(&untraced, &traced);
        assert!((share - 0.1).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn schedules_are_seeded_and_keep_the_mix() {
        let a = schedule(9, 0, 1000.0, 10.0);
        assert_eq!(a.len(), schedule(9, 0, 1000.0, 10.0).len());
        assert!(a
            .iter()
            .zip(&schedule(9, 0, 1000.0, 10.0))
            .all(|(x, y)| x.due == y.due && x.kind == y.kind));
        let probes = a.iter().filter(|r| r.kind == ReqKind::Probe).count() as f64 / a.len() as f64;
        assert!((probes - 0.8).abs() < 0.02, "probe share {probes}");
    }
}
