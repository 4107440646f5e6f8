//! The three analytics workloads: set the graph up from its file
//! `SETUP_REPS` times (`setup_s` is the median), warm up, run the closed
//! loop on the last copy for the window, and check every output.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use essentials_core::prelude::*;
use essentials_io::CompressedContainer;

use crate::analytics::{
    check_raw, largest_component, reference, region_us_p50, run_op, timed_loop, warm_up, LayerAcc,
    LoopSamples, LoopSpec, Sources, Target,
};
use crate::inputs::{build, raw_topology_bytes_per_edge, read_mm, Workload, ESNC_FILE};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::sampler::sample_sources;
use crate::stats::median;
use crate::trace::BenchSink;
use crate::Settings;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// BFS sources per run, as in Graph500's 64 search keys but halved to
/// fit the window.
pub const BFS_SOURCES: usize = 32;

/// Every how many BFS sources SSSP starts too. Grid SSSP times vary
/// threefold with the source's position, so the grid runs SSSP from all.
fn sssp_every(w: Workload) -> usize {
    match w {
        Workload::Grid => 1,
        _ => 4,
    }
}

/// The run's sources: Graph500 keys with at least one edge, drawn from the
/// largest component.
fn sources<T: Target + ?Sized>(s: &Settings, t: &T, ctx: &Context) -> Sources {
    let giant = largest_component(t, ctx);
    let eligible = |v: u32| giant[v as usize] && t.degree(v) > 0;
    Sources {
        ids: sample_sources(s.seed, giant.len(), eligible, BFS_SOURCES),
        sssp_every: sssp_every(s.workload),
    }
}

/// Workers of every analytics pool. On the 2-vCPU VM this benchmark was
/// tuned on, two workers made adaptive SSSP and CC 1.6 to 3 times slower
/// than one, by an amount that changed between runs with the host's
/// placement of the vCPUs, wider than any bound. The multi-worker path is
/// measured on `serve-mix`, whose engine runs two.
pub const ANALYTICS_THREADS: usize = 1;

pub fn new_context() -> Context {
    Context::with_pool(Arc::new(ThreadPool::new(ANALYTICS_THREADS)))
}

pub fn run(s: &Settings, dir: &Path) -> Result<Outcome, String> {
    match s.workload {
        Workload::Ccsr => run_compressed(s, dir),
        _ => run_raw(s, dir),
    }
}

fn run_raw(s: &Settings, dir: &Path) -> Result<Outcome, String> {
    let (mut reads, mut builds, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous copy first so peak memory is one graph's.
        drop(last.take());
        let t = Instant::now();
        let (coo, read_s) = read_mm(dir)?;
        let (g, build_s) = build(coo);
        let ctx = new_context();
        totals.push(t.elapsed().as_secs_f64());
        reads.push(read_s);
        builds.push(build_s);
        last = Some((g, ctx));
    }
    let (g, ctx) = last.expect("at least one set-up");
    let sources = sources(s, &g, &ctx);
    let reference = reference(&g, &ctx, &sources, Some(&g))?;
    warm_up(&g, &ctx, &sources);
    let sink = s.trace.then(|| Arc::new(BenchSink::new()));
    let mut samples = LoopSamples::default();
    let spec = LoopSpec {
        sink: sink.as_ref(),
        sources: &sources,
        reference: &reference,
        check: Some(&g),
        window: Duration::from_secs_f64(s.seconds),
    };
    timed_loop(&g, &ctx, &spec, &mut samples);

    let mut m = Metrics::default();
    m.put("setup_s", median(&totals), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    samples.emit_end_to_end(&mut m);
    m.put("io.mm_read_s", median(&reads), "s");
    m.put("graph.build_s", median(&builds), "s");
    m.put(
        "graph.topology_bytes_per_edge",
        raw_topology_bytes_per_edge(&g),
        "B",
    );
    samples.layers.emit(&mut m);
    m.put("graph.csr.scan_meps", samples.layers.scan_meps(), "Medge/s");
    m.put("parallel.region_us_p50", region_us_p50(ctx.pool()), "us");
    finish(s, sink, samples, m)
}

fn run_compressed(s: &Settings, dir: &Path) -> Result<Outcome, String> {
    let path = dir.join(ESNC_FILE);
    let (mut opens, mut totals) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let container = CompressedContainer::<f32>::open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        container
            .view()
            .map_err(|e| format!("view {}: {e}", path.display()))?;
        opens.push(t.elapsed().as_secs_f64());
        let ctx = new_context();
        totals.push(t.elapsed().as_secs_f64());
        last = Some((container, ctx));
    }
    let (container, ctx) = last.expect("at least one set-up");
    let view = container.view().map_err(|e| format!("view: {e}"))?;
    let sources = sources(s, &view, &ctx);
    // Compressed outputs only become the reference here; they are checked
    // against the raw graph after the window.
    let reference = reference(&view, &ctx, &sources, None)?;
    warm_up(&view, &ctx, &sources);
    let sink = s.trace.then(|| Arc::new(BenchSink::new()));
    let mut samples = LoopSamples::default();
    let spec = LoopSpec {
        sink: sink.as_ref(),
        sources: &sources,
        reference: &reference,
        check: None,
        window: Duration::from_secs_f64(s.seconds),
    };
    timed_loop(&view, &ctx, &spec, &mut samples);

    // Memory is read before the raw graph for the checks is built.
    let peak = peak_rss_mb();
    // Coded streams plus edge and byte offsets, both directions.
    let offsets = 2.0 * 8.0 * (view.num_vertices() as f64 + 1.0);
    let bytes: f64 = [Some(view.out), view.in_]
        .iter()
        .flatten()
        .map(|side| side.topology_bytes() as f64 + offsets)
        .sum();
    let bytes_per_edge = bytes / view.num_edges().max(1) as f64;

    // The raw graph from the same file must give bit-identical answers,
    // and those answers must pass the verifiers.
    let (coo, _) = read_mm(dir)?;
    let (g, _) = build(coo);
    let check_ctx = match &sink {
        Some(sink) => ctx.clone().with_obs(sink.clone() as Arc<dyn ObsSink>),
        None => ctx.clone(),
    };
    let mut raw_layers = LayerAcc::default();
    for (i, op) in sources.pass_ops().into_iter().enumerate() {
        let mark = sink.as_ref().map_or(0, |k| k.len());
        let t0 = Instant::now();
        let (out, work) = run_op(&g, &check_ctx, op, &sources);
        let wall = t0.elapsed().as_nanos() as u64;
        if let Some(sink) = &sink {
            raw_layers.add_call(op.algo, wall, work, &sink.since(mark));
        }
        let verdict = check_raw(&g, op, &sources, &out).and_then(|()| {
            if out.fingerprint() == reference.fingerprints[i] {
                Ok(())
            } else {
                Err(format!("compressed {} differs from raw", op.algo.name()))
            }
        });
        samples.attempted += 1;
        if let Err(e) = verdict {
            samples.failed += 1;
            samples.mismatches.push(e);
        }
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&totals), "s");
    m.put("peak_rss_mb", peak, "MB");
    samples.emit_end_to_end(&mut m);
    m.put("io.esnc_open_ms", median(&opens) * 1e3, "ms");
    m.put("graph.topology_bytes_per_edge", bytes_per_edge, "B");
    samples.layers.emit(&mut m);
    m.put(
        "graph.ccsr.decode_meps",
        samples.layers.scan_meps(),
        "Medge/s",
    );
    m.put("graph.csr.scan_meps", raw_layers.scan_meps(), "Medge/s");
    m.put("parallel.region_us_p50", region_us_p50(ctx.pool()), "us");
    finish(s, sink, samples, m)
}

fn finish(
    s: &Settings,
    sink: Option<Arc<BenchSink>>,
    samples: LoopSamples,
    mut m: Metrics,
) -> Result<Outcome, String> {
    m.put(
        "bench.trace_overhead_share",
        samples.trace_overhead_share(),
        "ratio",
    );
    if let Some(sink) = &sink {
        s.write_trace(sink);
    }
    Ok(Outcome {
        metrics: m,
        attempted: samples.attempted,
        failed: samples.failed,
        probes: samples.probes(),
        mismatches: samples.mismatches,
    })
}
