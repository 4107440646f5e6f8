//! The closed analytics loop: one caller runs adaptive BFS and SSSP from
//! a fixed source set, then CC and PageRank, pass after pass, through the
//! library's public entry points. Every output is checked outside the
//! clock. The raw and compressed graphs run the same loop through the
//! [`Target`] trait.

use std::sync::Arc;
use std::time::{Duration, Instant};

use essentials_algos::bfs::{bfs_adaptive, bfs_adaptive_compressed, verify_bfs, UNVISITED};
use essentials_algos::cc::{cc_adaptive, cc_adaptive_compressed, verify_cc};
use essentials_algos::pagerank::{
    pagerank_adaptive, pagerank_pull_compressed, verify_pagerank, PrConfig,
};
use essentials_algos::sssp::{dijkstra, sssp_adaptive, sssp_adaptive_compressed, verify_sssp};
use essentials_core::prelude::*;

use crate::report::Metrics;
use crate::sampler::{fingerprint, fingerprint_u32};
use crate::stats::{harmonic_mean, interquartile_mean, median, relative_range};
use crate::trace::{is_push, BenchSink, Kind, Record};

/// PageRank stops when one iteration changes the ranks by less than this
/// in L1 norm.
pub const PR_TOLERANCE: f64 = 1e-6;
const DAMPING: f64 = 0.85;
/// Slack of the SSSP fixpoint check; distances are sums of at most a few
/// hundred weights below 2.
const SSSP_EPS: f32 = 1e-3;

pub fn pr_config() -> PrConfig {
    PrConfig {
        damping: DAMPING,
        tolerance: PR_TOLERANCE,
        max_iterations: 200,
    }
}

/// A graph the loop can run on: the raw CSR/CSC graph or a compressed view.
pub trait Target: Sync {
    fn edge_count(&self) -> usize;
    fn degree(&self, v: u32) -> usize;
    fn bfs(&self, ctx: &Context, s: u32) -> (Vec<u32>, u64);
    fn sssp(&self, ctx: &Context, s: u32) -> (Vec<f32>, u64);
    fn cc(&self, ctx: &Context) -> (Vec<u32>, u64);
    /// Ranks and iterations.
    fn pagerank(&self, ctx: &Context) -> (Vec<f64>, usize);
}

impl Target for Graph<f32> {
    fn edge_count(&self) -> usize {
        self.get_num_edges()
    }
    fn degree(&self, v: u32) -> usize {
        self.out_degree(v)
    }
    fn bfs(&self, ctx: &Context, s: u32) -> (Vec<u32>, u64) {
        let r = bfs_adaptive(execution::par, ctx, self, s);
        (r.level, r.edges_inspected as u64)
    }
    fn sssp(&self, ctx: &Context, s: u32) -> (Vec<f32>, u64) {
        let r = sssp_adaptive(execution::par, ctx, self, s);
        (r.dist, r.relaxations as u64)
    }
    fn cc(&self, ctx: &Context) -> (Vec<u32>, u64) {
        let r = cc_adaptive(execution::par, ctx, self);
        (r.comp, r.updates as u64)
    }
    fn pagerank(&self, ctx: &Context) -> (Vec<f64>, usize) {
        let r = pagerank_adaptive(
            execution::par,
            ctx,
            self,
            pr_config(),
            DirectionPolicy::default(),
        );
        (r.rank, r.stats.iterations)
    }
}

impl Target for CompressedGraphView<'_, f32> {
    fn edge_count(&self) -> usize {
        self.num_edges()
    }
    fn degree(&self, v: u32) -> usize {
        self.out_degree(v)
    }
    fn bfs(&self, ctx: &Context, s: u32) -> (Vec<u32>, u64) {
        let r = bfs_adaptive_compressed(execution::par, ctx, self, s, DirectionPolicy::default());
        (r.level, r.edges_inspected as u64)
    }
    fn sssp(&self, ctx: &Context, s: u32) -> (Vec<f32>, u64) {
        let r = sssp_adaptive_compressed(execution::par, ctx, self, s);
        (r.dist, r.relaxations as u64)
    }
    fn cc(&self, ctx: &Context) -> (Vec<u32>, u64) {
        let r = cc_adaptive_compressed(execution::par, ctx, self);
        (r.comp, r.updates as u64)
    }
    fn pagerank(&self, ctx: &Context) -> (Vec<f64>, usize) {
        let r = pagerank_pull_compressed(execution::par, ctx, self, pr_config());
        (r.rank, r.stats.iterations)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Bfs,
    Sssp,
    Cc,
    PageRank,
}

impl Algo {
    pub const ALL: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::PageRank];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::PageRank => "pagerank",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One public call of the loop: the algorithm and, for BFS and SSSP, the
/// index of its source in the source set.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub algo: Algo,
    pub source: usize,
}

pub enum Output {
    Levels(Vec<u32>),
    Dist(Vec<f32>),
    Labels(Vec<u32>),
    Ranks(Vec<f64>),
}

impl Output {
    pub fn fingerprint(&self) -> u64 {
        match self {
            Output::Levels(x) | Output::Labels(x) => fingerprint_u32(x),
            Output::Dist(x) => fingerprint(x.iter().map(|d| u64::from(d.to_bits()))),
            Output::Ranks(x) => fingerprint(x.iter().map(|r| r.to_bits())),
        }
    }
}

/// Runs one call; returns the output and its work count.
pub fn run_op<T: Target + ?Sized>(
    t: &T,
    ctx: &Context,
    op: Op,
    sources: &Sources,
) -> (Output, u64) {
    match op.algo {
        Algo::Bfs => {
            let (l, w) = t.bfs(ctx, sources.ids[op.source]);
            (Output::Levels(l), w)
        }
        Algo::Sssp => {
            let (d, w) = t.sssp(ctx, sources.ids[op.source]);
            (Output::Dist(d), w)
        }
        Algo::Cc => {
            let (c, w) = t.cc(ctx);
            (Output::Labels(c), w)
        }
        Algo::PageRank => {
            let (r, iters) = t.pagerank(ctx);
            (Output::Ranks(r), iters as u64 * t.edge_count() as u64)
        }
    }
}

/// Checks an output against the library's verifiers (SSSP also against
/// Dijkstra). Returns a description of the first failure.
pub fn check_raw(g: &Graph<f32>, op: Op, sources: &Sources, out: &Output) -> Result<(), String> {
    let source = sources.ids[op.source];
    let ok = match out {
        Output::Levels(l) => verify_bfs(g, source, l),
        Output::Dist(d) => {
            verify_sssp(g, source, d, SSSP_EPS) && {
                let want = dijkstra(g, source).dist;
                want.iter().zip(d).all(|(&a, &b)| {
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= 1e-5 * a.max(1.0)
                })
            }
        }
        Output::Labels(c) => verify_cc(g, c),
        Output::Ranks(r) => verify_pagerank(g, r, DAMPING, PR_TOLERANCE),
    };
    if ok {
        Ok(())
    } else {
        Err(match op.algo {
            Algo::Bfs | Algo::Sssp => {
                format!("{} from source {source} failed its check", op.algo.name())
            }
            _ => format!("{} failed its check", op.algo.name()),
        })
    }
}

/// The BFS sources of a run; SSSP starts from every `sssp_every`-th.
pub struct Sources {
    pub ids: Vec<u32>,
    pub sssp_every: usize,
}

impl Sources {
    /// The calls of one pass, in order: BFS from each source, SSSP from
    /// every `sssp_every`-th, and a CC and a PageRank call after every
    /// quarter of the sources, so the whole-graph algorithms get several
    /// samples per pass.
    pub fn pass_ops(&self) -> Vec<Op> {
        let n = self.ids.len();
        let quarter = (n / 4).max(1);
        let mut ops = Vec::new();
        for source in 0..n {
            ops.push(Op {
                algo: Algo::Bfs,
                source,
            });
            if source % self.sssp_every == 0 {
                ops.push(Op {
                    algo: Algo::Sssp,
                    source,
                });
            }
            if (source + 1) % quarter == 0 {
                for algo in [Algo::Cc, Algo::PageRank] {
                    ops.push(Op { algo, source: 0 });
                }
            }
        }
        ops
    }
}

/// Reference fingerprints from the untimed warm-up pass, plus the edge
/// count of each source's component (the Graph500 TEPS numerator).
pub struct Reference {
    pub fingerprints: Vec<u64>,
    pub component_edges: Vec<f64>,
}

/// Marks the vertices of the largest connected component of `t` (the
/// smallest label on a tie), from the labels its CC gives. Sources are
/// drawn from it: on R-MAT a source with an edge can still sit in a
/// component of two or three vertices, and the Graph500 TEPS of that one
/// search, mostly call overhead, read a thousandth of the others and
/// pulled the harmonic mean down as far.
pub fn largest_component<T: Target + ?Sized>(t: &T, ctx: &Context) -> Vec<bool> {
    let (comp, _) = t.cc(ctx);
    let mut size = std::collections::HashMap::new();
    for &c in &comp {
        *size.entry(c).or_insert(0usize) += 1;
    }
    let giant = size
        .into_iter()
        .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c)))
        .map(|(c, _)| c);
    comp.iter().map(|&c| Some(c) == giant).collect()
}

/// Runs the warm-up pass: fills caches and pools, records each output's
/// fingerprint, and (when `g` is given) checks every output.
pub fn reference<T: Target + ?Sized>(
    t: &T,
    ctx: &Context,
    sources: &Sources,
    check: Option<&Graph<f32>>,
) -> Result<Reference, String> {
    let ops = sources.pass_ops();
    let mut fingerprints = Vec::with_capacity(ops.len());
    let mut component_edges = vec![0.0; sources.ids.len()];
    for &op in &ops {
        let (out, _) = run_op(t, ctx, op, sources);
        if let Some(g) = check {
            check_raw(g, op, sources, &out)?;
        }
        if let Output::Levels(l) = &out {
            // Undirected edges of the reached component: every edge of a
            // symmetric graph is stored once per direction.
            let directed: usize = (0..l.len() as u32)
                .filter(|&v| l[v as usize] != UNVISITED)
                .map(|v| t.degree(v))
                .sum();
            component_edges[op.source] = directed as f64 / 2.0;
        }
        fingerprints.push(out.fingerprint());
    }
    Ok(Reference {
        fingerprints,
        component_edges,
    })
}

/// Per-call samples of the timed passes.
#[derive(Default)]
pub struct LoopSamples {
    /// Call times of the untraced passes, per algorithm.
    ms: [Vec<f64>; 4],
    /// Graph500 TEPS of each untraced BFS and SSSP call, in millions.
    mteps: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    untraced_pass_ms: Vec<f64>,
    traced_pass_ms: Vec<f64>,
    pub layers: LayerAcc,
}

/// Load skew of the advances, weighted by the vertices each pushed, so
/// the large frontiers, where balance costs time, dominate the many
/// one-chunk frontiers that a single worker takes whole.
#[derive(Default)]
pub struct Skew {
    weighted: f64,
    pushed: f64,
}

impl Skew {
    pub fn add(&mut self, skew: f64, pushed: u64) {
        self.weighted += skew * pushed as f64;
        self.pushed += pushed as f64;
    }

    pub fn value(&self) -> f64 {
        ratio(self.weighted, self.pushed)
    }
}

/// What the traced passes accumulate for the per-layer metrics.
#[derive(Default)]
pub struct LayerAcc {
    passes: usize,
    work: [Vec<f64>; 4],
    iterations: [Vec<f64>; 4],
    self_ms: [Vec<f64>; 4],
    iter_us: [Vec<f64>; 4],
    push_edges: u64,
    pull_edges: u64,
    decisions: u64,
    pull_decisions: u64,
    switches: u64,
    inspected: u64,
    admitted: u64,
    dedup: u64,
    skew: Skew,
    filter_in: u64,
    filter_out: u64,
    /// Edges the traversals inspected or gathered, and the wall time of
    /// the calls that did it.
    scanned_edges: f64,
    scanned_ns: f64,
}

impl LayerAcc {
    /// Folds one traced call's records into the accumulators.
    pub fn add_call(&mut self, algo: Algo, wall_ns: u64, work: u64, recs: &[Record]) {
        let a = algo.index();
        let mut covered = 0u64;
        let mut iterations = 0usize;
        if algo == Algo::PageRank {
            for r in recs {
                if let Kind::Iter { wall_ns, .. } = r.kind {
                    covered += wall_ns;
                    iterations += 1;
                    self.iter_us[a].push(wall_ns as f64 / 1e3);
                }
            }
        } else {
            // An adaptive traversal announces each iteration with its
            // direction decision; the iteration runs until the last event
            // before the next decision.
            let starts: Vec<usize> = recs
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r.kind, Kind::Direction { .. }))
                .map(|(i, _)| i)
                .collect();
            for (k, &i) in starts.iter().enumerate() {
                let end = starts.get(k + 1).map_or(recs.len(), |&j| j) - 1;
                let span = recs[end].t_ns.saturating_sub(recs[i].t_ns);
                covered += span;
                self.iter_us[a].push(span as f64 / 1e3);
            }
            iterations = starts.len();
            let mut prev: Option<bool> = None;
            for r in recs {
                if let Kind::Direction { pull } = r.kind {
                    self.decisions += 1;
                    self.pull_decisions += u64::from(pull);
                    if prev.is_some_and(|p| p != pull) {
                        self.switches += 1;
                    }
                    prev = Some(pull);
                }
            }
        }
        let mut inspected = 0u64;
        for r in recs {
            match r.kind {
                Kind::Advance {
                    op,
                    inspected: i,
                    admitted,
                    dedup,
                    skew,
                    pushed,
                } => {
                    if is_push(op) {
                        self.push_edges += i;
                    } else {
                        self.pull_edges += i;
                    }
                    inspected += i;
                    self.inspected += i;
                    self.admitted += admitted;
                    self.dedup += dedup;
                    self.skew.add(skew, pushed);
                }
                Kind::Filter { input, output } => {
                    self.filter_in += input as u64;
                    self.filter_out += output as u64;
                }
                _ => {}
            }
        }
        self.scanned_edges += if algo == Algo::PageRank {
            work as f64
        } else {
            inspected as f64
        };
        self.scanned_ns += wall_ns as f64;
        self.iterations[a].push(iterations as f64);
        self.self_ms[a].push(wall_ns.saturating_sub(covered) as f64 / 1e6);
    }

    /// Emits the algorithm and core-operator metrics.
    pub fn emit(&self, m: &mut Metrics) {
        let passes = self.passes.max(1) as f64;
        for algo in Algo::ALL {
            let a = algo.index();
            let n = algo.name();
            m.put(format!("algos.{n}.work"), median(&self.work[a]), "count");
            m.put(
                format!("algos.{n}.work_spread"),
                relative_range(&self.work[a]),
                "ratio",
            );
            m.put(
                format!("algos.{n}.iterations"),
                median(&self.iterations[a]),
                "count",
            );
            m.put(format!("algos.{n}.self_ms"), median(&self.self_ms[a]), "ms");
            m.put(
                format!("core.enactor.{n}.iter_us_p50"),
                median(&self.iter_us[a]),
                "us",
            );
        }
        m.put("core.push.edges", self.push_edges as f64 / passes, "count");
        m.put("core.pull.edges", self.pull_edges as f64 / passes, "count");
        m.put(
            "core.direction.pull_share",
            ratio(self.pull_decisions as f64, self.decisions as f64),
            "ratio",
        );
        m.put(
            "core.direction.switches",
            self.switches as f64 / passes,
            "count",
        );
        m.put(
            "core.advance.useful_ratio",
            ratio(self.admitted as f64, self.inspected as f64),
            "ratio",
        );
        m.put(
            "core.advance.dedup_ratio",
            ratio(self.dedup as f64, self.admitted as f64),
            "ratio",
        );
        m.put("core.advance.skew", self.skew.value(), "ratio");
        m.put(
            "core.filter.drop_ratio",
            ratio(
                self.filter_in.saturating_sub(self.filter_out) as f64,
                self.filter_in as f64,
            ),
            "ratio",
        );
    }

    /// Millions of edges inspected or gathered per second of call time.
    pub fn scan_meps(&self) -> f64 {
        ratio(self.scanned_edges * 1e3, self.scanned_ns)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Checks a timed output against its reference fingerprint. A raw output
/// that differs is checked in full (a correct answer may differ in bits
/// only where the algorithm is not bit-deterministic); a compressed one
/// must match exactly.
fn accept(
    out: &Output,
    want: u64,
    op: Op,
    sources: &Sources,
    check: Option<&Graph<f32>>,
) -> Result<(), String> {
    if out.fingerprint() == want {
        return Ok(());
    }
    match check {
        Some(g) => check_raw(g, op, sources, out),
        None => Err(format!(
            "{} output differs from its first run (compressed outputs must be bit-identical)",
            op.algo.name()
        )),
    }
}

/// How long the untimed warm-up runs before the first timed pass.
const WARM_UP: Duration = Duration::from_millis(1500);

/// Runs calls untimed and unchecked for [`WARM_UP`]. On the 2-vCPU x86-64
/// VM this benchmark was tuned on, timings settled only after about a
/// second of sustained load; before that, calls ran up to 2.5 times slower.
pub fn warm_up<T: Target + ?Sized>(t: &T, ctx: &Context, sources: &Sources) {
    let start = Instant::now();
    for op in sources.pass_ops().into_iter().cycle() {
        if start.elapsed() >= WARM_UP {
            return;
        }
        std::hint::black_box(run_op(t, ctx, op, sources));
    }
}

/// What the timed passes run on and for how long.
pub struct LoopSpec<'a> {
    /// With a sink, passes alternate untraced and traced (in pairs), so the
    /// difference gives the tracing overhead; only traced passes feed the
    /// per-layer accumulators.
    pub sink: Option<&'a Arc<BenchSink>>,
    pub sources: &'a Sources,
    pub reference: &'a Reference,
    /// The raw graph that outputs differing from their reference are
    /// checked against; `None` for compressed runs.
    pub check: Option<&'a Graph<f32>>,
    pub window: Duration,
}

/// Runs timed passes, appending the samples to `out`. A pass starts only
/// if at least half of one more pass of the last one's length fits in the
/// window, so a run measures for about `spec.window`; there is at least
/// one pass (one untraced and traced pair when tracing).
pub fn timed_loop<T: Target + ?Sized>(
    t: &T,
    ctx: &Context,
    spec: &LoopSpec<'_>,
    out: &mut LoopSamples,
) {
    let sources = spec.sources;
    let ops = sources.pass_ops();
    let sink = spec.sink;
    let traced_ctx = sink.map(|s| ctx.clone().with_obs(s.clone() as Arc<dyn ObsSink>));
    let start = Instant::now();
    let mut last_pass = Duration::ZERO;
    let mut pass = 0usize;
    while pass == 0
        || start.elapsed() + last_pass / 2 <= spec.window
        || (sink.is_some() && pass % 2 == 1)
    {
        let pass_start = Instant::now();
        let traced = traced_ctx.is_some() && pass % 2 == 1;
        let run_ctx = if traced {
            traced_ctx.as_ref().expect("traced pass has a context")
        } else {
            ctx
        };
        let mut pass_ns = 0u128;
        let mut work = [0.0f64; 4];
        for (i, &op) in ops.iter().enumerate() {
            let mark = sink.map_or(0, |s| s.len());
            let t0 = Instant::now();
            let (o, w) = run_op(t, run_ctx, op, sources);
            let t1 = Instant::now();
            let dt = t1 - t0;
            pass_ns += dt.as_nanos();
            out.attempted += 1;
            if let Err(e) = accept(&o, spec.reference.fingerprints[i], op, sources, spec.check) {
                out.failed += 1;
                out.mismatches.push(e);
                continue;
            }
            let a = op.algo.index();
            if traced {
                let s = sink.expect("traced pass has a sink");
                let recs = s.since(mark);
                s.span(op.algo.name(), out.attempted, 0, t0, t1);
                out.layers.add_call(op.algo, dt.as_nanos() as u64, w, &recs);
                work[a] += w as f64;
                continue;
            }
            let ms = dt.as_secs_f64() * 1e3;
            out.ms[a].push(ms);
            if matches!(op.algo, Algo::Bfs | Algo::Sssp) {
                out.mteps[a].push(spec.reference.component_edges[op.source] / ms / 1e3);
            }
        }
        let pass_ms = pass_ns as f64 / 1e6;
        if traced {
            out.layers.passes += 1;
            for a in Algo::ALL {
                out.layers.work[a.index()].push(work[a.index()]);
            }
            out.traced_pass_ms.push(pass_ms);
        } else {
            out.untraced_pass_ms.push(pass_ms);
        }
        last_pass = pass_start.elapsed();
        pass += 1;
    }
}

impl LoopSamples {
    /// The closed-loop end-to-end metrics. Times to solution are
    /// interquartile means: on a shared 2-vCPU VM single CC and PageRank
    /// calls were bimodal (label propagation races, host bursts), and a
    /// plain median jumped between the modes from run to run.
    pub fn emit_end_to_end(&self, m: &mut Metrics) {
        let teps = |a: Algo| harmonic_mean(&self.mteps[a.index()]);
        let time = |a: Algo| interquartile_mean(&self.ms[a.index()]);
        m.put("bfs_mteps", teps(Algo::Bfs), "MTEPS");
        m.put("sssp_mteps", teps(Algo::Sssp), "MTEPS");
        m.put("cc_ms", time(Algo::Cc), "ms");
        m.put("pagerank_ms", time(Algo::PageRank), "ms");
        let answered: usize = self.ms.iter().map(Vec::len).sum();
        let busy_s: f64 = self.ms.iter().flatten().sum::<f64>() / 1e3;
        m.put("goodput_rps", ratio(answered as f64, busy_s), "1/s");
    }

    /// Traced over untraced pass time, minus one (median over pass pairs).
    pub fn trace_overhead_share(&self) -> f64 {
        let pairs: Vec<f64> = self
            .untraced_pass_ms
            .iter()
            .zip(&self.traced_pass_ms)
            .map(|(u, t)| t / u - 1.0)
            .collect();
        median(&pairs)
    }

    /// BFS calls timed: the closed loop's probes.
    pub fn probes(&self) -> usize {
        self.ms[Algo::Bfs.index()].len()
    }
}

/// Median microseconds of an empty region on the pool: the fixed cost
/// every parallel operator pays per call.
pub fn region_us_p50(pool: &ThreadPool) -> f64 {
    let mut us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        pool.run(|_| {});
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::build;
    use crate::workload::new_context;

    #[test]
    fn sources_come_from_the_largest_component() {
        // Components {0, 1, 2, 3}, {4, 5} and the isolated vertex 6.
        let mut coo = Coo::<f32>::new(7);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5)] {
            coo.push(a, b, 1.0);
        }
        let (g, _) = build(coo);
        let giant = largest_component(&g, &new_context());
        assert_eq!(giant, [true, true, true, true, false, false, false]);
    }
}
