//! Workload inputs: which graph each workload uses, how it is generated
//! into files before the measured process starts, and how the measured
//! process reads it back through the library's public readers.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use essentials_core::prelude::*;
use essentials_gen as gen;
use essentials_io::{read_matrix_market, write_compressed_binary, write_matrix_market};

/// Matrix Market edge list every workload reads.
pub const MM_FILE: &str = "graph.mtx";
/// ESNC compressed container (the `ccsr-analytics` workload only).
pub const ESNC_FILE: &str = "graph.esnc";
/// Weight range of the endpoint-hashed edge weights.
const WEIGHTS: (f32, f32) = (0.1, 2.0);
/// Generator seed of every workload's graph. The graph is a fixed input of
/// the workload; the run seed draws the sources and the request schedule.
/// (Drawing the R-MAT graph itself from the run seed moved adaptive SSSP
/// and PageRank medians by up to 40% between seeds, since graphs fall into
/// faster or slower direction-switching behaviour: wider than any bound.)
pub const GRAPH_SEED: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Rmat,
    Grid,
    Ccsr,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Rmat,
        Workload::Grid,
        Workload::Ccsr,
        Workload::Serve,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Rmat => "rmat-analytics",
            Workload::Grid => "grid-analytics",
            Workload::Ccsr => "ccsr-analytics",
            Workload::Serve => "serve-mix",
        }
    }

    /// The generator and its size, stamped on every result.
    pub fn input_label(self) -> &'static str {
        match self {
            Workload::Rmat | Workload::Ccsr => "rmat scale 17 edge factor 16",
            Workload::Grid => "grid 256x256",
            Workload::Serve => "rmat scale 12 edge factor 16",
        }
    }
}

/// Writes the workload's input files into `dir`. Runs in its own process
/// so that generation time and memory stay out of every measurement.
pub fn generate(w: Workload, dir: &Path) -> Result<(), String> {
    let coo = match w {
        Workload::Rmat | Workload::Ccsr => {
            gen::rmat(17, 16, gen::RmatParams::default(), GRAPH_SEED)
        }
        Workload::Grid => gen::grid2d(256, 256),
        Workload::Serve => gen::rmat(12, 16, gen::RmatParams::default(), GRAPH_SEED),
    };
    let weighted = gen::hash_weights(&coo, WEIGHTS.0, WEIGHTS.1, GRAPH_SEED);
    drop(coo);
    write_synced(&dir.join(MM_FILE), |out| {
        write_matrix_market(&mut *out, &weighted)
    })?;
    if w == Workload::Ccsr {
        let (g, _) = build(weighted);
        let pool = ThreadPool::new(1);
        let bytes = write_compressed_binary(&CompressedGraph::from_graph(&pool, &g));
        write_synced(&dir.join(ESNC_FILE), |out| out.write_all(&bytes))?;
    }
    Ok(())
}

/// Writes a file and waits until it is on disk, so that its write-back
/// does not land in the measured process's window.
fn write_synced(
    path: &Path,
    body: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut out = BufWriter::with_capacity(1 << 20, File::create(path).map_err(fail)?);
    body(&mut out).map_err(fail)?;
    out.into_inner()
        .map_err(|e| fail(e.into_error()))?
        .sync_all()
        .map_err(fail)
}

/// Entry point of the generator process: `gen <workload> <dir>`.
pub fn gen_main(args: &[String]) -> ExitCode {
    let parsed = match args {
        [w, dir] => Workload::parse(w).map(|w| (w, Path::new(dir))),
        _ => None,
    };
    let Some((w, dir)) = parsed else {
        eprintln!("usage: perfbench gen <workload> <dir>");
        return ExitCode::from(2);
    };
    match generate(w, dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench gen: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the Matrix Market file; returns the edge list and the seconds
/// the reader took.
pub fn read_mm(dir: &Path) -> Result<(Coo<f32>, f64), String> {
    let path = dir.join(MM_FILE);
    let t = Instant::now();
    let file = File::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let (coo, _) = read_matrix_market(BufReader::with_capacity(1 << 20, file))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok((coo, t.elapsed().as_secs_f64()))
}

/// Symmetrizes, deduplicates and compiles CSR plus CSC; returns the graph
/// and the seconds the build took.
pub fn build(coo: Coo<f32>) -> (Graph<f32>, f64) {
    let t = Instant::now();
    let g = GraphBuilder::from_coo(coo)
        .symmetrize()
        .deduplicate()
        .with_csc()
        .build();
    (g, t.elapsed().as_secs_f64())
}

/// Topology bytes per directed edge of a raw graph: CSR and CSC offsets
/// and column indices, weights excluded.
pub fn raw_topology_bytes_per_edge(g: &Graph<f32>) -> f64 {
    let side = |c: &Csr<f32>| {
        std::mem::size_of_val(c.row_offsets()) + std::mem::size_of_val(c.column_indices())
    };
    let bytes = side(g.csr()) + g.csc().map_or(0, side);
    bytes as f64 / g.get_num_edges().max(1) as f64
}
