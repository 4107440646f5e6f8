//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's graph from the seed in a child
//! process, then sets up, measures and checks in this process, and prints
//! every metric by name and unit. The last line of standard output is the
//! result object; the line before it carries the host metadata. See
//! `perfbench/README.md` for the workloads and the metrics.

mod analytics;
mod inputs;
mod report;
mod sampler;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use inputs::Workload;
use report::{json_object, result_line, END_TO_END, PER_LAYER};

/// One run's settings.
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    out_dir: PathBuf,
}

impl Settings {
    /// Writes the trace of a traced run next to the benchmark, replacing
    /// the previous trace of the same workload.
    pub fn write_trace(&self, sink: &trace::BenchSink) {
        let path = self
            .out_dir
            .join(format!("trace-{}.jsonl", self.workload.name()));
        let res = std::fs::create_dir_all(&self.out_dir).and_then(|()| sink.write_jsonl(&path));
        match res {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => eprintln!("could not write trace {}: {e}", path.display()),
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Settings, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {val:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(bad)?),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    let workload: Workload = workload.ok_or_else(|| missing("--workload"))?;
    // The largest pool of the run: the engine's on serve-mix.
    let threads = match workload {
        Workload::Serve => serve::ENGINE_THREADS,
        _ => workload::ANALYTICS_THREADS,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads > nproc {
        return Err(format!(
            "refusing {threads} pool threads on a host with {nproc} cores"
        ));
    }
    // The library lets this variable resize the engine's pool (not the
    // analytics pools): a run must use the pool sizes it stamps.
    if let Ok(v) = std::env::var("ESSENTIALS_THREADS") {
        if v.trim()
            .parse::<usize>()
            .is_ok_and(|t| t > 0 && t != threads)
        {
            return Err(format!(
                "refusing ESSENTIALS_THREADS={v}: {} runs {threads} pool threads",
                workload.name()
            ));
        }
    }
    Ok(Settings {
        workload,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        out_dir: bench_dir().join("out"),
    })
}

/// The benchmark's own directory in the checkout it was built from.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The checked-out commit when the checkout has git metadata, read from
/// the files directly; "none" otherwise.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "none".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a over the library sources and lock file, in path order: it
/// names the measured code even where the checkout has no git metadata.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock"), root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

fn run(argv: &[String]) -> Result<bool, String> {
    let s = parse(argv)?;
    let root = bench_dir().join("..");
    let work = bench_dir().join("work").join(format!(
        "{}-{}-{}",
        s.workload.name(),
        s.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locate self: {e}"))?;
    let generated = Command::new(exe)
        .arg("gen")
        .arg(s.workload.name())
        .arg(&work)
        .status()
        .map_err(|e| format!("start generator: {e}"));
    let outcome = match generated {
        Ok(st) if st.success() => match s.workload {
            Workload::Serve => serve::run(&s, &work),
            _ => workload::run(&s, &work),
        },
        Ok(st) => Err(format!("generator failed: {st}")),
        Err(e) => Err(e),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut out = outcome?;

    let failed_share = analytics::ratio(out.failed as f64, out.attempted as f64);
    out.metrics.put("bench.failed_share", failed_share, "ratio");
    let metrics = out
        .metrics
        .select(if s.trace { &PER_LAYER } else { &END_TO_END });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine_threads = match s.workload {
        Workload::Serve => serve::ENGINE_THREADS.to_string(),
        _ => "none".to_string(),
    };
    let host = json_object(&[
        ("workload", s.workload.name().into()),
        ("input", s.workload.input_label().into()),
        ("seed", s.seed.to_string()),
        ("seconds", s.seconds.to_string()),
        ("trace", u8::from(s.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("pool_threads", workload::ANALYTICS_THREADS.to_string()),
        ("engine_threads", engine_threads),
        ("commit", commit(&root)),
        ("source_fingerprint", source_fingerprint(&root)),
        ("rustc", rustc_version()),
        ("probe_samples", out.probes.to_string()),
    ]);
    for (name, value, unit) in metrics.iter() {
        eprintln!("{name:<36} {value:>16.6} {unit}");
    }
    for e in &out.mismatches {
        eprintln!("MISMATCH: {e}");
    }
    let correct = out.mismatches.is_empty();
    println!("{{\"host\": {host}}}");
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gen") {
        return inputs::gen_main(&argv[1..]);
    }
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: an output failed its check");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
