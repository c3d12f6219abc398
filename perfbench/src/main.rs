//! The repository benchmark. Drives the public entry points of each
//! module from outside on one workload and prints its metrics: named
//! lines, then one JSON result line whose metric set `BENCHMARK.json`
//! defines. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload fig17-exec|fig17-compile|serve-synth --seed N
//!           --seconds S --trace 0|1 --root DIR --oic PATH --out DIR
//! ```

mod fig17;
mod hostref;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use oi_support::Json;
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Repository root: `BENCHMARK.json` and `BENCH_baseline.json`.
    pub root: PathBuf,
    /// The `oic` binary `serve-synth` spawns.
    pub oic: PathBuf,
    /// Scratch directory for store directories and the span dump.
    pub out: PathBuf,
    /// `VmConfig::test_spin_per_instr` for the benchmark's own VM runs
    /// and firewall probes: a deliberate slowdown that only the
    /// sensitivity self-test sets. 0 in every measured run.
    pub spin: u64,
    /// Size of the Fig-17 programs: `Default` in every measured run,
    /// `Small` in the self-test.
    pub size: oi_benchmarks::BenchSize,
}

const WORKLOADS: [&str; 3] = ["fig17-exec", "fig17-compile", "serve-synth"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
        oic: PathBuf::from("oic"),
        out: PathBuf::from("."),
        spin: 0,
        size: oi_benchmarks::BenchSize::Default,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(value)?,
            "--seconds" => args.seconds = num(value)? as f64,
            "--trace" => args.trace = num(value)? == 1,
            "--root" => args.root = PathBuf::from(value),
            "--oic" => args.oic = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

/// Peak resident set (`VmHWM`) of this process or of `pid`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec_path = args.root.join("BENCHMARK.json");
    let spec = match std::fs::read_to_string(&spec_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec_path.display());
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let mut tracer = trace::Tracer::new(args.trace);
    let mut report = report::Report::default();
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "fig17-exec" => fig17::exec(&args, &mut report, &mut tracer),
        "fig17-compile" => fig17::compile(&args, &mut report, &mut tracer),
        _ => serve::run(&args, &mut report, &mut tracer),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    if args.trace {
        println!("self time by span (ms, summed):");
        for (name, ms) in tracer.self_times_ms() {
            println!("  self.{name:<28} {ms:>14.3}");
        }
        let dump = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::write(&dump, tracer.to_jsonl()) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                dump.display()
            ),
            Err(e) => eprintln!("perfbench: {}: {e}", dump.display()),
        }
    }
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    println!("{}", report.finish(&spec, section));
}
