//! The two Fig-17 workloads: repeated execution of prebuilt baseline and
//! inlined builds (`fig17-exec`), and cold source-to-artifact guarded
//! compiles (`fig17-compile`), both closed loops on one thread over the
//! five programs at `BenchSize::Default`.

use crate::hostref::{nominal_s, Paced, Timed};
use crate::layers::{self, request_id, Facts};
use crate::report::Report;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Args};
use oi_benchmarks::{all_benchmarks, BenchSize, Benchmark};
use oi_core::ladder::LadderConfig;
use oi_ir::program::Program;
use oi_support::rng::XorShift64;
use oi_support::Json;
use oi_vm::{Metrics, VmConfig};
use std::path::Path;
use std::time::Instant;

/// Set-up is repeated this many times before timing, and once more after
/// every round of the closed loop; `setup_s` is the median, so it samples
/// the host over the whole run and not only over its first second.
pub const SETUP_REPEATS: usize = 9;

const BUILDS: [&str; 2] = ["baseline", "inlined"];

/// Deterministic counters a build's run must reproduce exactly:
/// instructions, cycles and allocations.
type Counters = [u64; 3];

fn counters(m: &Metrics) -> Counters {
    [m.instructions, m.cycles, m.allocations]
}

/// Reads the counters of both builds of every program from the snapshot
/// recorded at `size` (`BENCH_baseline.json`, or `BENCH_baseline_small.json`
/// for `BenchSize::Small`).
fn load_expected(
    root: &Path,
    size: BenchSize,
    names: &[&str],
) -> Result<Vec<[Counters; 2]>, String> {
    let file = if size == BenchSize::Small {
        "BENCH_baseline_small.json"
    } else {
        "BENCH_baseline.json"
    };
    let path = root.join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("snapshot has no benchmarks")?;
    names
        .iter()
        .map(|name| {
            let row = rows
                .iter()
                .find(|r| r.get("benchmark").and_then(Json::as_str) == Some(name))
                .ok_or_else(|| format!("snapshot has no row for {name}"))?;
            let read = |build: &str| -> Result<Counters, String> {
                let m = row
                    .get(build)
                    .ok_or_else(|| format!("{name}: no {build} metrics"))?;
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_i64)
                        .map(|v| v as u64)
                        .ok_or(format!("{name}.{build}.{k}"))
                };
                Ok([
                    field("instructions")?,
                    field("cycles")?,
                    field("allocations")?,
                ])
            };
            Ok([read("baseline")?, read("inlined")?])
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut XorShift64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The program under `BenchSize::Default` for `name` with both builds.
struct Built {
    name: &'static str,
    builds: [Program; 2],
}

/// Set-up of `fig17-exec`: generates the sources and compiles the
/// baseline and the (unguarded) inlined build of each program.
fn build_suite(
    size: BenchSize,
    tracer: &mut Tracer,
    facts: &mut Vec<Facts>,
) -> Result<Vec<Built>, String> {
    let config = LadderConfig::default();
    facts.clear();
    all_benchmarks(size)
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let req = request_id(0, i);
            let program = tracer.span("lower", req, |_| layers::lower(&b.source))?;
            if tracer.enabled() {
                let a = tracer.span("analysis", req, |_| {
                    oi_analysis::analyze(&program, &config.inline.analysis)
                });
                facts.push(Facts {
                    mcontours: a.method_contour_count(),
                    ocontours: a.object_contour_count(),
                    ..Facts::default()
                });
            }
            let base = tracer.span("pipeline.baseline", req, |_| {
                oi_core::pipeline::baseline(&program, &config.inline.opt)
            });
            let opt = tracer
                .span("pipeline.transform", req, |_| {
                    oi_core::pipeline::try_optimize(&program, &config.inline)
                })
                .map_err(|e| format!("{}: {e}", b.name))?;
            if let Some(f) = facts.last_mut() {
                f.passes = opt.passes;
                f.ir_size_after = oi_ir::size::measure(&opt.program).code_bytes;
                f.auto_inlined = opt.report.fields_inlined + opt.report.array_sites_inlined;
            }
            Ok(Built {
                name: b.name,
                builds: [base, opt.program],
            })
        })
        .collect()
}

/// Output of the hand-inlined variant, the reference every run must print.
fn manual_outputs(size: BenchSize) -> Result<Vec<String>, String> {
    all_benchmarks(size)
        .iter()
        .map(|b| {
            let p = layers::lower(&b.manual_source)?;
            let p = oi_core::pipeline::baseline(&p, &Default::default());
            oi_vm::run(&p, &VmConfig::default())
                .map(|r| r.output)
                .map_err(|e| format!("{} manual: {e}", b.name))
        })
        .collect()
}

/// Per-program rows of host-wall against modeled speedup, and the
/// `vm.*` per-layer metrics when `layer` is set.
fn speedup_rows(
    r: &mut Report,
    names: &[&str],
    medians: &[[f64; 2]],
    cycles: &[[u64; 2]],
    layer: bool,
) {
    let wall: Vec<f64> = medians.iter().map(|m| m[0] / m[1]).collect();
    let modeled: Vec<f64> = cycles.iter().map(|c| c[0] as f64 / c[1] as f64).collect();
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>10}",
        "program", "baseline_ms", "inlined_ms", "wall_x", "modeled_x"
    );
    for (i, name) in names.iter().enumerate() {
        let m = medians[i];
        println!(
            "{name:<16} {:>12.3} {:>12.3} {:>10.3} {:>10.3}",
            m[0], m[1], wall[i], modeled[i]
        );
    }
    if !layer {
        return;
    }
    for (i, name) in names.iter().enumerate() {
        r.put(
            &format!("vm.run_baseline_ms.{name}"),
            medians[i][0],
            "ms",
            None,
        );
        r.put(
            &format!("vm.run_inlined_ms.{name}"),
            medians[i][1],
            "ms",
            None,
        );
        r.put(&format!("vm.exec_speedup.{name}"), wall[i], "x", None);
        r.put(&format!("vm.modeled_speedup.{name}"), modeled[i], "x", None);
    }
    let col = |b: usize| medians.iter().map(|m| m[b]).collect::<Vec<_>>();
    let n = Some(names.len());
    r.put_opt("vm.run_baseline_ms", geomean(&col(0)), "ms", n, "no runs");
    r.put_opt("vm.run_inlined_ms", geomean(&col(1)), "ms", n, "no runs");
    r.put_opt("vm.exec_speedup", geomean(&wall), "x", n, "no runs");
    r.put_opt("vm.modeled_speedup", geomean(&modeled), "x", n, "no runs");
}

/// `fig17-exec`: repeated `oi_vm::run` of both builds of every program, in
/// a seeded order per round. Every run's output must equal the manual
/// variant's and its counters the snapshot's.
pub fn exec(args: &Args, r: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let traced = tracer.enabled();
    let mut paced = Paced::new();
    let mut setups = Vec::new();
    let mut facts = Vec::new();
    let mut suite = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, timed) = paced.time(|| build_suite(args.size, tracer, &mut facts));
        suite = built?;
        setups.push(timed);
    }
    let names: Vec<&str> = suite.iter().map(|b| b.name).collect();
    let expected = load_expected(&args.root, args.size, &names)?;
    let reference = manual_outputs(args.size)?;
    let vm = VmConfig {
        test_spin_per_instr: args.spin,
        ..VmConfig::default()
    };

    // samples[program][build] = (time, traced)
    let mut samples: Vec<[Vec<(Timed, bool)>; 2]> = vec![Default::default(); suite.len()];
    let mut cycles = vec![[0u64; 2]; suite.len()];
    let mut instructions = vec![[0u64; 2]; suite.len()];
    let mut rng = XorShift64::new(args.seed);
    let mut order: Vec<(usize, usize)> = (0..suite.len()).flat_map(|p| [(p, 0), (p, 1)]).collect();
    let start = Instant::now();
    let mut seq = 0u64;
    let mut round = 0;
    paced.resync();
    while round < 2 || start.elapsed().as_secs_f64() < args.seconds {
        shuffle(&mut order, &mut rng);
        // Traced runs alternate traced and untraced rounds to measure the
        // tracing overhead on the same operations.
        tracer.set_enabled(traced && round % 2 == 0);
        for &(p, b) in &order {
            seq += 1;
            r.attempted += 1;
            let span = if b == 0 {
                "vm.run_baseline"
            } else {
                "vm.run_inlined"
            };
            let (out, timed) = paced.time(|| {
                tracer.span(span, request_id(seq, p), |_| {
                    oi_vm::run(&suite[p].builds[b], &vm)
                })
            });
            samples[p][b].push((timed, tracer.enabled()));
            match out {
                Ok(run) if run.output != reference[p] => r.fail(&format!(
                    "{} {}: output differs from the manual variant",
                    names[p], BUILDS[b]
                )),
                Ok(run) if counters(&run.metrics) != expected[p][b] => r.fail(&format!(
                    "{} {}: counters {:?} != snapshot {:?}",
                    names[p],
                    BUILDS[b],
                    counters(&run.metrics),
                    expected[p][b]
                )),
                Ok(run) => {
                    cycles[p][b] = run.metrics.cycles;
                    instructions[p][b] = run.metrics.instructions;
                }
                Err(e) => r.fail(&format!("{} {}: {e}", names[p], BUILDS[b])),
            }
        }
        round += 1;
        if !traced {
            let (built, timed) = paced.time(|| build_suite(args.size, tracer, &mut Vec::new()));
            built?;
            setups.push(timed);
        }
    }
    tracer.set_enabled(traced);

    let med = |p: usize, b: usize, want: Option<bool>| {
        let xs: Vec<f64> = samples[p][b]
            .iter()
            .filter(|s| want.is_none_or(|w| s.1 == w))
            .map(|s| s.0.ms)
            .collect();
        median(&xs).unwrap_or(f64::NAN)
    };
    let medians: Vec<[f64; 2]> = (0..suite.len())
        .map(|p| [med(p, 0, None), med(p, 1, None)])
        .collect();
    let n = samples.iter().map(|s| s[0].len()).min().unwrap_or(0);
    if !traced {
        let col = |b: usize| medians.iter().map(|m| m[b]).collect::<Vec<_>>();
        report_setup(r, &setups);
        r.put_opt(
            "exec_baseline_ms",
            geomean(&col(0)),
            "ms",
            Some(n),
            "no runs",
        );
        r.put_opt(
            "exec_inlined_ms",
            geomean(&col(1)),
            "ms",
            Some(n),
            "no runs",
        );
        let classes: Vec<&[(Timed, bool)]> = samples.iter().flatten().map(Vec::as_slice).collect();
        report_op_time(r, &classes);
        speedup_rows(r, &names, &medians, &cycles, false);
        r.put("peak_rss_mb", peak_rss_mb(None)?, "MB", None);
        return Ok(());
    }
    speedup_rows(r, &names, &medians, &cycles, true);
    let per_instr: Vec<f64> = (0..suite.len())
        .flat_map(|p| [0, 1].map(|b| medians[p][b] * 1e6 / instructions[p][b].max(1) as f64))
        .collect();
    r.put_opt(
        "vm.ns_per_instr",
        geomean(&per_instr),
        "ns",
        Some(per_instr.len()),
        "no runs",
    );
    layers::report_compile_layers(r, tracer, &facts, None);
    let ratios: Vec<f64> = (0..suite.len())
        .flat_map(|p| [0, 1].map(|b| med(p, b, Some(true)) / med(p, b, Some(false))))
        .collect();
    report_overhead(r, &ratios);
    Ok(())
}

/// `setup_s`: the median set-up time in reference units, read as seconds
/// at the nominal reference speed, next to the median wall time.
pub fn report_setup(r: &mut Report, setups: &[Timed]) {
    let wall: Vec<f64> = setups.iter().map(|t| t.ms / 1e3).collect();
    let refs: Vec<f64> = setups.iter().map(Timed::refs).collect();
    let n = Some(setups.len());
    r.put_opt("setup_wall_s", median(&wall), "s", n, "no set-up");
    r.put_opt("setup_s", median(&refs).map(nominal_s), "s", n, "no set-up");
}

/// `op_time_ref`: the geomean over operation classes of each class's
/// median time in reference units, and the reference loop's own median.
pub fn report_op_time(r: &mut Report, classes: &[&[(Timed, bool)]]) {
    let per_class: Vec<f64> = classes
        .iter()
        .filter_map(|c| median(&c.iter().map(|s| s.0.refs()).collect::<Vec<_>>()))
        .collect();
    let refs: Vec<f64> = classes
        .iter()
        .flat_map(|c| c.iter().map(|s| s.0.ref_ms))
        .collect();
    let n = classes.iter().map(|c| c.len()).min().unwrap_or(0);
    r.put_opt(
        "host.ref_ms",
        median(&refs),
        "ms",
        Some(refs.len()),
        "no runs",
    );
    r.put_opt(
        "op_time_ref",
        geomean(&per_class).filter(|_| per_class.len() == classes.len()),
        "ref",
        Some(n),
        "no operations",
    );
}

/// Tracing overhead: traced over untraced median time of the same
/// operations, as a percentage.
pub fn report_overhead(r: &mut Report, ratios: &[f64]) {
    let g = geomean(ratios).map(|g| (g - 1.0) * 100.0);
    r.put_opt(
        "trace.overhead_pct",
        g,
        "%",
        Some(ratios.len()),
        "no untraced operations to compare with",
    );
}

/// Set-up of `fig17-compile`: generates the sources, then runs one guarded
/// compile of the smallest program, so lazy allocator and page set-up
/// finish before timing.
fn compile_setup(size: BenchSize, config: &LadderConfig) -> Result<Vec<Benchmark>, String> {
    let benches = all_benchmarks(size);
    let smallest = benches
        .iter()
        .min_by_key(|b| b.source.len())
        .ok_or("empty suite")?;
    layers::guarded_compile(&smallest.source, config, &mut Tracer::new(false), 0)?;
    Ok(benches)
}

/// `fig17-compile`: cold guarded compiles of every program per round, in
/// a seeded order. Every compile must land on `guarded-full` with the
/// ground-truth count of inlined fields and array sites.
pub fn compile(args: &Args, r: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let traced = tracer.enabled();
    let mut config = LadderConfig::default();
    config.firewall.vm.test_spin_per_instr = args.spin;
    let mut paced = Paced::new();
    let mut setups = Vec::new();
    let mut benches = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, timed) = paced.time(|| compile_setup(args.size, &config));
        benches = built?;
        setups.push(timed);
    }
    let names: Vec<&str> = benches.iter().map(|b| b.name).collect();

    let mut samples: Vec<Vec<(Timed, bool)>> = vec![Vec::new(); benches.len()];
    let mut facts: Vec<Facts> = vec![Facts::default(); benches.len()];
    let mut tally = layers::Tally::default();
    let mut rng = XorShift64::new(args.seed);
    let mut order: Vec<usize> = (0..benches.len()).collect();
    let start = Instant::now();
    let mut seq = 0u64;
    let mut round = 0;
    paced.resync();
    // A traced run needs two traced and two untraced whole compiles per
    // program: the ladder's spans come from the first, the overhead from
    // comparing both.
    let min_rounds = if traced { 4 } else { 2 };
    while round < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        shuffle(&mut order, &mut rng);
        for &p in &order {
            seq += 1;
            let req = request_id(seq, p);
            let b = &benches[p];
            if traced {
                tracer.set_enabled(true);
                match layers::parts(&b.source, &config, tracer, req) {
                    Ok(f) => facts[p] = f,
                    Err(e) => r.fail(&format!("{} parts: {e}", b.name)),
                }
                tracer.set_enabled(round % 2 == 0);
                paced.resync();
            }
            r.attempted += 1;
            let (outcome, timed) = paced.time(|| {
                tracer.span("compile", req, |t| {
                    layers::guarded_compile(&b.source, &config, t, req)
                })
            });
            samples[p].push((timed, tracer.enabled()));
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    r.fail(&format!("{}: {e}", b.name));
                    continue;
                }
            };
            let report = &outcome.optimized.report;
            let auto = report.fields_inlined + report.array_sites_inlined;
            if let Err(e) = tally.add(&outcome) {
                r.fail(&format!("{}: {e}", b.name));
            } else if auto != b.ground_truth.expected_auto {
                r.fail(&format!(
                    "{}: inlined {auto}, ground truth {}",
                    b.name, b.ground_truth.expected_auto
                ));
            }
        }
        round += 1;
        if !traced {
            let (built, timed) = paced.time(|| compile_setup(args.size, &config));
            built?;
            setups.push(timed);
        }
    }
    tracer.set_enabled(traced);

    let med = |p: usize, want: Option<bool>| {
        let xs: Vec<f64> = samples[p]
            .iter()
            .filter(|s| want.is_none_or(|w| s.1 == w))
            .map(|s| s.0.ms)
            .collect();
        median(&xs).unwrap_or(f64::NAN)
    };
    let medians: Vec<f64> = (0..benches.len()).map(|p| med(p, None)).collect();
    let n = samples.iter().map(Vec::len).min().unwrap_or(0);
    if !traced {
        report_setup(r, &setups);
        r.put_opt(
            "compile_guarded_ms",
            geomean(&medians),
            "ms",
            Some(n),
            "no compiles",
        );
        for (name, m) in names.iter().zip(&medians) {
            println!("  compile_guarded_ms.{name:<16} {m:>12.3} ms (n={n})");
        }
        let classes: Vec<&[(Timed, bool)]> = samples.iter().map(Vec::as_slice).collect();
        report_op_time(r, &classes);
        r.put("peak_rss_mb", peak_rss_mb(None)?, "MB", None);
        return Ok(());
    }
    layers::report_compile_layers(r, tracer, &facts, Some(&tally));
    let base = layers::medians_by_program(tracer, "firewall.probe_baseline");
    let inl = layers::medians_by_program(tracer, "vm.run_inlined");
    let pairs: Vec<[f64; 2]> = base.iter().zip(&inl).map(|(b, i)| [b.1, i.1]).collect();
    let cycles: Vec<[u64; 2]> = facts.iter().map(|f| f.cycles).collect();
    speedup_rows(r, &names, &pairs, &cycles, true);
    let per_instr: Vec<f64> = pairs
        .iter()
        .zip(&facts)
        .map(|(m, f)| m[1] * 1e6 / f.instructions_inlined.max(1) as f64)
        .collect();
    r.put_opt(
        "vm.ns_per_instr",
        geomean(&per_instr),
        "ns",
        Some(per_instr.len()),
        "no runs",
    );
    let ratios: Vec<f64> = (0..benches.len())
        .map(|p| med(p, Some(true)) / med(p, Some(false)))
        .collect();
    report_overhead(r, &ratios);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Busy-spin iterations per VM instruction: slows every run several
    /// times over without touching the compile layers.
    const SPIN: u64 = 200;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn measure(workload: &str, spin: u64, traced: bool) -> Report {
        let args = Args {
            workload: workload.to_owned(),
            seed: 1,
            seconds: 2.0,
            trace: traced,
            root: root(),
            oic: PathBuf::new(),
            out: PathBuf::new(),
            spin,
            size: BenchSize::Small,
        };
        let mut r = Report::default();
        let mut tracer = Tracer::new(traced);
        let run = if workload == "fig17-exec" {
            exec
        } else {
            compile
        };
        run(&args, &mut r, &mut tracer).unwrap();
        assert_eq!(r.failed, 0, "{workload}: checks failed");
        r
    }

    fn bound(name: &str) -> f64 {
        let spec =
            Json::parse(&std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap()).unwrap();
        let metrics = spec.get("end_to_end").and_then(Json::as_arr).unwrap();
        let m = metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .unwrap();
        m.get("bound").and_then(Json::as_f64).unwrap()
    }

    #[test]
    fn vm_slowdown_moves_exec_and_compile_not_compile_layers() {
        let bound = bound("op_time_ref");
        for workload in ["fig17-exec", "fig17-compile"] {
            let fast = measure(workload, 0, false).get("op_time_ref").unwrap();
            let slow = measure(workload, SPIN, false).get("op_time_ref").unwrap();
            assert!(
                slow / fast > 1.0 + bound,
                "{workload}: op_time_ref {fast} -> {slow} within the {bound} bound"
            );
        }
        // Compile layers take milliseconds, so one run is at the mercy of
        // the machine; alternate three runs of each side and compare
        // per-metric medians.
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            fast.push(measure("fig17-compile", 0, true));
            slow.push(measure("fig17-compile", SPIN, true));
        }
        let mid = |rs: &[Report], m: &str| {
            median(&rs.iter().map(|r| r.get(m).unwrap()).collect::<Vec<_>>()).unwrap()
        };
        for layer in ["lower.ms", "analysis.ms", "pipeline.transform_ms"] {
            let (f, s) = (mid(&fast, layer), mid(&slow, layer));
            assert!(
                (s / f - 1.0).abs() < bound,
                "{layer}: {f} -> {s} moved past the {bound} bound"
            );
        }
    }

    #[test]
    fn snapshot_counters_load_for_every_program() {
        let names = [
            "oopack",
            "richards",
            "silo",
            "polyover-array",
            "polyover-list",
        ];
        for size in [BenchSize::Small, BenchSize::Default] {
            let rows = load_expected(&root(), size, &names).unwrap();
            assert!(rows
                .iter()
                .all(|r| r.iter().all(|c| c.iter().all(|&x| x > 0))));
        }
    }
}
