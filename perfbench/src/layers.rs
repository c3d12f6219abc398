//! A guarded compile taken apart from outside: each stage of what
//! `optimize_with_ladder` does is called on its own through the public
//! entry points, inside a span named after its layer, and the whole ladder
//! is timed next to it so its remainder can be attributed to the firewall.

use crate::report::Report;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use oi_core::firewall::FirewallConfig;
use oi_core::ladder::{optimize_with_ladder, LadderConfig, LadderOutcome, Tier};
use oi_ir::program::Program;
use oi_support::Budget;
use oi_vm::{CheckLevel, VmConfig};

/// Request ids carry the program index in their low byte, so spans of
/// every operation on one program can be grouped.
pub fn request_id(seq: u64, program: usize) -> u64 {
    (seq << 8) | program as u64
}

pub fn program_of(request: u64) -> usize {
    (request & 0xff) as usize
}

/// Deterministic per-program facts gathered by [`parts`].
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pub mcontours: usize,
    pub ocontours: usize,
    pub passes: usize,
    pub ir_size_after: usize,
    pub auto_inlined: usize,
    pub instructions_inlined: u64,
    /// Modeled cycles of the baseline and the inlined run.
    pub cycles: [u64; 2],
}

/// Source-to-IR through the front end and lowering.
pub fn lower(source: &str) -> Result<Program, String> {
    oi_ir::lower::compile(source).map_err(|e| e.render(source))
}

/// One source-to-artifact guarded compile: `lower::compile` then the
/// default ladder.
pub fn guarded_compile(
    source: &str,
    config: &LadderConfig,
    tracer: &mut Tracer,
    req: u64,
) -> Result<LadderOutcome, String> {
    let program = tracer.span("compile.lower", req, |_| lower(source))?;
    Ok(tracer.span("ladder", req, |_| {
        optimize_with_ladder(&program, config, &Budget::unlimited())
    }))
}

/// Ladder outcomes of a run's guarded compiles.
#[derive(Default)]
pub struct Tally {
    compiles: usize,
    retractions: usize,
    descents: usize,
    guarded_full: usize,
}

impl Tally {
    /// Counts `outcome`; an error unless it landed on the top tier.
    pub fn add(&mut self, outcome: &LadderOutcome) -> Result<(), String> {
        self.compiles += 1;
        self.retractions += outcome.optimized.report.retractions;
        self.descents += outcome.descents.len();
        if outcome.tier != Tier::GuardedFull
            || outcome.identity_fallback
            || !outcome.descents.is_empty()
        {
            return Err(format!(
                "landed on {} after {} descents",
                outcome.tier_name(),
                outcome.descents.len()
            ));
        }
        self.guarded_full += 1;
        Ok(())
    }
}

/// Calls each part of a guarded compile on its own, every call inside a
/// span under one `parts` span: `lower`, `analysis`, `pipeline.baseline`,
/// `pipeline.transform` (one `try_optimize`), the unchecked baseline probe,
/// the checked inlined probe, and an unchecked inlined run.
pub fn parts(
    source: &str,
    config: &LadderConfig,
    tracer: &mut Tracer,
    req: u64,
) -> Result<Facts, String> {
    tracer.span("parts", req, |t| {
        let program = t.span("lower", req, |_| lower(source))?;
        let analysis = t.span("analysis", req, |_| {
            oi_analysis::analyze(&program, &config.inline.analysis)
        });
        let base = t.span("pipeline.baseline", req, |_| {
            oi_core::pipeline::baseline(&program, &config.inline.opt)
        });
        let opt = t
            .span("pipeline.transform", req, |_| {
                oi_core::pipeline::try_optimize(&program, &config.inline)
            })
            .map_err(|e| e.to_string())?;
        let fw: &FirewallConfig = &config.firewall;
        let checked = VmConfig {
            checked: fw.checked,
            ..fw.vm
        };
        let unchecked = VmConfig {
            checked: CheckLevel::Off,
            ..fw.vm
        };
        let probe = t
            .span("firewall.probe_baseline", req, |_| {
                oi_vm::run(&base, &fw.vm)
            })
            .map_err(|e| e.to_string())?;
        t.span("firewall.probe_checked", req, |_| {
            oi_vm::run(&opt.program, &checked)
        })
        .map_err(|e| e.to_string())?;
        let run = t
            .span("vm.run_inlined", req, |_| {
                oi_vm::run(&opt.program, &unchecked)
            })
            .map_err(|e| e.to_string())?;
        Ok(Facts {
            mcontours: analysis.method_contour_count(),
            ocontours: analysis.object_contour_count(),
            passes: opt.passes,
            ir_size_after: oi_ir::size::measure(&opt.program).code_bytes,
            auto_inlined: opt.report.fields_inlined + opt.report.array_sites_inlined,
            instructions_inlined: run.metrics.instructions,
            cycles: [probe.metrics.cycles, run.metrics.cycles],
        })
    })
}

/// Per-program median of the spans called `name`.
pub fn medians_by_program(tracer: &Tracer, name: &str) -> Vec<(usize, f64)> {
    let mut by: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for (req, ds) in tracer.durations_by_request(name) {
        by.entry(program_of(req)).or_default().extend(ds);
    }
    by.into_iter()
        .filter_map(|(p, ds)| median(&ds).map(|m| (p, m)))
        .collect()
}

/// Sum over programs of each program's median span time: the time one
/// pass over the workload's programs spends in the layer.
pub fn suite_ms(tracer: &Tracer, name: &str) -> Option<f64> {
    let m = medians_by_program(tracer, name);
    (!m.is_empty()).then(|| m.iter().map(|x| x.1).sum())
}

/// Reports the compile-side layers from `parts` and `ladder` spans, with
/// `facts` summed over the programs they describe. `ladder` is `None`
/// for a workload that runs no firewall or ladder.
pub fn report_compile_layers(
    r: &mut Report,
    tracer: &Tracer,
    facts: &[Facts],
    ladder: Option<&Tally>,
) {
    let n = Some(facts.len());
    for (metric, span) in [
        ("lower.ms", "lower"),
        ("analysis.ms", "analysis"),
        ("pipeline.baseline_ms", "pipeline.baseline"),
        ("pipeline.transform_ms", "pipeline.transform"),
    ] {
        r.put_opt(metric, suite_ms(tracer, span), "ms", n, "no spans recorded");
    }
    let sum = |f: fn(&Facts) -> usize| facts.iter().map(f).sum::<usize>() as f64;
    r.put("analysis.mcontours", sum(|f| f.mcontours), "count", n);
    r.put("analysis.ocontours", sum(|f| f.ocontours), "count", n);
    r.put("pipeline.passes", sum(|f| f.passes), "count", n);
    r.put(
        "pipeline.ir_size_after",
        sum(|f| f.ir_size_after),
        "bytes",
        n,
    );
    r.put(
        "pipeline.fields_inlined",
        sum(|f| f.auto_inlined),
        "count",
        n,
    );
    let Some(tally) = ladder else {
        for m in [
            "firewall.probe_baseline_ms",
            "firewall.probe_checked_ms",
            "firewall.residual_ms",
            "firewall.retractions",
            "ladder.ms",
            "ladder.descents",
            "ladder.guarded_full_share",
            "vm.checked_over_off",
        ] {
            r.absent(m, "this workload runs no firewall or ladder");
        }
        return;
    };
    let compiles = Some(tally.compiles);
    r.put(
        "firewall.retractions",
        tally.retractions as f64,
        "count",
        compiles,
    );
    r.put("ladder.descents", tally.descents as f64, "count", compiles);
    r.put(
        "ladder.guarded_full_share",
        tally.guarded_full as f64 / tally.compiles.max(1) as f64,
        "ratio",
        compiles,
    );
    let probe_b = suite_ms(tracer, "firewall.probe_baseline");
    let probe_c = suite_ms(tracer, "firewall.probe_checked");
    let ladder = suite_ms(tracer, "ladder");
    r.put_opt(
        "firewall.probe_baseline_ms",
        probe_b,
        "ms",
        n,
        "no spans recorded",
    );
    r.put_opt(
        "firewall.probe_checked_ms",
        probe_c,
        "ms",
        n,
        "no spans recorded",
    );
    r.put_opt("ladder.ms", ladder, "ms", n, "no spans recorded");
    // The ladder runs baseline, transform and both probes itself; what it
    // spends beyond them (bisection, verification, report) is the
    // firewall's own remainder.
    let parts = [
        "pipeline.baseline",
        "pipeline.transform",
        "firewall.probe_baseline",
        "firewall.probe_checked",
    ]
    .iter()
    .map(|s| suite_ms(tracer, s))
    .sum::<Option<f64>>();
    r.put_opt(
        "firewall.residual_ms",
        ladder.zip(parts).map(|(l, p)| l - p),
        "ms",
        n,
        "no spans recorded",
    );
    let checked = medians_by_program(tracer, "firewall.probe_checked");
    let off = medians_by_program(tracer, "vm.run_inlined");
    let ratios: Vec<f64> = checked.iter().zip(&off).map(|(c, o)| c.1 / o.1).collect();
    r.put_opt(
        "vm.checked_over_off",
        geomean(&ratios),
        "ratio",
        Some(ratios.len()),
        "no checked probes",
    );
}
