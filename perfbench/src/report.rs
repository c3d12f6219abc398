//! Collects a run's metrics and prints them: named lines for people, then
//! the one-line JSON result, whose metric set is read from
//! `BENCHMARK.json` so the two cannot drift apart.

use oi_support::Json;
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    /// Values by metric name, with their unit.
    values: BTreeMap<String, (f64, &'static str)>,
    /// Metrics without samples in this run, with the reason.
    absent: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is invalid as a whole (open-loop backlog, lag).
    pub invalid: Vec<String>,
}

impl Report {
    /// Records `name` and prints it with its unit and sample count.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        match samples {
            Some(n) => println!("{name:<32} {value:>14.4} {unit:<6} (n={n})"),
            None => println!("{name:<32} {value:>14.4} {unit}"),
        }
        self.values.insert(name.to_owned(), (value, unit));
    }

    /// Records `name` if `value` exists, else marks it absent for `why`.
    pub fn put_opt(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
        samples: Option<usize>,
        why: &str,
    ) {
        match value {
            Some(v) => self.put(name, v, unit, samples),
            None => self.absent(name, why),
        }
    }

    pub fn absent(&mut self, name: &str, why: &str) {
        println!("{name:<32} {:>14} {why}", "absent:");
        self.absent.insert(name.to_owned(), why.to_owned());
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Prints the final JSON line with every metric `BENCHMARK.json` lists
    /// under `section`. A listed metric this run did not measure is an
    /// error for `end_to_end` and reads 0 with its printed reason for
    /// `per_layer`.
    pub fn finish(mut self, spec: &Json, section: &str) -> String {
        let listed = spec.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        let mut metrics = Vec::new();
        for m in listed {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            let value = match self.values.get(name) {
                Some(&(v, _)) if v.is_finite() => v,
                _ if section == "per_layer" => {
                    if !self.absent.contains_key(name) {
                        println!("{name:<32} {:>14} not measured by this workload", "absent:");
                    }
                    0.0
                }
                _ => {
                    self.invalid
                        .push(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push((
                name.to_owned(),
                Json::obj(vec![("value", value.into()), ("unit", unit.into())]),
            ));
        }
        for why in &self.invalid {
            println!("INVALID RUN: {why}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<32} {error_rate:>14.6} ratio ({} of {})",
            "error_rate", self.failed, self.attempted
        );
        let correct = self.failed == 0 && self.invalid.is_empty() && self.attempted > 0;
        let metrics = Json::Obj(metrics);
        Json::obj(vec![
            ("correct", correct.into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            ("metrics", metrics),
        ])
        .to_string()
    }
}
