//! Recorded results, their workload fingerprints, and the comparison of two of them.
//!
//! Every record carries the FNV-1a hash of its workload definition — sizes, seeds,
//! thread and shard counts spelled out — so two results are only ever compared when
//! they measured the same work.

use crate::catalog::{bound_of, Better};
use crate::json::{parse, quote, Value};

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fingerprint of a workload definition, as 16 hex digits.
pub fn fingerprint(definition: &str) -> String {
    format!("{:016x}", fnv1a64(definition.as_bytes()))
}

/// One benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub definition: String,
    pub fingerprint: String,
    pub hardware_threads: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Record {
    /// The record as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"definition\": {}, \
             \"fingerprint\": {}, \"hardware_threads\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            quote(&self.workload),
            self.seed,
            self.trace,
            quote(&self.definition),
            quote(&self.fingerprint),
            self.hardware_threads,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a record written by [`Record::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let text_of = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("record has no string {key:?}"))
        };
        let number = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("record has no number {key:?}"))
        };
        let flag = |key: &str| match doc.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("record has no boolean {key:?}")),
        };
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("record has no metrics")?
            .iter()
            .map(|(name, metric)| {
                let value = metric.get("value").and_then(Value::as_f64);
                let unit = metric.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric {name:?} needs a value and a unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            workload: text_of("workload")?,
            seed: number("seed")? as u64,
            trace: flag("trace")?,
            definition: text_of("definition")?,
            fingerprint: text_of("fingerprint")?,
            hardware_threads: number("hardware_threads")? as u64,
            correct: flag("correct")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics,
        })
    }
}

/// How one metric moved from a base record to a new one.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub name: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    /// `Some(true)` when an end-to-end metric worsened by more than its bound.
    pub regressed: Option<bool>,
}

/// Compares two records metric by metric. Refuses records whose fingerprints differ
/// (they measured different work) or whose tracing modes differ.
pub fn compare(base: &Record, new: &Record) -> Result<Vec<Delta>, String> {
    if base.fingerprint != new.fingerprint {
        return Err(format!(
            "refusing to compare different workloads: fingerprint {} ({}) vs {} ({})",
            base.fingerprint, base.definition, new.fingerprint, new.definition
        ));
    }
    if base.trace != new.trace {
        return Err("refusing to compare a traced run with an untraced one".into());
    }
    Ok(base
        .metrics
        .iter()
        .filter_map(|(name, base_value, unit)| {
            let (_, new_value, _) = new.metrics.iter().find(|(n, _, _)| n == name)?;
            let regressed = bound_of(name).map(|(bound, better)| match better {
                Better::Lower => *new_value > base_value * (1.0 + bound),
                Better::Higher => *new_value < base_value * (1.0 - bound),
            });
            Some(Delta {
                name: name.clone(),
                unit: unit.clone(),
                base: *base_value,
                new: *new_value,
                regressed,
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(definition: &str, p50: f64) -> Record {
        Record {
            workload: "instance".into(),
            seed: 1,
            trace: false,
            definition: definition.into(),
            fingerprint: fingerprint(definition),
            hardware_threads: 2,
            correct: true,
            attempted: 40,
            failed: 0,
            metrics: vec![
                ("op_p50_s".into(), p50, "s".into()),
                ("cells_per_s".into(), 1.0 / p50, "cells/s".into()),
            ],
        }
    }

    #[test]
    fn fnv1a_matches_reference_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint("n=4096").len(), 16);
        assert_ne!(fingerprint("n=2048"), fingerprint("n=4096"));
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = record("instance; clients=2500000; threads=2", 0.512345678901);
        assert_eq!(Record::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn mismatched_fingerprints_are_refused() {
        let a = record("sweep; n=2048; threads=2", 1.0);
        let b = record("sweep; n=4096; threads=2", 1.0);
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
        let mut traced = a.clone();
        traced.trace = true;
        assert!(compare(&a, &traced).is_err());
    }

    #[test]
    fn matching_records_compare_against_the_bounds() {
        let base = record("instance; threads=2", 1.0);
        let same = compare(&base, &record("instance; threads=2", 1.05)).unwrap();
        assert!(same.iter().all(|d| d.regressed == Some(false)));
        let slow = compare(&base, &record("instance; threads=2", 1.5)).unwrap();
        assert_eq!(slow[0].regressed, Some(true));
        assert_eq!(
            slow[1].regressed,
            Some(true),
            "lower throughput regresses too"
        );
    }
}
