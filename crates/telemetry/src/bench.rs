//! The shared benchmark-snapshot format.
//!
//! One schema — `watchdog-bench-v1` — is written by one producer,
//! `watchdog-cli perf` (which CI runs), and consumed by anything that
//! reads `BENCH_<rev>.json` perf history. Keeping the record type and its
//! parser here means the writer and its readers cannot drift apart: the
//! CLI validates a snapshot with the same code `perf compare` and CI use
//! to read it.

use crate::json::{JsonError, JsonValue};

/// Schema tag every snapshot carries as its `schema` key.
pub const BENCH_SCHEMA: &str = "watchdog-bench-v1";

/// One measured benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full case path, `group/case` (e.g. `timing_wheel/mcf_wheel`).
    pub name: String,
    /// Best observed wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Throughput in millions of elements per second; `0.0` when the
    /// case declares no element throughput.
    pub melem_per_s: f64,
    /// Total iterations executed while measuring.
    pub iterations: u64,
}

impl BenchRecord {
    /// Computes the `melem_per_s` field from an element count per
    /// iteration — the one formula both writers use.
    pub fn rate(elems_per_iter: u64, ns_per_iter: f64) -> f64 {
        if ns_per_iter > 0.0 {
            elems_per_iter as f64 * 1e3 / ns_per_iter
        } else {
            0.0
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("name".into(), JsonValue::str(self.name.clone())),
            ("ns_per_iter".into(), JsonValue::Num(self.ns_per_iter)),
            ("melem_per_s".into(), JsonValue::Num(self.melem_per_s)),
            ("iterations".into(), JsonValue::Int(self.iterations)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("record missing {key:?}"));
        Ok(BenchRecord {
            name: field("name")?
                .as_str()
                .ok_or("record name is not a string")?
                .to_string(),
            ns_per_iter: field("ns_per_iter")?
                .as_f64()
                .ok_or("ns_per_iter is not a number")?,
            melem_per_s: field("melem_per_s")?
                .as_f64()
                .ok_or("melem_per_s is not a number")?,
            iterations: field("iterations")?
                .as_u64()
                .ok_or("iterations is not an integer")?,
        })
    }
}

/// A full snapshot: schema tag, source revision, records.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Git revision (short hash) the snapshot was measured at, or
    /// `"unknown"` outside a checkout.
    pub rev: String,
    /// Measured cases in execution order.
    pub records: Vec<BenchRecord>,
}

impl BenchSnapshot {
    /// Renders the snapshot (pretty-printed, schema tag first).
    pub fn to_json(&self) -> String {
        JsonValue::Obj(vec![
            ("schema".into(), JsonValue::str(BENCH_SCHEMA)),
            ("rev".into(), JsonValue::str(self.rev.clone())),
            (
                "records".into(),
                JsonValue::Arr(self.records.iter().map(BenchRecord::to_json).collect()),
            ),
        ])
        .render_pretty()
    }

    /// Parses and validates a snapshot: the document must parse, carry
    /// the exact [`BENCH_SCHEMA`] tag, and every record must have all
    /// four fields with the right types. This is the validation CI's
    /// telemetry smoke step and the CLI smoke tests run.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e: JsonError| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema tag")?;
        if schema != BENCH_SCHEMA {
            return Err(format!("schema {schema:?}, expected {BENCH_SCHEMA:?}"));
        }
        let rev = doc
            .get("rev")
            .and_then(JsonValue::as_str)
            .ok_or("missing rev")?
            .to_string();
        let records = doc
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or("missing records array")?
            .iter()
            .map(BenchRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchSnapshot { rev, records })
    }

    /// Record lookup by full case path.
    pub fn record(&self, name: &str) -> Option<&BenchRecord> {
        self.records.iter().find(|r| r.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> BenchSnapshot {
        BenchSnapshot {
            rev: "abc1234".into(),
            records: vec![
                BenchRecord {
                    name: "timing_wheel/mcf_wheel".into(),
                    ns_per_iter: 142.5,
                    melem_per_s: BenchRecord::rate(1000, 142.5),
                    iterations: 77,
                },
                BenchRecord {
                    name: "bpred_observe/mix".into(),
                    ns_per_iter: 9.0,
                    melem_per_s: 0.0,
                    iterations: 100_000,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = snapshot();
        let parsed = BenchSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        assert!(parsed.record("timing_wheel/mcf_wheel").is_some());
        assert!(parsed.record("nope").is_none());
    }

    #[test]
    fn rate_formula() {
        // 1000 elements in 100 ns = 10 Gelem/s = 10_000 Melem/s.
        assert!((BenchRecord::rate(1000, 100.0) - 10_000.0).abs() < 1e-9);
        assert_eq!(BenchRecord::rate(1000, 0.0), 0.0);
    }

    #[test]
    fn validation_rejects_wrong_schema_and_shape() {
        assert!(BenchSnapshot::from_json("{}").is_err());
        assert!(
            BenchSnapshot::from_json(r#"{"schema":"other-v9","rev":"x","records":[]}"#).is_err()
        );
        assert!(BenchSnapshot::from_json(
            r#"{"schema":"watchdog-bench-v1","rev":"x","records":[{"name":"a"}]}"#
        )
        .is_err());
        let ok =
            BenchSnapshot::from_json(r#"{"schema":"watchdog-bench-v1","rev":"x","records":[]}"#)
                .unwrap();
        assert_eq!(ok.rev, "x");
    }
}
