//! Run-artifact export: columnar tables → JSON / CSV.
//!
//! Exported `TimeSeries` and the per-job `metrics.json` share one shape:
//! a handful of scalar metadata fields plus named equal-length `f64`
//! columns. [`Table`] models exactly that.
//!
//! Numbers are written with Rust's shortest round-trip `f64` formatting,
//! so `parse::<f64>()` on any emitted value recovers the exact bits.
//! Non-finite values (which JSON cannot represent) are emitted as `null`
//! in JSON and `nan`/`inf` in CSV. JSON numbers and strings go through
//! [`crate::json`]'s writer, the one the wire protocol uses.

use crate::json::{write_escaped, write_num};
use pt_ham::PtError;
use std::fmt::Write as _;
use std::path::Path;

/// A scalar metadata value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

/// Scalar metadata + named equal-length `f64` columns.
#[derive(Clone, Debug, Default)]
pub struct Table {
    meta: Vec<(String, Value)>,
    columns: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Attach a scalar metadata field (builder style).
    pub fn meta(mut self, key: &str, value: Value) -> Self {
        self.meta.push((key.to_string(), value));
        self
    }

    /// Append a column; every column must have the same length as the
    /// first.
    pub fn column(&mut self, name: &str, values: Vec<f64>) -> Result<(), PtError> {
        if let Some((first_name, first)) = self.columns.first() {
            if first.len() != values.len() {
                return Err(PtError::InvalidConfig(format!(
                    "table column '{name}' has {} rows but '{first_name}' has {}",
                    values.len(),
                    first.len()
                )));
            }
        }
        if self.columns.iter().any(|(n, _)| n == name) {
            return Err(PtError::InvalidConfig(format!(
                "table already has a column named '{name}'"
            )));
        }
        self.columns.push((name.to_string(), values));
        Ok(())
    }

    /// Rows in each column (0 for a column-less table).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, c)| c.len())
    }

    /// Column by name.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_slice())
    }

    /// Serialize as a JSON object: metadata fields first, then `"n_rows"`
    /// and a `"columns"` object of arrays.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (k, v) in &self.meta {
            out.push_str("  ");
            write_escaped(&mut out, k);
            out.push_str(": ");
            match v {
                Value::U64(u) => {
                    let _ = write!(out, "{u}");
                }
                Value::F64(x) => write_num(&mut out, *x),
                Value::Str(s) => write_escaped(&mut out, s),
            }
            out.push_str(",\n");
        }
        let _ = write!(out, "  \"n_rows\": {},\n  \"columns\": {{", self.n_rows());
        for (i, (name, col)) in self.columns.iter().enumerate() {
            out.push_str("\n    ");
            write_escaped(&mut out, name);
            out.push_str(": [");
            for (j, v) in col.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_num(&mut out, *v);
            }
            out.push(']');
            if i + 1 < self.columns.len() {
                out.push(',');
            }
        }
        if self.columns.is_empty() {
            out.push_str("}\n}\n");
        } else {
            out.push_str("\n  }\n}\n");
        }
        out
    }

    /// Serialize as CSV: `# key = value` metadata comment lines, a header
    /// row, then one row per index.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            match v {
                Value::U64(u) => {
                    let _ = writeln!(out, "# {k} = {u}");
                }
                Value::F64(x) => {
                    let _ = writeln!(out, "# {k} = {x}");
                }
                Value::Str(s) => {
                    let _ = writeln!(out, "# {k} = {s}");
                }
            }
        }
        let names: Vec<&str> = self.columns.iter().map(|(n, _)| n.as_str()).collect();
        let _ = writeln!(out, "{}", names.join(","));
        for row in 0..self.n_rows() {
            for (i, (_, col)) in self.columns.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", col[row]);
            }
            out.push('\n');
        }
        out
    }

    /// Write [`Table::to_json`] to a file.
    pub fn write_json(&self, path: impl AsRef<Path>) -> Result<(), PtError> {
        write_file(path.as_ref(), &self.to_json())
    }

    /// Write [`Table::to_csv`] to a file.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> Result<(), PtError> {
        write_file(path.as_ref(), &self.to_csv())
    }
}

fn write_file(path: &Path, content: &str) -> Result<(), PtError> {
    std::fs::write(path, content).map_err(|e| PtError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new()
            .meta("bench", Value::Str("io_smoke".into()))
            .meta("host_cores", Value::U64(4));
        t.column("t", vec![0.0, 0.5, 1.0]).unwrap();
        t.column("energy", vec![-1.25, -1.5, f64::NAN]).unwrap();
        t
    }

    #[test]
    fn json_has_meta_columns_and_null_for_nan() {
        let j = sample().to_json();
        assert!(j.contains("\"bench\": \"io_smoke\""), "{j}");
        assert!(j.contains("\"host_cores\": 4"));
        assert!(j.contains("\"n_rows\": 3"));
        assert!(j.contains("\"energy\": [-1.25, -1.5, null]"), "{j}");
    }

    #[test]
    fn json_bytes_are_pinned() {
        let mut t = Table::new()
            .meta("name \"q\"\n", Value::Str("tab\there\u{1}".into()))
            .meta("n", Value::U64(u64::MAX))
            .meta("x", Value::F64(-0.0));
        t.column("t", vec![0.0, 2.5]).unwrap();
        t.column("e", vec![f64::INFINITY, 0.1]).unwrap();
        assert_eq!(
            t.to_json(),
            "{\n  \"name \\\"q\\\"\\n\": \"tab\\there\\u0001\",\n  \"n\": 18446744073709551615,\n  \
             \"x\": -0,\n  \"n_rows\": 2,\n  \"columns\": {\n    \"t\": [0, 2.5],\n    \
             \"e\": [null, 0.1]\n  }\n}\n"
        );
        assert_eq!(
            Table::new().to_json(),
            "{\n  \"n_rows\": 0,\n  \"columns\": {}\n}\n"
        );
    }

    #[test]
    fn json_numbers_round_trip_exactly() {
        let vals = [0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23];
        let mut t = Table::new();
        t.column("x", vals.to_vec()).unwrap();
        let j = t.to_json();
        let arr = j.split('[').nth(1).unwrap().split(']').next().unwrap();
        for (s, want) in arr.split(", ").zip(vals) {
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), want.to_bits(), "{s}");
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = sample().to_csv();
        let mut lines = c.lines();
        assert_eq!(lines.next().unwrap(), "# bench = io_smoke");
        assert_eq!(lines.next().unwrap(), "# host_cores = 4");
        assert_eq!(lines.next().unwrap(), "t,energy");
        assert_eq!(lines.next().unwrap(), "0,-1.25");
        assert_eq!(c.lines().count(), 6);
    }

    #[test]
    fn mismatched_column_lengths_are_rejected() {
        let mut t = Table::new();
        t.column("a", vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            t.column("b", vec![1.0]),
            Err(PtError::InvalidConfig(_))
        ));
        assert!(matches!(
            t.column("a", vec![3.0, 4.0]),
            Err(PtError::InvalidConfig(_))
        ));
    }
}
