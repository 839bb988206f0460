//! Uniform tabular access to experiment results.
//!
//! Every figure/table result type implements [`Rows`] alongside its
//! pretty [`std::fmt::Display`]: `rows()` yields the same numbers the
//! figure plots as labelled series, and `csv()` renders them in one
//! consistent machine-readable shape. [`Rendered`] holds both
//! renderings and [`save`] dumps them (`<name>.txt` from `Display`,
//! `<name>.csv` from [`Rows::csv`]) into a results directory — the
//! `snoc repro` output under `results/`.

use std::fmt::Display;
use std::io;
use std::path::{Path, PathBuf};

/// Tabular view of an experiment result: labelled numeric rows under a
/// shared header.
///
/// Rows are in presentation order and each carries exactly one value
/// per header column, so `rows()` round-trips through CSV without any
/// per-figure knowledge.
pub trait Rows {
    /// Column labels (one per value in every row).
    fn header(&self) -> Vec<String>;

    /// The labelled rows, in the figure's presentation order.
    fn rows(&self) -> Vec<(String, Vec<f64>)>;

    /// CSV rendering: a header line, then `label,v1,v2,...` per row.
    fn csv(&self) -> String {
        let mut out = String::from("label");
        for h in self.header() {
            out.push(',');
            // Keep the CSV single-token per cell.
            out.push_str(&h.replace(',', ";"));
        }
        out.push('\n');
        for (label, values) in self.rows() {
            out.push_str(&label.replace(',', ";"));
            for v in values {
                out.push(',');
                out.push_str(&format!("{v:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

/// A result's two renderings, as [`save`] writes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendered {
    /// The `Display` rendering.
    pub text: String,
    /// The [`Rows::csv`] rendering.
    pub csv: String,
}

impl Rendered {
    /// Renders `result` both ways.
    pub fn of<R: Rows + Display>(result: &R) -> Self {
        Self {
            text: result.to_string(),
            csv: result.csv(),
        }
    }
}

/// Writes `<dir>/<name>.txt` and `<dir>/<name>.csv`, creating `dir` if
/// needed. Returns the two paths.
pub fn save(
    dir: impl AsRef<Path>,
    name: &str,
    result: &Rendered,
) -> io::Result<(PathBuf, PathBuf)> {
    let txt = save_raw(&dir, name, "txt", &result.text)?;
    let csv = save_raw(&dir, name, "csv", &result.csv)?;
    Ok((txt, csv))
}

/// Writes `<dir>/<name>.<ext>` verbatim, creating `dir` if needed —
/// for non-tabular artifacts such as JSONL traces. Returns the path.
pub fn save_raw(
    dir: impl AsRef<Path>,
    name: &str,
    ext: &str,
    contents: &str,
) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.{ext}"));
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt;

    struct Dummy;

    impl Rows for Dummy {
        fn header(&self) -> Vec<String> {
            vec!["a".into(), "b,b".into()]
        }
        fn rows(&self) -> Vec<(String, Vec<f64>)> {
            vec![
                ("x".into(), vec![1.0, 2.5]),
                ("y,z".into(), vec![0.0, -1.0]),
            ]
        }
    }

    impl fmt::Display for Dummy {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "dummy")
        }
    }

    #[test]
    fn csv_escapes_commas_and_keeps_shape() {
        let csv = Dummy.csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("label,a,b;b"));
        assert_eq!(lines.next(), Some("x,1.000000,2.500000"));
        assert_eq!(lines.next(), Some("y;z,0.000000,-1.000000"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn save_writes_both_files() {
        let dir = std::env::temp_dir().join("snoc-report-test");
        let (txt, csv) = save(&dir, "dummy", &Rendered::of(&Dummy)).unwrap();
        assert_eq!(std::fs::read_to_string(&txt).unwrap(), "dummy");
        assert!(std::fs::read_to_string(&csv).unwrap().starts_with("label,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_raw_writes_verbatim() {
        let dir = std::env::temp_dir().join("snoc-report-raw-test");
        let path = save_raw(&dir, "trace", "jsonl", "{\"a\":1}\n").unwrap();
        assert!(path.ends_with("trace.jsonl"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
