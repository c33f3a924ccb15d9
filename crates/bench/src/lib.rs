//! Shared infrastructure for the figure/table harness binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the paper's
//! evaluation section and is named after it (e.g. `fig09_sigma_selection`).
//! Output is printed as aligned text tables plus machine-readable CSV lines
//! prefixed with `csv,`, so results can be both read in the terminal and
//! post-processed.
//!
//! All binaries accept:
//!
//! * `--scale <f>`  — corpus scale relative to the paper's datasets
//!   (default 0.03 for quick laptop runs),
//! * `--full`       — shortcut for `--scale 1.0` (paper-scale corpora;
//!   slow),
//! * `--seed <n>`   — RNG seed (default 42).

use zerber_corpus::DatasetProfile;
use zerber_workload::{TestBed, TestBedConfig};

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOptions {
    /// Corpus scale factor.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 0.03,
            seed: 42,
        }
    }
}

impl HarnessOptions {
    /// Parses `--scale`, `--full` and `--seed` from the process arguments.
    pub fn from_args() -> Self {
        let mut options = HarnessOptions::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => options.scale = 1.0,
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                        options.scale = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                        options.seed = v;
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        options
    }

    /// Builds the experiment test bed for one of the paper's two datasets.
    pub fn build_bed(&self, dataset: DatasetProfile) -> TestBed {
        // The ODP corpus is ~28x larger than StudIP; apply the same scale to
        // both so "--scale 1.0" means paper scale for each.
        let config = TestBedConfig {
            scale: self.scale,
            seed: self.seed,
            ..TestBedConfig::small(dataset)
        };
        TestBed::build(config).expect("test bed builds")
    }

    /// Both datasets of Section 6.1.
    pub fn datasets() -> [DatasetProfile; 2] {
        [DatasetProfile::StudIp, DatasetProfile::OdpWeb]
    }
}

/// Prints a section heading.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints an aligned text table and the equivalent CSV rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    heading(title);
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
        .collect();
    println!("{}", line.join(" | "));
    println!("{}", "-".repeat(line.join(" | ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join(" | "));
    }
    // CSV mirror.
    println!("csv,{}", headers.join(","));
    for row in rows {
        println!("csv,{}", row.join(","));
    }
}

/// Formats a float compactly.
pub fn fmt(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 1.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_small_scale() {
        let o = HarnessOptions::default();
        assert!(o.scale < 0.1);
        assert_eq!(o.seed, 42);
        assert_eq!(HarnessOptions::datasets().len(), 2);
    }

    #[test]
    fn fmt_uses_compact_representations() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.6), "1235");
        assert_eq!(fmt(2.34559), "2.346");
        assert_eq!(fmt(0.000123456), "0.000123");
    }

    #[test]
    fn small_bed_builds_for_both_datasets() {
        let options = HarnessOptions {
            scale: 0.01,
            seed: 1,
        };
        for dataset in HarnessOptions::datasets() {
            let bed = options.build_bed(dataset);
            assert!(bed.corpus.num_docs() > 0);
        }
    }
}
