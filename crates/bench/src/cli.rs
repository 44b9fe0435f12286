//! The command line the bench binaries share: `--quick` (or `-q`) for a
//! reduced-scale run, and `--out <path>` for the binaries that write a
//! `BENCH_*.json` report. Other arguments are left to the binary
//! (`sweep` and `telemetry_*` parse their own).

use crate::multi::MpScale;
use crate::setup::Lab;
use crate::single::RunScale;

/// The parsed shared flags and the run scales they select.
#[derive(Debug)]
pub struct Cli {
    /// Single-application run scale.
    pub single: RunScale,
    /// Multi-application run scale.
    pub multi: MpScale,
    /// Whether `--quick` was passed.
    pub quick: bool,
    out: Option<String>,
}

impl Cli {
    /// Parses `std::env::args`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut quick = false;
        let mut out = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" | "-q" => quick = true,
                "--out" => out = args.next(),
                _ => {}
            }
        }
        let (single, multi) = if quick {
            (RunScale::quick(), MpScale::quick())
        } else {
            (RunScale::full(), MpScale::full())
        };
        Self {
            single,
            multi,
            quick,
            out,
        }
    }

    /// The calibrated lab at this scale: [`Lab::quick`] with `--quick`,
    /// else [`Lab::new`].
    pub fn lab(&self) -> Lab {
        if self.quick {
            eprintln!("calibrating power model (quick mode)...");
            Lab::quick()
        } else {
            eprintln!("calibrating power model (full mode)...");
            Lab::new()
        }
    }

    /// Where the `BENCH_<stem>` report goes: `--out` if given, else
    /// `BENCH_<stem>.json` (the committed full-scale report) or, with
    /// `--quick`, `BENCH_<stem>_quick.json`, so that a quick run never
    /// overwrites the committed one.
    pub fn out(&self, stem: &str) -> String {
        self.out.clone().unwrap_or_else(|| {
            if self.quick {
                format!("BENCH_{stem}_quick.json")
            } else {
                format!("BENCH_{stem}.json")
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|a| a.to_string()))
    }

    /// No flag selects the full scale and the committed report; `--quick`
    /// switches both, and `--out` overrides the report path at any scale.
    #[test]
    fn default_args_are_full_scale() {
        let full = cli(&[]);
        assert!(!full.quick);
        assert_eq!(full.single.hb_budget, RunScale::full().hb_budget);
        assert_eq!(full.multi.budget_factor, MpScale::full().budget_factor);
        assert_eq!(full.out("search"), "BENCH_search.json");

        let quick = cli(&["-q"]);
        assert!(quick.quick);
        assert_eq!(quick.single.hb_budget, RunScale::quick().hb_budget);
        assert_eq!(quick.multi.budget_factor, MpScale::quick().budget_factor);
        assert_eq!(quick.out("search"), "BENCH_search_quick.json");

        assert_eq!(cli(&["--out", "a.json", "--quick"]).out("x"), "a.json");
        assert_eq!(cli(&["--out", "b.json"]).out("x"), "b.json");
    }
}
