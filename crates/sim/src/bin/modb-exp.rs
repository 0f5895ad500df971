//! `modb-exp <name> [args…]` runs one experiment of EXPERIMENTS.md and
//! prints its tables on stdout; `modb-exp` alone lists the experiments.
//!
//! Arguments are numbers in the order the usage lists them; one left out
//! takes its default. F1–F3 also take `--baselines`, and F5 takes its
//! fleet sizes as trailing numbers. Anything else is a usage error and
//! exits 2. A broken contract (a deviation bound exceeded, an index
//! answer unlike the scan's) is printed to stderr and exits 1.

use std::fmt::{self, Display};

use modb_sim::experiments::ablations::{self, AblationRow};
use modb_sim::experiments::indexing::SublinearRow;
use modb_sim::experiments::policy_sweep::{self, MetricKind, SweepConfig, SweepResult};
use modb_sim::experiments::savings::{self, SavingsRow};
use modb_sim::experiments::{bound_shape, cost_rate_curve, example1, indexing};
use modb_sim::WorkloadConfig;

/// What an experiment printed, and the contracts it broke.
#[derive(Debug, Default)]
struct Report {
    text: String,
    failures: Vec<String>,
}

impl Report {
    fn of(block: impl Display) -> Self {
        Report::default().print(block)
    }

    /// Appends `block` and a newline, as `println!` would.
    fn print(mut self, block: impl Display) -> Self {
        self.text += &format!("{block}\n");
        self
    }

    /// Records `failure` unless `ok`.
    fn check(mut self, ok: bool, failure: impl Display) -> Self {
        if !ok {
            self.failures.push(failure.to_string());
        }
        self
    }

    /// Records a failure if any tick's deviation exceeded the bound its
    /// policy advertised (Propositions 2–4).
    fn bound(self, what: &str, violations: usize) -> Self {
        let failure = format!("{what}: {violations} ticks past the advertised deviation bound");
        self.check(violations == 0, failure)
    }
}

/// Resolved arguments: the positionals in usage order, the flag if
/// given, and the trailing sizes.
#[derive(Debug, PartialEq)]
struct Args {
    values: Vec<(&'static str, f64)>,
    flag: Option<&'static str>,
    sizes: Vec<usize>,
}

impl Args {
    fn n(&self, i: usize) -> usize {
        self.values[i].1 as usize
    }

    fn x(&self, i: usize) -> f64 {
        self.values[i].1
    }
}

impl Display for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.values {
            write!(f, " {name}={value}")?;
        }
        if let Some(flag) = self.flag {
            write!(f, " {flag}")?;
        }
        match self.sizes.is_empty() {
            true => Ok(()),
            false => write!(f, " sizes={:?}", self.sizes),
        }
    }
}

fn workload(n_trips: usize, duration: f64) -> WorkloadConfig {
    WorkloadConfig {
        n_trips,
        duration,
        ..WorkloadConfig::default()
    }
}

fn sweep_report(result: &SweepResult) -> Report {
    use MetricKind::*;
    let violations = result.total_bound_violations();
    [Messages, TotalCost, AvgUncertainty, AvgDeviation]
        .into_iter()
        .fold(Report::default(), |r, kind| r.print(result.table(kind)))
        .print(format!(
            "bound violations across all runs: {violations} (soundness check; expected 0)"
        ))
        .bound("F1–F3", violations)
}

fn savings_report(rows: &[SavingsRow], c: f64) -> Report {
    let violations = rows.iter().map(|r| r.bound_violations).sum();
    Report::of(savings::savings_table(rows, c)).bound("T1", violations)
}

fn ablations_report(tables: &[(&str, Vec<AblationRow>)]) -> Report {
    tables.iter().fold(Report::default(), |r, (title, rows)| {
        let violations = rows.iter().map(|row| row.metrics.bound_violations).sum();
        r.print(ablations::ablation_table(title, rows))
            .bound(title, violations)
    })
}

/// Runs both F5 legs, renders them with `tables` and fails any query
/// whose index answer differs from the scan's.
fn f5_report(a: &Args, tables: impl FnOnce(&[SublinearRow], &[SublinearRow]) -> Report) -> Report {
    let fixed = indexing::run_sublinear(&a.sizes, a.n(0));
    let dense = indexing::run_constant_density(&a.sizes, a.n(0));
    let mismatches: usize = fixed.iter().chain(&dense).map(|r| r.mismatches).sum();
    tables(&fixed, &dense).check(
        mismatches == 0,
        format!("F5: {mismatches} index answers unlike the scan's"),
    )
}

type Run = fn(&Args) -> Report;

/// The dispatch table: name, usage, run. A usage lists the positionals in
/// order as `name=default`; a default written with a `.` takes any
/// number, one without a whole number. `--flag` is an optional flag,
/// and `name…=a,b,…` takes the trailing whole numbers, `a,b,…` when
/// there are none.
static EXPERIMENTS: &[(&str, &str, Run)] = &[
    (
        "f1-f3",
        "n_trips=100 duration_minutes=60.0 --baselines",
        |a| {
            let workload = workload(a.n(0), a.x(1));
            let include_baselines = a.flag.is_some();
            let config = SweepConfig {
                workload,
                include_baselines,
                ..SweepConfig::default()
            };
            sweep_report(&policy_sweep::run_sweep(&config))
        },
    ),
    ("f4", "v=1.0 v_max=1.5 C=5.0", |a| {
        let (v, v_max, c) = (a.x(0), a.x(1), a.x(2));
        let rows = bound_shape::run_bound_shape(v, v_max, c, 15.0, 0.5);
        Report::of(bound_shape::bound_shape_table(&rows, v, v_max, c))
    }),
    ("f5", "queries=50 sizes…=1000,5000,20000,50000", |a| {
        f5_report(a, |fixed, dense| {
            Report::of(indexing::sublinear_table(fixed))
                .print(indexing::constant_density_table(dense))
        })
    }),
    ("f5-counts", "queries=20 sizes…=1000,4000,16000", |a| {
        f5_report(a, |fixed, dense| {
            Report::of(indexing::counts_table("F5 counts: fixed 20x20 city", fixed))
                .print(indexing::counts_table("F5 counts: constant density", dense))
        })
    }),
    ("f6", "", |_| {
        // The aged leg first: its resident-memory columns read the growth
        // of a fresh heap, which a heap the larger fleets had already grown
        // and freed would absorb.
        let aged = indexing::run_aged_update(5_000, 256);
        let rows = indexing::run_index_update(&[1_000, 5_000, 20_000]);
        Report::of(indexing::index_update_table(&rows)).print(indexing::aged_update_table(&[aged]))
    }),
    ("f7", "a=1.0 b=2.0 C=5.0", |a| {
        let (ra, rb, c) = (a.x(0), a.x(1), a.x(2));
        let rows = cost_rate_curve::run_cost_rate_curve(ra, rb, c, 21);
        Report::of(cost_rate_curve::cost_rate_table(&rows, ra, rb, c))
    }),
    ("t1", "n_trips=100 C=5.0", |a| {
        let rows = savings::run_savings(42, workload(a.n(0), 60.0), a.x(1));
        savings_report(&rows, a.x(1))
    }),
    ("t2", "", |_| {
        let rows = example1::run_example1();
        let worst = rows.iter().map(|r| r.rel_error()).fold(0.0_f64, f64::max);
        Report::of(example1::example1_table(&rows))
            .print(format!("worst relative error: {:.3}%", worst * 100.0))
    }),
    ("t3", "n_objects=2000 n_queries=100", |a| {
        // t = 10: past the immediate policies' bound crossover, so intervals
        // have shrunk and the must set is populated (Theorem 6 exercised).
        let r = indexing::run_may_must(a.n(0), a.n(1), 10.0);
        let v = r.violations;
        let verdict = match v {
            0 => "soundness: OK (no violations)".to_string(),
            _ => format!("soundness: FAILED ({v} violations)"),
        };
        Report::of(indexing::may_must_table(&r))
            .print(verdict)
            .check(
                v == 0,
                format!("T3: {v} answers break must ⊆ in G ⊆ must ∪ may"),
            )
    }),
    ("a1-a5", "n_trips=50 duration_minutes=30.0", |a| {
        const C: f64 = 5.0;
        let cfg = workload(a.n(0), a.x(1));
        let ticks = [1.0 / 20.0, 1.0 / 60.0, 1.0 / 120.0];
        ablations_report(&[
            (
                "A1: fitting method (ail estimator/predictor, C = 5)",
                ablations::run_fitting_ablation(42, cfg, C),
            ),
            (
                "A2: speed predictor (immediate-linear estimator, C = 5)",
                ablations::run_predictor_ablation(42, cfg, C),
            ),
            (
                "A3: adaptive switching vs fixed policies, per driving profile",
                ablations::run_adaptive_ablation(42, a.n(0).min(20), a.x(1), C),
            ),
            (
                "A4: GPS noise robustness (ail; noise sd in miles)",
                ablations::run_noise_ablation(42, cfg, C, &[0.0, 0.01, 0.05, 0.2]),
            ),
            (
                "A5: simulation tick sensitivity (ail)",
                ablations::run_tick_ablation(42, cfg, C, &ticks),
            ),
        ])
    }),
];

/// Resolves `argv` (the arguments after the program name) to an
/// experiment and its arguments, or to the usage text to print.
fn parse(argv: &[String]) -> Result<(Run, Args), String> {
    let list = || {
        let lines: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(name, usage, _)| format!("  modb-exp {name} {usage}").trim_end().to_string())
            .collect();
        let head = "usage: modb-exp <name> [numbers…], the numbers positional, each shown \
                    as name=default:";
        format!("{head}\n{}", lines.join("\n"))
    };
    let (name, rest) = argv.split_first().ok_or_else(list)?;
    let Some((_, usage, run)) = EXPERIMENTS.iter().find(|e| e.0 == name) else {
        return Err(format!("unknown experiment {name:?}; {}", list()));
    };
    let bad = |why: String| {
        format!("{why}\nusage: modb-exp {name} {usage}")
            .trim_end()
            .into()
    };
    let number = |text: &str, int: bool| match int {
        true => text.parse::<usize>().ok().map(|v| v as f64),
        false => text.parse::<f64>().ok().filter(|v| v.is_finite()),
    };
    let (mut params, mut flag, mut sizes) = (Vec::new(), None, "");
    for token in usage.split_whitespace() {
        match token.split_once('=') {
            None => flag = Some(token),
            Some((_, list)) if token.contains('…') => sizes = list,
            Some((name, default)) => {
                let value = default.parse::<f64>().expect("a usage number");
                params.push((name, value, !default.contains('.')));
            }
        }
    }
    let mut args = Args {
        values: Vec::new(),
        flag: None,
        sizes: Vec::new(),
    };
    for arg in rest {
        if arg.starts_with("--") {
            if flag != Some(arg.as_str()) {
                return Err(bad(format!("unknown flag {arg}")));
            }
            args.flag = flag;
        } else if let Some(&(name, _, int)) = params.get(args.values.len()) {
            let want = if int { "a whole number" } else { "a number" };
            let value =
                number(arg, int).ok_or_else(|| bad(format!("{name} wants {want}, got {arg:?}")))?;
            args.values.push((name, value));
        } else if let (false, Ok(size)) = (sizes.is_empty(), arg.parse()) {
            args.sizes.push(size);
        } else {
            return Err(bad(format!("surplus or malformed argument {arg:?}")));
        }
    }
    let omitted = params[args.values.len()..].iter();
    args.values
        .extend(omitted.map(|&(name, default, _)| (name, default)));
    if args.sizes.is_empty() && !sizes.is_empty() {
        args.sizes = sizes
            .split(',')
            .map(|s| s.parse().expect("a usage size"))
            .collect();
    }
    Ok((*run, args))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (run, args) = parse(&argv).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    eprintln!("modb-exp {}:{args}", argv[0]);
    let report = run(&args);
    print!("{}", report.text);
    for failure in &report.failures {
        eprintln!("FAIL: {failure}");
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_sim::experiments::policy_sweep::SweepCell;
    use modb_sim::AggregateMetrics;

    fn parse_line(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv).map(|(_, args)| args)
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        // At the parent the first three ran with their defaults.
        for line in [
            "t1 2.5",
            "f1-f3 --baseline",
            "t1 100 5 7",
            "f4 1 x",
            "f5 10 --sizes 500",
            "f5 10 500 1e3",
            "t3 -1",
        ] {
            assert!(parse_line(line).is_err(), "{line} parsed");
        }
    }

    #[test]
    fn an_unknown_name_lists_the_experiments() {
        assert_eq!(EXPERIMENTS.len(), 10);
        // W6 was retired with the sharded cluster, W1, W2 and W5 for the
        // ledger rows that measure them, and W4, W7, W9 and W10 for the
        // ledger rows and tier-1 tests that hold them; their names are
        // unknown now.
        for line in [
            "", "f8", "savings", "w1", "w2", "w4", "w5", "w6", "w7", "w9", "w10",
        ] {
            let usage = parse_line(line).expect_err("a usage error");
            for (name, spec, _) in EXPERIMENTS {
                let line = format!("modb-exp {name} {spec}");
                assert!(usage.contains(line.trim_end()), "{usage}");
            }
        }
    }

    #[test]
    fn every_entry_parses_its_own_defaults() {
        for (name, _, _) in EXPERIMENTS {
            let defaults = parse_line(name).unwrap_or_else(|usage| panic!("{usage}"));
            let mut argv = vec![name.to_string()];
            argv.extend(defaults.values.iter().map(|(_, v)| v.to_string()));
            argv.extend(defaults.sizes.iter().map(|s| s.to_string()));
            assert_eq!(parse(&argv).map(|(_, args)| args), Ok(defaults), "{name}");
        }
    }

    #[test]
    fn clamps_flags_and_sizes_resolve() {
        let args = parse_line("f1-f3 5 --baselines").expect("parses");
        assert_eq!(
            (args.n(0), args.x(1), args.flag),
            (5, 60.0, Some("--baselines"))
        );
        let args = parse_line("f5 10 500 2000").expect("parses");
        assert_eq!((args.n(0), args.sizes), (10, vec![500, 2000]));
        assert_eq!(
            parse_line("f5").expect("parses").sizes,
            [1_000, 5_000, 20_000, 50_000]
        );
    }

    #[test]
    fn one_bound_violation_is_a_failure() {
        let metrics = |bound_violations| AggregateMetrics {
            bound_violations,
            ..Default::default()
        };
        let row = |v| AblationRow {
            variant: "v".into(),
            metrics: metrics(v),
        };
        let tables = [("A1", vec![row(0)]), ("A2", vec![row(0), row(1)])];
        let broken = ablations_report(&tables);
        assert!(ablations_report(&tables[..1]).failures.is_empty());
        assert_eq!(broken.failures.len(), 1, "{broken:?}");
        assert!(broken.failures[0].starts_with("A2"));
        // Stdout is the tables alone, broken bound or not.
        let printed = tables.map(|(title, rows)| ablations::ablation_table(title, &rows) + "\n");
        assert_eq!(broken.text, printed.concat());

        let cell = SweepCell {
            c: 5.0,
            policy: "ail".into(),
            metrics: metrics(1),
        };
        let sweep = SweepResult {
            cells: vec![cell],
            policies: vec!["ail".into()],
            c_values: vec![5.0],
        };
        assert_eq!(sweep_report(&sweep).failures.len(), 1);

        let savings = SavingsRow {
            policy: "dl".into(),
            messages: 1.0,
            traditional_messages: 5.0,
            ratio: 0.2,
            matched_tolerance: 0.5,
            matched_deviation: 0.2,
            bound_violations: 1,
        };
        assert_eq!(savings_report(&[savings], 5.0).failures.len(), 1);
    }
}
