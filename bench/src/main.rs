//! `bench` — the one gated benchmark of the arrow directory reproduction.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! bench [--smoke] [--traced] [--seed N] [--seconds S] [--out FILE]
//!                                                          all six, each in a child process
//! bench compare A.json B.json                              hold B against baseline A
//! bench --list                                             workloads and metrics by name
//! ```
//!
//! A single-workload run prints every metric by name with its unit and ends
//! its standard output with one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (every end-to-end metric of an untraced run, every per-layer
//! metric of a traced one). Any failed output check prints the offender and
//! makes the process exit non-zero. See `README.md` beside this package.

mod affinity;
mod compare;
mod gen;
mod json;
mod layers;
mod procfs;
mod report;
mod span;
mod spec;
mod stats;
mod workloads;

use json::Json;
use report::{Report, RunArgs};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
             [--smoke] [--out FILE]
       bench compare A.json B.json
       bench --list | --emit-benchmark-json | --help

  --workload NAME  run one workload in this process (default: all six, each in
                   a fresh child process)
  --seed N         drives schedules, client placement, arrival times and fault
                   victims (default 1)
  --seconds S      measured window of an untraced run (default 10); a traced
                   run measures one third of it per window
  --trace 0|1      1 = traced run: per-layer numbers, spans, artefacts under
                   bench/out/ (same as --traced)
  --smoke          every window at one twentieth: checks everything, gates nothing
  --out FILE       write the result set, with its provenance block, to FILE";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Cli {
    fn run_args(&self) -> RunArgs {
        RunArgs {
            seed: self.seed,
            seconds: self.seconds,
            traced: self.traced,
        }
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(name).is_none() {
                    return Err(format!("unknown workload {name:?} (see --list)"));
                }
                cli.workload = Some(name.to_string());
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds_given = true;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value("a file path")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.smoke && !seconds_given {
        cli.seconds = spec::RUN_SECONDS as f64 / spec::SMOKE_DIVISOR;
    }
    Ok(cli)
}

/// The commit of the checkout this binary was built in, read from `.git`
/// directly (no `git` process: it would search parent directories).
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(str::to_string))
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.len() >= 12 && rev.bytes().all(|b| b.is_ascii_hexdigit()) {
        rev[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// `YYYY-MM-DDTHH:MM:SSZ` from seconds since the Unix epoch (the civil-date
/// arithmetic of Howard Hinnant's `days_from_civil`, inverted).
fn utc_date(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

fn provenance(cli: &Cli) -> Json {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("git_rev", Json::str(git_rev())),
        ("utc_date", Json::str(utc_date(now))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        (
            "reactor_shards",
            Json::Num(
                arrow_net::NetConfig::instant().effective_shards(workloads::net::NODES) as f64,
            ),
        ),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("measured_window_s", Json::Num(cli.run_args().window_s())),
        ("traced", Json::Bool(cli.traced)),
        ("smoke", Json::Bool(cli.smoke)),
        (
            "gating",
            Json::Bool(!cli.smoke && !cli.traced && cli.seconds >= spec::RUN_SECONDS as f64),
        ),
    ])
}

fn write_result_file(path: &Path, cli: &Cli, results: Vec<Json>) -> Result<(), String> {
    let doc = Json::obj([
        ("provenance", provenance(cli)),
        ("results", Json::Arr(results)),
    ]);
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_one(cli: &Cli, name: &str) -> Result<Report, String> {
    let report = workloads::run(name, &cli.run_args())
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    print!("{}", report.render_text());
    for v in &report.violations {
        eprintln!("{name}: VIOLATION: {v}");
    }
    if let Some(path) = &cli.out {
        write_result_file(path, cli, vec![report.to_json()])?;
    }
    // The driver reads the last line of standard output.
    println!("{}", report.driver_line());
    Ok(report)
}

/// Run every workload in its own child process, so file descriptors, threads
/// and the peak resident set of one never leak into the next.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = workloads::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    if cli.smoke {
        println!(
            "smoke run: every window at 1/{} — all checks on, numbers do not gate anything",
            spec::SMOKE_DIVISOR
        );
    }
    let mut results = Vec::new();
    let mut all_ok = true;
    for w in spec::WORKLOADS {
        let tmp = dir.join(format!("result-{}-{}.json", std::process::id(), w.name));
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&tmp)
            .status()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
        let parsed = std::fs::read_to_string(&tmp)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text));
        let _ = std::fs::remove_file(&tmp);
        match parsed {
            Ok(doc) => results.extend(
                doc.get("results")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .cloned(),
            ),
            Err(e) => {
                eprintln!("{}: no result file: {e}", w.name);
                all_ok = false;
            }
        }
        if !status.success() {
            eprintln!("{}: child exited with {status}", w.name);
            all_ok = false;
        }
    }
    println!(
        "\n== end-to-end summary{} ==",
        if cli.smoke {
            " (smoke, non-gating)"
        } else {
            ""
        }
    );
    for r in &results {
        let name = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        let cells: Vec<String> = spec::END_TO_END
            .iter()
            .filter_map(|m| {
                let v = r.get("metrics")?.get(m.name)?.get("value")?.as_f64()?;
                Some(format!("{} {} {}", m.name, report::format_value(v), m.unit))
            })
            .collect();
        println!(
            "  {:<16} {}  [{}]",
            name,
            cells.join(", "),
            if r.get("correct") == Some(&Json::Bool(true)) {
                "correct"
            } else {
                "INCORRECT"
            }
        );
    }
    if let Some(path) = &cli.out {
        write_result_file(path, cli, results)?;
        println!("result set written to {}", path.display());
    }
    Ok(all_ok)
}

fn list() {
    println!("workloads:");
    for w in spec::WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!(
        "end-to-end metrics (untraced run; bound = allowed worsening vs the parent's median):"
    );
    for m in spec::END_TO_END {
        println!(
            "  {:<34} {:<12} {} is better, bound {:.0}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per-layer metrics (traced run; informational):");
    for m in spec::PER_LAYER {
        println!(
            "  {:<34} {:<12} {} is better",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".to_string());
    }
    Ok(!rows.iter().any(compare::Row::regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("--list") => {
            list();
            Ok(true)
        }
        Some("--emit-benchmark-json") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        _ => parse_cli(&args).and_then(|cli| match &cli.workload {
            Some(name) => run_one(&cli, name).map(|r| r.correct()),
            None => run_all(&cli),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let c = cli(&[
            "--workload",
            "net-churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("net-churn"));
        assert_eq!((c.seed, c.seconds, c.traced), (7, 10.0, true));
        let c = cli(&[
            "--workload",
            "sim-open-k1",
            "--seed",
            "2",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert!(!c.traced);
    }

    #[test]
    fn smoke_shrinks_the_default_window_only() {
        assert_eq!(cli(&["--smoke"]).unwrap().seconds, 0.5);
        assert_eq!(cli(&["--smoke", "--seconds", "2"]).unwrap().seconds, 2.0);
        assert_eq!(cli(&[]).unwrap().seconds, spec::RUN_SECONDS as f64);
        assert!(cli(&["--traced"]).unwrap().traced);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn utc_dates_are_civil() {
        assert_eq!(utc_date(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_date(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_date(1_790_598_896), "2026-09-28T12:34:56Z");
    }
}
