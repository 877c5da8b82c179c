//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload and print its metrics; the last line is the result
//! object. Exits 1 when any correctness check failed, 2 on bad
//! arguments.

use std::process::ExitCode;

use perfbench::report;
use perfbench::run::{self, Kind, Opts};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Opts {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = run::run(&opts);
    let verdict = report::verdict(&outcome);
    let metrics = if opts.trace {
        report::per_layer(&outcome)
    } else {
        report::end_to_end(&outcome)
    };
    for m in &metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &verdict.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report::detail_line(&outcome, &verdict));
    println!("{}", report::result_line(&verdict, &metrics));
    if verdict.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
