//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <serve_cold|serve_ingest|lodo_study> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Diagnostics go to standard error; the last line of standard output is
//! the result object. The exit code is 0 only when every output check
//! passed.

use perfbench::{run, Kind, Scale, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
            eprintln!(
                "{e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = run(
        args.kind,
        &Scale::full(),
        args.seed,
        args.seconds,
        args.trace,
    );
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
