use cublastp_benchmark::batch::RunConfig;
use cublastp_benchmark::cli::{self, Command};
use cublastp_benchmark::suite::ResultFile;
use cublastp_benchmark::{compare, run, suite, workloads};

fn execute(command: Command) -> Result<bool, String> {
    match command {
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
            smoke,
        } => {
            let def = workloads::find(&workload).ok_or("unknown workload")?;
            let cfg = RunConfig {
                seed,
                seconds,
                smoke,
                trace,
                out_dir: cli::out_dir(),
            };
            let result = run::run_workload(def, &cfg)?;
            run::print(def, &cfg, &result);
            Ok(result.correct())
        }
        Command::Suite(options) => suite::run(&options).map(|()| true),
        Command::Compare { a, b } => {
            let (report, counts) =
                compare::compare(&ResultFile::load(&a)?, &ResultFile::load(&b)?)?;
            print!("{report}");
            Ok(counts[compare::Verdict::Regressed as usize] == 0)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cli::USAGE);
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let command = cli::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", cli::USAGE);
        std::process::exit(2);
    });
    match execute(command) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
