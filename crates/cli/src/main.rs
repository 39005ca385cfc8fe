//! `helmsim` — command-line front end to the out-of-core LLM serving
//! simulator.
//!
//! ```text
//! helmsim serve    --model opt-175b --memory nvdram --placement helm --compress
//! helmsim serve    --pipelines 4 --scheduler jsq --continuous --lambda 0.1
//! helmsim maxbatch --model opt-175b --memory nvdram --placement all-cpu --compress
//! helmsim autoplace --objective throughput --memory nvdram
//! helmsim plan     --lambda 0.2 --slo-ms 60000 --target 0.9 --format json
//! helmsim energy   --model opt-175b --memory nvdram --placement all-cpu --batch 44
//! helmsim probe    --what bandwidth
//! helmsim list
//! ```

mod args;
mod commands;
mod select;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
helmsim — out-of-core LLM inference on heterogeeous memory (simulated)

USAGE:
  helmsim <command> [flags]

COMMANDS:
  serve       run one serving configuration, print TTFT/TBT/throughput
              (--pipelines switches to online cluster serving)
  maxbatch    solve the largest batch GPU memory allows
  autoplace   search per-layer-kind placements for a QoS objective
  plan        find the minimum-resource cluster meeting an SLO target
  energy      serve and report the energy breakdown (J/token)
  explain     per-layer kernel plan + transfer costing breakdown
  sweep       one-axis sweep (--axis batch|prompt|cxl)
  probe       platform characterization (--what bandwidth|mlc)
  trace-validate  check an exported chrome-trace file (--file)
  list        show accepted model/memory/placement names
  help        this message

COMMON FLAGS:
  --model <name>        (default opt-175b)
  --memory <name>       (default nvdram; cxl:<GB/s> for custom)
  --placement <name>    (default baseline)
  --batch <n>           (default 1)
  --gpu-batches <n>     micro-batches per weight load (default 1)
  --compress            store weights 4-bit group-quantized
  --kv-offload          keep the KV cache on the host tier
  --prompt <n>          input tokens (default 128)
  --gen <n>             output tokens (default 21)
  --csv <path>          also write the per-step timeline as CSV
  --audit               print conservation-audit ledgers (on by
                        default in debug builds)
  --trace-out <path>    serve/plan: export request span trees as
                        chrome-trace JSON (load in a trace viewer)
  --pipelines <n>       serve online through n pipeline replicas
  --mix <groups>        serve online through a mixed cluster, e.g.
                        helm:4,all-cpu:44x2 (placement:batch[xN])
  --scheduler <s>       cluster dispatch: rr|jsq|lft|edf (default rr)
  --admission <a>       cluster admission: accept|cap:<n>|deadline
                        (default accept)
  --continuous          admit requests at decode-step boundaries
  --granularity <g>     cluster decode events: coalesced|per-step
                        (default coalesced)
  --lambda <r>          Poisson arrival rate, req/s (default 0.05)
  --requests <n>        requests to serve online (default 60)
  --seed <n>            arrival-process seed (default 42)
  --format <f>          serve/plan output: text|json (default text)
  --objective <o>       autoplace: latency|throughput (default latency)
  --max-evals <n>       autoplace/plan: cap evaluations (0 = unlimited)
  --target <a>          plan: SLO-attainment target in [0,1] (default 0.95)
  --max-replicas <n>    plan: total replica cap (default 4)
  --probe-requests <n>  plan: requests per screening probe (default 200)
  --slo-ms <ms>         fixed per-request deadline (serve online / plan)
  --slo-tight-ms <ms>   plan: bimodal tight-class deadline
  --slo-loose-ms <ms>   plan: bimodal loose-class deadline
  --tight-frac <f>      plan: tight-class fraction (default 0.5)
  --what <w>            probe: bandwidth|mlc (default bandwidth)
  --axis <a>            sweep: batch|prompt|cxl (default batch)
";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let parsed = match Args::parse(argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(stray) = parsed.positional().first() {
        eprintln!("error: unexpected argument '{stray}' (flags use --name value)");
        return ExitCode::FAILURE;
    }
    let result = match command.as_str() {
        "serve" => commands::serve(&parsed),
        "maxbatch" => commands::maxbatch(&parsed),
        "autoplace" => commands::autoplace(&parsed),
        "plan" => commands::plan(&parsed),
        "energy" => commands::energy(&parsed),
        "probe" => commands::probe(&parsed),
        "explain" => commands::explain(&parsed),
        "sweep" => commands::sweep(&parsed),
        "trace-validate" => commands::trace_validate(&parsed),
        "list" => commands::list(&parsed),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(args::ArgError(format!(
            "unknown command '{other}'; try 'helmsim help'"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::USAGE;
    use crate::commands::{AUTOPLACE_FLAGS, PLAN_FLAGS, SERVE_FLAGS};

    #[test]
    fn usage_documents_every_accepted_flag() {
        for flag in [SERVE_FLAGS, AUTOPLACE_FLAGS, PLAN_FLAGS].concat() {
            assert!(USAGE.contains(&format!("--{flag} ")), "--{flag} missing");
        }
        assert!(!USAGE.contains("--threads"));
    }
}
