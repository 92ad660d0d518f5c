//! Cross-model replay: record an execution in one communication model and
//! replay it in another through the paper's constructive realizations,
//! checking the Definition 3.2 trace relation along the way.
//!
//! Run with `cargo run --example cross_model_replay`.

use routelab::core::model::CommModel;
use routelab::engine::paper_runs;
use routelab::engine::runner::Runner;
use routelab::realize::plan::{apply_route, plan_route};
use routelab::realize::verify::verify_path;
use routelab::realize::Registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The REO execution of Example A.2 — 13 steps that set up the Fig. 6
    // oscillation.
    let (run, _) = paper_runs::a2_reo();
    let from: CommModel = "REO".parse()?;
    println!("source: Example A.2's {} steps in {from}", run.seq.len());

    for target in ["RMO", "RMS", "UMS", "R1S", "R1O"] {
        let to: CommModel = target.parse()?;
        let Ok(route) = plan_route(Registry::global(), from, to) else {
            println!("{to}: no realization chain exists");
            continue;
        };
        let hops: Vec<String> =
            route.edges().iter().map(|e| format!("{}({:?})", e.realizer, e.kind)).collect();
        let out = apply_route(&run.instance, &run.seq, &route)?;
        let report = verify_path(&run.instance, &run.seq, from, to)?.expect("chain exists");
        println!(
            "{to}: chain {} -> [{}], {} steps, claimed {}, achieved {:?}, holds = {}",
            from,
            hops.join(" -> "),
            out.seq.len(),
            report.claimed,
            report.achieved,
            report.holds()
        );
    }

    // Show the realized trace in the strongest target.
    let to: CommModel = "RMS".parse()?;
    let route = plan_route(Registry::global(), from, to)?;
    let out = apply_route(&run.instance, &run.seq, &route)?;
    let trace = Runner::trace_of(&run.instance, &out.seq);
    println!("\nrealized RMS trace (identical to the REO one):");
    print!("{}", trace.render(&run.instance));
    Ok(())
}
