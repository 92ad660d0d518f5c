//! Policy audit: the workflow a protocol designer would run on a routing
//! configuration — enumerate stable solutions, look for dispute wheels, and
//! survey which communication models can make the network oscillate.
//!
//! Run with `cargo run --example policy_audit [spp-file]`; without an
//! argument it audits the paper's Fig. 6 instance.

use routelab::explore::graph::ExploreConfig;
use routelab::sim::survey::{survey_instance, SurveyConfig, SurveyOutcome};
use routelab::spp::solve::{enumerate_stable_assignments, fmt_assignment};
use routelab::spp::{dispute, format, gadgets};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inst = match std::env::args().nth(1) {
        Some(path) => format::from_text(&std::fs::read_to_string(path)?)?,
        None => gadgets::fig6(),
    };
    println!("{inst}");

    // 1. Stable solutions (the NP-complete core, brute-forced).
    let solutions = enumerate_stable_assignments(&inst, 5_000_000)?;
    println!("stable path assignments: {}", solutions.len());
    for s in &solutions {
        println!("  {}", fmt_assignment(&inst, s));
    }

    // 2. Dispute wheels: the broadest known sufficient condition for
    //    convergence is their absence.
    match dispute::find_dispute_wheel(&inst) {
        Some(wheel) => println!("dispute wheel: {}", wheel.display(&inst)),
        None => println!("no dispute wheel: every fair execution converges in every model"),
    }

    // 3. Per-model oscillation survey.
    let cfg = SurveyConfig {
        explore: ExploreConfig { channel_cap: 3, ..ExploreConfig::default() },
        ..SurveyConfig::default()
    };
    println!("\nper-model verdicts:");
    for entry in survey_instance(&inst, &cfg)? {
        let verdict = match entry.outcome {
            SurveyOutcome::Oscillates { via: None } => "can oscillate (exhaustive)".to_string(),
            SurveyOutcome::Oscillates { via: Some(p) } => {
                format!("can oscillate (realizes {p}'s oscillation)")
            }
            SurveyOutcome::Converges { via: None } => "always converges (exhaustive)".to_string(),
            SurveyOutcome::Converges { via: Some(p) } => {
                format!("always converges (realized by converging {p})")
            }
            SurveyOutcome::Unknown => "undecided within bounds".to_string(),
        };
        println!("  {}: {verdict}", entry.model);
    }
    Ok(())
}
