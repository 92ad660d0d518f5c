//! Golden snapshots for the registry-backed CLI surface: `routelab
//! transforms list`, the `routelab pipeline` runs `"fig6 | split | pad |
//! verify"` and `"bad-gadget | U1S | elide | coalesce | flag | verify"`,
//! and a verified `routelab plan` route — byte-for-byte
//! against `tests/golden/`, rendered through the same
//! `routelab::sim::pipeline` code path the binary prints. Typed-error
//! cases (unknown names, model-incompatible stages) ride along.
//!
//! To regenerate after an intentional rendering change:
//!
//! ```text
//! ROUTELAB_BLESS=1 cargo test --test golden_cli
//! ```

use std::fs;
use std::path::PathBuf;

use routelab::core::model::CommModel;
use routelab::realize::plan::PipelineError;
use routelab::realize::registry::Registry;
use routelab::sim::pipeline::{render_pipeline, render_plan, render_transforms_list};
use routelab::spp::gadgets;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

fn check(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("ROUTELAB_BLESS").is_some() {
        fs::write(&path, rendered).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `ROUTELAB_BLESS=1 cargo test --test golden_cli`",
            path.display()
        )
    });
    assert_eq!(
        rendered, want,
        "{name}: rendered output differs from the golden snapshot; if the \
         change is intentional, regenerate with `ROUTELAB_BLESS=1 cargo test \
         --test golden_cli` and commit the diff"
    );
}

#[test]
fn transforms_list_matches_golden() {
    check("transforms_list", &render_transforms_list(Registry::global()));
}

#[test]
fn pipeline_fig6_split_pad_verify_matches_golden() {
    let out = render_pipeline(Registry::global(), "fig6 | split | pad | verify")
        .expect("the flagship pipeline type-checks and runs");
    check("pipeline_fig6", &out);
}

#[test]
fn pipeline_bad_gadget_u1s_elide_coalesce_flag_verify_matches_golden() {
    let out =
        render_pipeline(Registry::global(), "bad-gadget | U1S | elide | coalesce | flag | verify")
            .expect("U1S -> U1O -> R1S -> R1O type-checks and runs");
    check("pipeline_bad_gadget_u1s", &out);
}

#[test]
fn plan_rea_ums_matches_golden() {
    let inst = gadgets::fig6();
    let from: CommModel = "REA".parse().unwrap();
    let to: CommModel = "UMS".parse().unwrap();
    let out =
        render_plan(Registry::global(), &inst, "FIG6", from, to).expect("REA realizes inside UMS");
    check("plan_rea_ums", &out);
}

#[test]
fn unknown_stage_name_is_a_typed_error() {
    let err = render_pipeline(Registry::global(), "fig6 | frobnicate | verify").unwrap_err();
    assert_eq!(err, PipelineError::Unknown { stage: 1, name: "frobnicate".into() });
    let shown = err.to_string();
    assert!(shown.contains("stage 2"), "{shown}");
    assert!(shown.contains("frobnicate"), "{shown}");
    assert!(shown.contains("transforms list"), "{shown}");
}

#[test]
fn model_incompatible_stage_is_a_typed_error() {
    // coalesce goes U1O -> R1S; no start model lets it apply twice in a row.
    let err = render_pipeline(Registry::global(), "fig6 | coalesce | coalesce").unwrap_err();
    let PipelineError::Incompatible { stage: 2, ref name, from } = err else {
        panic!("expected Incompatible, got {err:?}");
    };
    assert_eq!(name, "coalesce");
    assert_eq!(from, "R1S".parse::<CommModel>().unwrap());
    assert!(err.to_string().contains("stage 3"), "{err}");
}

#[test]
fn pinned_model_mismatch_is_a_typed_error() {
    // Pinning RES after split contradicts split's R1S output.
    let err = render_pipeline(Registry::global(), "fig6 | RMS | split | RES").unwrap_err();
    assert!(
        matches!(err, PipelineError::PinMismatch { stage: 3, .. }),
        "expected PinMismatch, got {err:?}"
    );
}

#[test]
fn no_route_error_names_both_models() {
    let inst = gadgets::fig6();
    let from: CommModel = "R1O".parse().unwrap();
    let to: CommModel = "REA".parse().unwrap();
    let err = render_plan(Registry::global(), &inst, "FIG6", from, to).unwrap_err();
    assert_eq!((err.from, err.to), (from, to));
    let shown = err.to_string();
    assert!(shown.contains("R1O") && shown.contains("REA"), "{shown}");
}
