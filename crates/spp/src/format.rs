//! A small line-oriented text format for SPP instances.
//!
//! ```text
//! spp v1
//! node d
//! node x
//! node y
//! edge x d
//! edge y d
//! edge x y
//! dest d
//! prefs x xyd xd
//! prefs y yxd yd
//! ```
//!
//! * Paths in `prefs` lines are most preferred first, written in the
//!   [`SppInstance::fmt_path`] style (single-character names concatenated,
//!   multi-character names joined by `-`), so node names cannot contain
//!   `-`.
//! * Paths of equal rank are joined by a `=` token: `prefs u uad = uavd vd`
//!   ranks `uad` and `uavd` first and `vd` second. Validation allows a tie
//!   only between paths through one next hop.
//! * `dest` must name a node of the instance.
//! * `#` begins a comment; blank lines are ignored.

use crate::error::SppError;
use crate::instance::{SppBuilder, SppInstance};

/// Serializes an instance to the text format.
///
/// ```
/// use routelab_spp::{format, gadgets};
/// let inst = gadgets::disagree();
/// let text = format::to_text(&inst);
/// let back = format::from_text(&text)?;
/// assert_eq!(inst, back);
/// # Ok::<(), routelab_spp::SppError>(())
/// ```
pub fn to_text(inst: &SppInstance) -> String {
    let mut out = String::from("spp v1\n");
    for v in inst.nodes() {
        out.push_str(&format!("node {}\n", inst.name(v)));
    }
    // Each undirected edge once, endpoints in id order.
    for v in inst.nodes() {
        for &u in inst.graph().neighbors(v) {
            if v < u {
                out.push_str(&format!("edge {} {}\n", inst.name(v), inst.name(u)));
            }
        }
    }
    out.push_str(&format!("dest {}\n", inst.name(inst.dest())));
    for v in inst.nodes() {
        if v == inst.dest() || inst.permitted(v).is_empty() {
            continue;
        }
        let groups: Vec<String> = inst
            .permitted(v)
            .chunk_by(|a, b| a.rank == b.rank)
            .map(|tie| tie.iter().map(|rp| inst.fmt_path(&rp.path)).collect::<Vec<_>>().join(" = "))
            .collect();
        out.push_str(&format!("prefs {} {}\n", inst.name(v), groups.join(" ")));
    }
    out
}

/// Parses an instance from the text format.
///
/// # Errors
///
/// Returns [`SppError::Parse`] for malformed input and instance validation
/// errors for well-formed but inconsistent data.
pub fn from_text(text: &str) -> Result<SppInstance, SppError> {
    let mut builder = SppBuilder::new();
    let mut dest: Option<(String, usize)> = None;
    let mut prefs: Vec<(&str, Vec<(&str, u32)>)> = Vec::new();
    let mut saw_header = false;

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("non-empty line has a token");
        let err = |message: &str| SppError::Parse { line: ln + 1, message: message.to_string() };
        let name = |token| node_name(token, ln + 1);
        match keyword {
            "spp" => {
                if tokens.next() != Some("v1") {
                    return Err(err("expected `spp v1` header"));
                }
                saw_header = true;
            }
            "node" => {
                builder.node(name(tokens.next().ok_or_else(|| err("node needs a name"))?)?);
            }
            "edge" => {
                let a = tokens.next().ok_or_else(|| err("edge needs two endpoints"))?;
                let b = tokens.next().ok_or_else(|| err("edge needs two endpoints"))?;
                builder.edge(name(a)?, name(b)?)?;
            }
            "dest" => {
                let d = tokens.next().ok_or_else(|| err("dest needs a name"))?;
                dest = Some((d.to_string(), ln + 1));
            }
            "prefs" => {
                let v = tokens.next().ok_or_else(|| err("prefs needs a node"))?;
                // Each path with its place in the preference; `=` ties the
                // next path to the one before it.
                let mut paths: Vec<(&str, u32)> = Vec::new();
                let mut tied = false;
                for token in tokens {
                    match (token, paths.last()) {
                        ("=", Some(_)) if !tied => tied = true,
                        ("=", _) => return Err(err("`=` must stand between two paths")),
                        (path, last) => {
                            let place = last.map_or(0, |&(_, p)| p + u32::from(!tied));
                            paths.push((path, place));
                            tied = false;
                        }
                    }
                }
                if paths.is_empty() {
                    return Err(err("prefs needs at least one path"));
                }
                if tied {
                    return Err(err("`=` must stand between two paths"));
                }
                prefs.push((v, paths));
            }
            other => {
                return Err(SppError::Parse {
                    line: ln + 1,
                    message: format!("unknown keyword {other:?}"),
                });
            }
        }
    }

    if !saw_header {
        return Err(SppError::Parse { line: 1, message: "missing `spp v1` header".into() });
    }
    let (dest, line) =
        dest.ok_or(SppError::Parse { line: 1, message: "missing `dest` line".into() })?;
    let d = builder.node_id(&dest).map_err(|_| SppError::Parse {
        line,
        message: format!("dest {dest:?} is not a declared node"),
    })?;
    builder.dest(d)?;
    for (v, paths) in &prefs {
        builder.prefer_named_ranked(v, paths.iter().copied())?;
    }
    builder.build()
}

/// A node-name token of line `line`. `-` joins names in paths, so a name
/// holding it could never be written in a `prefs` line.
fn node_name(token: &str, line: usize) -> Result<&str, SppError> {
    if token.contains('-') {
        let message = format!("node name {token:?} contains the path separator `-`");
        return Err(SppError::Parse { line, message });
    }
    Ok(token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets;

    #[test]
    fn corpus_round_trips() {
        for (name, inst) in gadgets::corpus() {
            let text = to_text(&inst);
            let back = from_text(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(inst, back, "{name}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
# DISAGREE
spp v1

node d
node x
node y
edge x d   # direct
edge y d
edge x y
dest d
prefs x xyd xd
prefs y yxd yd
";
        let inst = from_text(text).unwrap();
        assert_eq!(inst, gadgets::disagree());
    }

    #[test]
    fn missing_header_rejected() {
        assert!(matches!(from_text("node d\ndest d\n"), Err(SppError::Parse { .. })));
    }

    #[test]
    fn missing_dest_rejected() {
        assert!(matches!(from_text("spp v1\nnode d\n"), Err(SppError::Parse { .. })));
    }

    #[test]
    fn unknown_keyword_rejected() {
        let e = from_text("spp v1\nfrobnicate d\n").unwrap_err();
        assert!(matches!(e, SppError::Parse { line: 2, .. }), "{e}");
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in ["spp v1\nnode\n", "spp v1\nedge x\n", "spp v1\nprefs x\n", "spp v2\n"] {
            assert!(from_text(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn undeclared_dest_rejected() {
        // Used to add an isolated destination node `q` silently.
        let e = from_text("spp v1\nnode d\ndest q\n").unwrap_err();
        assert!(matches!(e, SppError::Parse { line: 3, .. }), "{e}");
    }

    #[test]
    fn path_separator_in_node_name_rejected() {
        // A `-` in a name made the node unwritable in `prefs` lines, and its
        // printed form did not parse back.
        for (bad, line) in
            [("spp v1\nnode d\nnode a-b\ndest d\n", 3), ("spp v1\nnode d\nedge a-b d\ndest d\n", 3)]
        {
            let e = from_text(bad).unwrap_err();
            assert!(matches!(e, SppError::Parse { line: l, .. } if l == line), "{bad:?}: {e}");
        }
    }

    #[test]
    fn unknown_path_name_rejected() {
        let text = "spp v1\nnode d\nnode x\nedge x d\ndest d\nprefs x xzd\n";
        assert!(matches!(from_text(text), Err(SppError::UnknownName { .. })));
    }

    #[test]
    fn rank_ties_round_trip() {
        let text = "spp v1\nnode d\nnode u\nnode v\nnode a\nedge d v\nedge d a\nedge u v\n\
                    edge u a\nedge v a\ndest d\nprefs u uad = uavd\nprefs v vuad vd\n";
        let inst = from_text(text).unwrap();
        let u = inst.node_by_name("u").unwrap();
        let ranks: Vec<u32> = inst.permitted(u).iter().map(|rp| rp.rank).collect();
        assert_eq!(ranks, [1, 1]);
        assert_eq!(to_text(&inst), text);
        assert_eq!(from_text(&to_text(&inst)).unwrap(), inst);
    }

    #[test]
    fn misplaced_tie_tokens_rejected() {
        let head = "spp v1\nnode d\nnode x\nnode y\nedge x d\nedge y d\nedge x y\ndest d\n";
        for prefs in ["prefs x = xd", "prefs x xd =", "prefs x xyd = = xd", "prefs x ="] {
            let e = from_text(&format!("{head}{prefs}\n")).unwrap_err();
            assert!(matches!(e, SppError::Parse { line: 9, .. }), "{prefs}: {e}");
        }
    }

    #[test]
    fn ties_through_two_next_hops_are_rank_tie_errors() {
        let text = "spp v1\nnode d\nnode x\nnode y\nedge x d\nedge y d\nedge x y\ndest d\n\
                    prefs x xyd = xd\n";
        assert!(matches!(from_text(text), Err(SppError::RankTie { rank: 1, .. })));
    }

    #[test]
    fn multichar_names_round_trip() {
        let text = "\
spp v1
node dst
node v10
edge v10 dst
dest dst
prefs v10 v10-dst
";
        let inst = from_text(text).unwrap();
        let back = from_text(&to_text(&inst)).unwrap();
        assert_eq!(inst, back);
    }
}
