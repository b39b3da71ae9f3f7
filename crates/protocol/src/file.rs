//! The `.stab` protocol file format.
//!
//! A small line-oriented format bundling everything a parameterized ring
//! protocol needs — domain, locality, legitimate predicate, actions — so
//! protocols can live in files and be driven by the `selfstab` CLI:
//!
//! ```text
//! # Sum-not-two (Farahat & Ebnenasir, §6.2)
//! protocol sum-not-two
//! domain x { 0 1 2 }
//! locality unidirectional
//! legit x[r] + x[r-1] != 2
//!
//! action (x[r] + x[r-1] == 2) && (x[r] != 2) -> x[r] := (x[r] + 1) % 3
//! action (x[r] + x[r-1] == 2) && (x[r] == 2) -> x[r] := (x[r] - 1) % 3
//! ```
//!
//! Grammar (one declaration per line, `#` starts a comment):
//!
//! * `protocol <name>` — required first declaration;
//! * `domain <var> { <label> ... }` — the owned variable and its values;
//! * `locality unidirectional | bidirectional | (<left>, <right>)`;
//! * `legit <boolean expression>` — the local predicate `LC_r`;
//! * `action <guard> -> <var>[r] := <rhs> (| <rhs>)*` — zero or more.
//!
//! The domain and the locality together may span at most
//! [`MAX_LOCAL_STATES`] local states.

use crate::domain::Domain;
use crate::error::ProtocolError;
use crate::locality::Locality;
use crate::protocol::{Protocol, ProtocolBuilder};

/// The most local states (`d^w`, for `d` domain values and a read window
/// of `w` positions) a file may declare. Building a protocol evaluates the
/// legitimate predicate on every local state and keeps per-state tables
/// (an action index of 24 bytes per state, among others), so this bounds
/// the memory one parsed file can ask for to tens of megabytes.
pub const MAX_LOCAL_STATES: u64 = 1 << 20;

fn err(line_no: usize, message: impl Into<String>) -> ProtocolError {
    ProtocolError::Parse {
        position: line_no,
        message: format!("line {line_no}: {}", message.into()),
    }
}

/// Parses a `.stab` protocol definition from source text.
///
/// # Errors
///
/// Returns [`ProtocolError`] with a line-numbered message on any syntax or
/// semantic problem (missing declarations, unknown labels, expressions
/// outside the locality, empty `LC_r`, …).
///
/// # Examples
///
/// ```
/// use selfstab_protocol::file::parse_protocol_file;
///
/// let src = "
/// protocol agreement
/// domain x { 0 1 }
/// locality unidirectional
/// legit x[r] == x[r-1]
/// action x[r-1] == 1 && x[r] == 0 -> x[r] := 1
/// ";
/// let p = parse_protocol_file(src)?;
/// assert_eq!(p.name(), "agreement");
/// assert_eq!(p.transitions().count(), 1);
/// # Ok::<(), selfstab_protocol::ProtocolError>(())
/// ```
pub fn parse_protocol_file(source: &str) -> Result<Protocol, ProtocolError> {
    let mut name: Option<String> = None;
    let mut domain: Option<Domain> = None;
    let mut locality: Option<Locality> = None;
    let mut legit: Option<(usize, String)> = None;
    let mut actions: Vec<(usize, String)> = Vec::new();
    // The line of the later of the domain and locality declarations: the
    // one that fixes the size of the local state space.
    let mut space_line = 0;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        match keyword {
            "protocol" => {
                if name.is_some() {
                    return Err(err(line_no, "duplicate `protocol` declaration"));
                }
                if rest.is_empty() || rest.contains(char::is_whitespace) {
                    return Err(err(line_no, "expected `protocol <name>`"));
                }
                name = Some(rest.to_owned());
            }
            "domain" => {
                if domain.is_some() {
                    return Err(err(line_no, "duplicate `domain` declaration"));
                }
                domain = Some(parse_domain(line_no, rest)?);
                space_line = line_no;
            }
            "locality" => {
                if locality.is_some() {
                    return Err(err(line_no, "duplicate `locality` declaration"));
                }
                locality = Some(parse_locality(line_no, rest)?);
                space_line = line_no;
            }
            "legit" => {
                if legit.is_some() {
                    return Err(err(line_no, "duplicate `legit` declaration"));
                }
                if rest.is_empty() {
                    return Err(err(line_no, "expected `legit <expression>`"));
                }
                legit = Some((line_no, rest.to_owned()));
            }
            "action" => {
                if rest.is_empty() {
                    return Err(err(line_no, "expected `action <guard> -> <assignment>`"));
                }
                actions.push((line_no, rest.to_owned()));
            }
            other => {
                return Err(err(
                    line_no,
                    format!("unknown declaration `{other}` (expected protocol/domain/locality/legit/action)"),
                ));
            }
        }
    }

    let name = name.ok_or_else(|| err(0, "missing `protocol <name>` declaration"))?;
    let domain = domain.ok_or_else(|| err(0, "missing `domain` declaration"))?;
    let locality = locality.unwrap_or_default();
    let (legit_line, legit_src) = legit.ok_or_else(|| err(0, "missing `legit` declaration"))?;
    if !space_fits(domain.size(), locality.window_width()) {
        return Err(err(
            space_line,
            format!(
                "{} values over a {}-position window exceed the limit of \
                 {MAX_LOCAL_STATES} local states",
                domain.size(),
                locality.window_width()
            ),
        ));
    }

    let mut builder: ProtocolBuilder = Protocol::builder(&name, domain, locality);
    for (line_no, src) in &actions {
        builder = builder
            .action(src)
            .map_err(|e| err(*line_no, e.to_string()))?;
    }
    builder
        .legit(&legit_src)
        .map_err(|e| err(legit_line, e.to_string()))?
        .build()
}

/// Whether `d^w` is at most [`MAX_LOCAL_STATES`].
fn space_fits(d: usize, w: usize) -> bool {
    (d as u64)
        .checked_pow(w as u32)
        .is_some_and(|states| states <= MAX_LOCAL_STATES)
}

fn parse_domain(line_no: usize, rest: &str) -> Result<Domain, ProtocolError> {
    // `<var> { <label> ... }`
    let open = rest
        .find('{')
        .ok_or_else(|| err(line_no, "expected `domain <var> { <labels> }`"))?;
    let close = rest
        .rfind('}')
        .filter(|&c| c > open)
        .ok_or_else(|| err(line_no, "missing closing `}` in domain"))?;
    let var = rest[..open].trim();
    if var.is_empty() || var.contains(char::is_whitespace) {
        return Err(err(line_no, "expected a single variable name before `{`"));
    }
    let labels: Vec<&str> = rest[open + 1..close].split_whitespace().collect();
    if labels.is_empty() {
        return Err(err(line_no, "domain must list at least one value"));
    }
    if labels.len() > u8::MAX as usize {
        return Err(err(line_no, "domain too large (max 255 values)"));
    }
    for (i, l) in labels.iter().enumerate() {
        if labels[..i].contains(l) {
            return Err(err(line_no, format!("duplicate domain label `{l}`")));
        }
    }
    Ok(Domain::named(var, labels))
}

fn parse_locality(line_no: usize, rest: &str) -> Result<Locality, ProtocolError> {
    match rest {
        "unidirectional" => Ok(Locality::unidirectional()),
        "bidirectional" => Ok(Locality::bidirectional()),
        other => {
            // `(<left>, <right>)`
            let inner = other
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| {
                    err(
                        line_no,
                        "expected `unidirectional`, `bidirectional`, or `(<left>, <right>)`",
                    )
                })?;
            let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
            if parts.len() != 2 {
                return Err(err(line_no, "expected two comma-separated spans"));
            }
            let left: usize = parts[0]
                .parse()
                .map_err(|_| err(line_no, "left span must be a number"))?;
            let right: usize = parts[1]
                .parse()
                .map_err(|_| err(line_no, "right span must be a number"))?;
            if left > Locality::MAX_SPAN || right > Locality::MAX_SPAN {
                return Err(err(
                    line_no,
                    format!("locality spans limited to {}", Locality::MAX_SPAN),
                ));
            }
            Ok(Locality::new(left, right))
        }
    }
}

/// Renders a protocol back into the `.stab` format.
///
/// Uses the original action sources when available and the merged-guard
/// summary otherwise, so `parse(render(p))` defines the same protocol.
pub fn render_protocol_file(protocol: &Protocol) -> String {
    let mut out = String::new();
    out.push_str(&format!("protocol {}\n", protocol.name()));
    let labels: Vec<&str> = protocol
        .domain()
        .values()
        .map(|v| protocol.domain().label(v))
        .collect();
    out.push_str(&format!(
        "domain {} {{ {} }}\n",
        protocol.domain().variable(),
        labels.join(" ")
    ));
    let loc = protocol.locality();
    let loc_text = if loc == Locality::unidirectional() {
        "unidirectional".to_owned()
    } else if loc == Locality::bidirectional() {
        "bidirectional".to_owned()
    } else {
        format!("({}, {})", loc.left(), loc.right())
    };
    out.push_str(&format!("locality {loc_text}\n"));
    if protocol.legit_source().is_empty() {
        // Extensional fallback: enumerate the legitimate windows.
        let disjuncts: Vec<String> = protocol
            .legit()
            .states()
            .map(|id| {
                let vals = protocol.space().decode(id);
                let conj: Vec<String> = vals
                    .iter()
                    .enumerate()
                    .map(|(pos, &v)| {
                        let off = loc.offset_of(pos);
                        let var = match off {
                            0 => format!("{}[r]", protocol.domain().variable()),
                            o if o < 0 => format!("{}[r{o}]", protocol.domain().variable()),
                            o => format!("{}[r+{o}]", protocol.domain().variable()),
                        };
                        format!("{var} == {}", protocol.domain().label(v))
                    })
                    .collect();
                format!("({})", conj.join(" && "))
            })
            .collect();
        out.push_str(&format!("legit {}\n", disjuncts.join(" || ")));
    } else {
        out.push_str(&format!("legit {}\n", protocol.legit_source()));
    }
    out.push('\n');
    if protocol.actions().is_empty() {
        for line in crate::display::summarize_transitions(protocol) {
            out.push_str(&format!("action {line}\n"));
        }
    } else {
        for a in protocol.actions() {
            out.push_str(&format!("action {a}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUM_NOT_TWO: &str = "
# Sum-not-two (Farahat & Ebnenasir, §6.2)
protocol sum-not-two
domain x { 0 1 2 }
locality unidirectional
legit x[r] + x[r-1] != 2

action (x[r] + x[r-1] == 2) && (x[r] != 2) -> x[r] := (x[r] + 1) % 3
action (x[r] + x[r-1] == 2) && (x[r] == 2) -> x[r] := (x[r] - 1) % 3
";

    #[test]
    fn parses_complete_file() {
        let p = parse_protocol_file(SUM_NOT_TWO).unwrap();
        assert_eq!(p.name(), "sum-not-two");
        assert_eq!(p.domain().size(), 3);
        assert_eq!(p.locality(), Locality::unidirectional());
        assert_eq!(p.transition_count(), 3);
        assert_eq!(p.legit().len(), 6);
    }

    #[test]
    fn named_labels_and_bidirectional() {
        let src = "
protocol matching
domain m { left right self }
locality bidirectional
legit (m[r] == right && m[r+1] == left) || (m[r-1] == right && m[r] == left) || (m[r-1] == left && m[r] == self && m[r+1] == right)
action m[r-1] == left && m[r] != self && m[r+1] == right -> m[r] := self
";
        let p = parse_protocol_file(src).unwrap();
        assert_eq!(p.locality(), Locality::bidirectional());
        assert_eq!(p.legit().len(), 7);
        assert_eq!(p.transition_count(), 2);
    }

    #[test]
    fn explicit_span_locality() {
        let src = "
protocol wide
domain x { 0 1 }
locality (2, 1)
legit x[r] == x[r-1]
";
        let p = parse_protocol_file(src).unwrap();
        assert_eq!(p.locality(), Locality::new(2, 1));
    }

    #[test]
    fn missing_declarations_are_reported() {
        assert!(parse_protocol_file("domain x { 0 1 }\nlegit x[r] == 0")
            .unwrap_err()
            .to_string()
            .contains("protocol"));
        assert!(parse_protocol_file("protocol p\nlegit x[r] == 0")
            .unwrap_err()
            .to_string()
            .contains("domain"));
        assert!(parse_protocol_file("protocol p\ndomain x { 0 1 }")
            .unwrap_err()
            .to_string()
            .contains("legit"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "protocol p\ndomain x { 0 1 }\nlocality unidirectional\nlegit x[r] === 0";
        let e = parse_protocol_file(src).unwrap_err();
        assert!(e.to_string().contains("line 4"), "{e}");
    }

    /// Arithmetic overflow in an assignment or a guard is a line-numbered
    /// error.
    #[test]
    fn overflowing_spec_arithmetic_is_a_parse_error() {
        let head = "protocol p\ndomain x { 0 1 }\nlocality unidirectional\nlegit x[r] == x[r-1]\n";
        for action in [
            "x[r-1] == 1 && x[r] == 0 -> x[r] := (0 - 9223372036854775807 - 1) % (0 - 1)",
            "x[r-1] == 1 && x[r] * 9223372036854775807 * 9223372036854775807 == 1 -> x[r] := 0",
        ] {
            let e = parse_protocol_file(&format!("{head}action {action}\n")).unwrap_err();
            assert!(e.to_string().contains("line 5"), "{e}");
            assert!(e.to_string().contains("integer overflow"), "{e}");
        }
    }

    /// A local state space above the limit is a parse error at the line
    /// that fixes its size, before any per-state table is built.
    #[test]
    fn oversized_local_state_spaces_are_refused() {
        let spec = |values: usize, locality: &str| {
            let labels: Vec<String> = (0..values).map(|v| v.to_string()).collect();
            format!(
                "protocol big\ndomain x {{ {} }}\nlocality {locality}\nlegit x[r] == x[r-1]\n",
                labels.join(" ")
            )
        };
        // 21^9 overflows u32; 102^3 = 1,061,208 is just over 2^20.
        for (values, locality) in [(21, "(4, 4)"), (102, "bidirectional")] {
            let e = parse_protocol_file(&spec(values, locality)).unwrap_err();
            assert!(e.to_string().contains("line 3"), "{e}");
            assert!(e.to_string().contains("1048576 local states"), "{e}");
        }
        // The boundary: 32^4 = 2^20 fits, 33^4 and 255^9 do not.
        assert!(space_fits(32, 4));
        assert!(space_fits(101, 3));
        assert!(!space_fits(33, 4));
        assert!(!space_fits(255, 9));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let src = "protocol p\nprotocol q\n";
        assert!(parse_protocol_file(src)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn unknown_keyword_rejected() {
        let e = parse_protocol_file("protocol p\nfoo bar\n").unwrap_err();
        assert!(e.to_string().contains("unknown declaration"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "
# header comment
protocol p   # trailing comment
domain x { 0 1 }

locality unidirectional
legit x[r] == x[r-1]
";
        assert!(parse_protocol_file(src).is_ok());
    }

    #[test]
    fn render_parse_roundtrip() {
        let p = parse_protocol_file(SUM_NOT_TWO).unwrap();
        let rendered = render_protocol_file(&p);
        let q = parse_protocol_file(&rendered).unwrap();
        assert_eq!(
            p.transitions().collect::<Vec<_>>(),
            q.transitions().collect::<Vec<_>>()
        );
        assert_eq!(p.legit(), q.legit());
        assert_eq!(p.name(), q.name());
    }

    #[test]
    fn render_synthesized_protocol_roundtrips() {
        let p = parse_protocol_file(SUM_NOT_TWO).unwrap();
        let synth = p.with_transitions("synth", p.transitions()).unwrap();
        let rendered = render_protocol_file(&synth);
        let q = parse_protocol_file(&rendered).unwrap();
        assert_eq!(
            synth.transitions().collect::<Vec<_>>(),
            q.transitions().collect::<Vec<_>>()
        );
    }
}
