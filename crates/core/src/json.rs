//! JSON serialization of event structures and discovery problems, resolving
//! granularities by name against a [`Calendar`].
//!
//! Format:
//!
//! ```json
//! {
//!   "variables": ["X0", "X1", "X2"],
//!   "constraints": [
//!     { "from": 0, "to": 1, "lo": 1, "hi": 1, "granularity": "business-day" },
//!     { "from": 1, "to": 2, "lo": 0, "hi": 1, "granularity": "week" }
//!   ]
//! }
//! ```

use crate::{EventStructure, StructureBuilder, Tcg, VarId};
use tgm_events::minijson::{self, JsonError, Value};
use tgm_granularity::Calendar;

/// Most variables a structure document may declare. Everything downstream
/// is at least quadratic in the variable count (the reachability matrix
/// built with the structure, one `n × n` network per granularity group in
/// propagation), so larger documents are refused before any of it runs.
pub const MAX_VARIABLES: usize = 4096;

/// Errors from structure (de)serialization.
#[derive(Debug)]
pub enum StructureJsonError {
    /// Malformed JSON.
    Json(JsonError),
    /// Well-formed JSON that is not a structure document (wrong shape or
    /// field types).
    Shape(String),
    /// A constraint references an unknown granularity name.
    UnknownGranularity(String),
    /// A constraint has `lo > hi` or references an out-of-range variable.
    InvalidConstraint(String),
    /// The graph is not a rooted DAG.
    Structure(crate::StructureError),
}

impl std::fmt::Display for StructureJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructureJsonError::Json(e) => write!(f, "malformed JSON: {e}"),
            StructureJsonError::Shape(msg) => write!(f, "not a structure document: {msg}"),
            StructureJsonError::UnknownGranularity(g) => {
                write!(f, "unknown granularity `{g}`")
            }
            StructureJsonError::InvalidConstraint(msg) => write!(f, "invalid constraint: {msg}"),
            StructureJsonError::Structure(e) => write!(f, "invalid structure: {e}"),
        }
    }
}

impl std::error::Error for StructureJsonError {}

impl From<JsonError> for StructureJsonError {
    fn from(e: JsonError) -> Self {
        StructureJsonError::Json(e)
    }
}

/// Serializes an event structure (granularities stored by name).
pub fn structure_to_json(s: &EventStructure) -> String {
    let mut out = String::from("{\n  \"variables\": [");
    for (i, v) in s.vars().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        minijson::write_escaped(&mut out, s.name(v));
    }
    out.push_str("],\n  \"constraints\": [");
    let mut first = true;
    for (a, b, cs) in s.arcs() {
        for c in cs {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{ \"from\": {}, \"to\": {}, \"lo\": {}, \"hi\": {}, \"granularity\": ",
                a.index(),
                b.index(),
                c.lo(),
                c.hi()
            ));
            minijson::write_escaped(&mut out, c.gran().name());
            out.push_str(" }");
        }
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn shape(msg: impl Into<String>) -> StructureJsonError {
    StructureJsonError::Shape(msg.into())
}

/// Parses an event structure, resolving granularity names against `cal`.
pub fn structure_from_json(
    json: &str,
    cal: &Calendar,
) -> Result<EventStructure, StructureJsonError> {
    let doc = minijson::parse(json)?;
    structure_from_value(&doc, cal)
}

/// Builds an event structure from an already-parsed JSON value — the
/// entry point for callers that embed a structure document inside a
/// larger message (the serve protocol's `match`/`mine`/`session.open`
/// requests).
pub fn structure_from_value(
    doc: &Value,
    cal: &Calendar,
) -> Result<EventStructure, StructureJsonError> {
    let variables = doc
        .get("variables")
        .and_then(Value::as_array)
        .ok_or_else(|| shape("missing `variables` array"))?;
    if variables.len() > MAX_VARIABLES {
        return Err(shape(format!(
            "{} variables, at most {MAX_VARIABLES} are supported",
            variables.len()
        )));
    }
    let variables: Vec<&str> = variables
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| shape("variable names must be strings"))
        })
        .collect::<Result<_, _>>()?;
    let constraints = doc
        .get("constraints")
        .and_then(Value::as_array)
        .ok_or_else(|| shape("missing `constraints` array"))?;

    let mut b = StructureBuilder::new();
    let n = variables.len();
    let vars: Vec<VarId> = variables.iter().map(|name| b.var(*name)).collect();
    for c in constraints {
        let field = |name: &str| {
            c.get(name)
                .ok_or_else(|| shape(format!("constraint missing `{name}`")))
        };
        let index = |name: &str| -> Result<usize, StructureJsonError> {
            field(name)?
                .as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| shape(format!("constraint `{name}` must be a non-negative integer")))
        };
        let bound = |name: &str| -> Result<u64, StructureJsonError> {
            field(name)?
                .as_u64()
                .ok_or_else(|| shape(format!("constraint `{name}` must be a non-negative integer")))
        };
        let (from, to) = (index("from")?, index("to")?);
        let (lo, hi) = (bound("lo")?, bound("hi")?);
        let gran_name = field("granularity")?
            .as_str()
            .ok_or_else(|| shape("constraint `granularity` must be a string"))?;
        if from >= n || to >= n {
            return Err(StructureJsonError::InvalidConstraint(format!(
                "variable index out of range in ({from}, {to})"
            )));
        }
        if lo > hi {
            return Err(StructureJsonError::InvalidConstraint(format!(
                "empty bounds [{lo}, {hi}]"
            )));
        }
        if hi > Tcg::MAX_BOUND {
            return Err(StructureJsonError::InvalidConstraint(format!(
                "bound {} exceeds the supported maximum {}",
                hi,
                Tcg::MAX_BOUND
            )));
        }
        let gran = cal
            .get(gran_name)
            .map_err(|_| StructureJsonError::UnknownGranularity(gran_name.to_string()))?;
        b.constrain(vars[from], vars[to], Tcg::new(lo, hi, gran));
    }
    b.build().map_err(StructureJsonError::Structure)
}

#[cfg(test)]
mod tests {
    use crate::examples::figure_1a;

    use super::*;

    #[test]
    fn round_trip_figure_1a() {
        let cal = Calendar::standard();
        let (s, _) = figure_1a(&cal);
        let json = structure_to_json(&s);
        let back = structure_from_json(&json, &cal).unwrap();
        assert_eq!(back.len(), s.len());
        assert_eq!(back.constraint_count(), s.constraint_count());
        for (a, b, cs) in s.arcs() {
            assert_eq!(back.constraints(a, b), cs);
        }
        // Same witnesses.
        let w = crate::examples::figure_1a_witness();
        assert!(back.satisfied_by(&w));
    }

    #[test]
    fn unknown_granularity_rejected() {
        let cal = Calendar::standard();
        let json = r#"{"variables": ["A", "B"],
            "constraints": [{"from":0,"to":1,"lo":0,"hi":1,"granularity":"fortnight"}]}"#;
        assert!(matches!(
            structure_from_json(json, &cal),
            Err(StructureJsonError::UnknownGranularity(_))
        ));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let cal = Calendar::standard();
        assert!(matches!(
            structure_from_json("nonsense", &cal),
            Err(StructureJsonError::Json(_))
        ));
        let wrong_shape = r#"{"variables": ["A"]}"#;
        assert!(matches!(
            structure_from_json(wrong_shape, &cal),
            Err(StructureJsonError::Shape(_))
        ));
        let bad_field = r#"{"variables": ["A","B"],
            "constraints": [{"from":0,"to":1,"lo":"zero","hi":1,"granularity":"day"}]}"#;
        assert!(matches!(
            structure_from_json(bad_field, &cal),
            Err(StructureJsonError::Shape(_))
        ));
        let oob = r#"{"variables": ["A"],
            "constraints": [{"from":0,"to":5,"lo":0,"hi":1,"granularity":"day"}]}"#;
        assert!(matches!(
            structure_from_json(oob, &cal),
            Err(StructureJsonError::InvalidConstraint(_))
        ));
        let empty_bounds = r#"{"variables": ["A","B"],
            "constraints": [{"from":0,"to":1,"lo":3,"hi":1,"granularity":"day"}]}"#;
        assert!(matches!(
            structure_from_json(empty_bounds, &cal),
            Err(StructureJsonError::InvalidConstraint(_))
        ));
        let cyclic = r#"{"variables": ["A","B"],
            "constraints": [{"from":0,"to":1,"lo":0,"hi":1,"granularity":"day"},
                            {"from":1,"to":0,"lo":0,"hi":1,"granularity":"day"}]}"#;
        assert!(matches!(
            structure_from_json(cyclic, &cal),
            Err(StructureJsonError::Structure(_))
        ));
    }

    #[test]
    fn variable_count_is_bounded() {
        let cal = Calendar::standard();
        // A star from the root: valid at the bound, refused one past it.
        let doc = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("\"X{i}\"")).collect();
            let arcs: Vec<String> = (1..n)
                .map(|i| format!(r#"{{"from":0,"to":{i},"lo":0,"hi":1,"granularity":"day"}}"#))
                .collect();
            format!(
                r#"{{"variables": [{}], "constraints": [{}]}}"#,
                names.join(","),
                arcs.join(",")
            )
        };
        let s = structure_from_json(&doc(MAX_VARIABLES), &cal).unwrap();
        assert!(s.has_path(VarId(0), VarId(MAX_VARIABLES - 1)));
        assert!(matches!(
            structure_from_json(&doc(MAX_VARIABLES + 1), &cal),
            Err(StructureJsonError::Shape(msg)) if msg.contains("at most 4096")
        ));
    }

    #[test]
    fn custom_calendar_names_resolve() {
        let mut cal = Calendar::standard();
        cal.register(tgm_granularity::Gran::new(
            tgm_granularity::builtin::n_month(6),
        ))
        .unwrap();
        let json = r#"{"variables": ["A", "B"],
            "constraints": [{"from":0,"to":1,"lo":1,"hi":1,"granularity":"6-month"}]}"#;
        let s = structure_from_json(json, &cal).unwrap();
        assert_eq!(s.constraint_count(), 1);
    }
}
