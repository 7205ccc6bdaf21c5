//! The shared, strict command-line parser.
//!
//! The `equinox` driver parses its arguments here: one flag vocabulary
//! — the spec field registry — and one failure discipline: an unknown
//! flag, a flag missing its value, or a malformed value is a hard error
//! naming the offender, never a silent fall-back to a default.
//!
//! Grammar:
//!
//! ```text
//! <positional>* [--spec FILE] [--out PATH] [<field flag> [VALUE]]* [--help]
//! ```
//!
//! Field flags come from [`crate::spec::fields`].

use crate::spec::{field_by_flag, FieldDef};

/// A successfully parsed command line.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Positional arguments in order (scenario names).
    pub positionals: Vec<String>,
    /// `--spec FILE`, if given.
    pub spec_file: Option<String>,
    /// `--out PATH`, if given.
    pub out: Option<String>,
    /// Validated spec-field assignments in command-line order
    /// (presence flags carry `"1"`), ready for the resolver.
    pub sets: Vec<(&'static FieldDef, String)>,
}

/// A parse failure; [`std::fmt::Display`] names the offending flag, and
/// the driver follows it with the usage text and a nonzero exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h` was requested (not an error; print usage, exit 0).
    Help,
    /// A flag not in the registry.
    UnknownFlag(String),
    /// A value-taking flag at the end of the line, or followed by
    /// another flag.
    MissingValue(String),
    /// A value that does not parse for its field.
    BadValue {
        /// The flag at fault.
        flag: String,
        /// What was wrong with its value.
        message: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::MissingValue(flag) => write!(f, "flag '{flag}' is missing its value"),
            CliError::BadValue { flag, message } => {
                write!(f, "bad value for '{flag}': {message}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Parses `args` (without the program name) against the shared field
/// registry.
///
/// Values are validated eagerly (on a scratch spec) so a malformed
/// `--scale x` fails here, before any layer resolution or simulation
/// starts.
///
/// # Errors
///
/// [`CliError::Help`] on `--help`/`-h`; otherwise the first unknown
/// flag, missing value, or malformed value.
pub fn parse(args: &[String]) -> Result<Parsed, CliError> {
    let mut parsed = Parsed::default();
    let mut scratch = crate::spec::ExperimentSpec::default();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let take_value = |i: &mut usize| -> Result<String, CliError> {
            match args.get(*i + 1) {
                Some(v) if !v.starts_with("--") => {
                    *i += 1;
                    Ok(v.clone())
                }
                _ => Err(CliError::MissingValue(a.to_string())),
            }
        };
        if a == "--help" || a == "-h" {
            return Err(CliError::Help);
        } else if a == "--spec" {
            parsed.spec_file = Some(take_value(&mut i)?);
        } else if a == "--out" {
            parsed.out = Some(take_value(&mut i)?);
        } else if let Some(field) = field_by_flag(a) {
            let raw = if field.takes_value {
                take_value(&mut i)?
            } else {
                "1".to_string()
            };
            scratch
                .set_str(field, &raw, crate::spec::Layer::Cli)
                .map_err(|message| CliError::BadValue {
                    flag: a.to_string(),
                    message,
                })?;
            parsed.sets.push((field, raw));
        } else if a.starts_with('-') && a.len() > 1 && !a[1..2].chars().all(|c| c.is_ascii_digit())
        {
            return Err(CliError::UnknownFlag(a.to_string()));
        } else {
            parsed.positionals.push(a.to_string());
        }
        i += 1;
    }
    Ok(parsed)
}

/// The flag section of a usage message: driver flags, then one line
/// per registered spec field.
pub fn flag_help() -> String {
    let mut out = String::new();
    let mut line = |flag: &str, value: bool, help: &str| {
        let val = if value { " VALUE" } else { "" };
        out.push_str(&format!("  {:28} {help}\n", format!("{flag}{val}")));
    };
    line("--spec", true, "layer a JSON spec file under env/CLI overrides");
    line("--out", true, "write the JSON artifact to this path");
    line("--help", false, "print this message");
    for f in crate::spec::fields() {
        line(f.flag, f.takes_value, f.help);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positionals_and_flags() {
        let p = parse(&argv(&["fig9", "--scale", "0.3", "--audit", "--out", "a.json"])).unwrap();
        assert_eq!(p.positionals, vec!["fig9"]);
        assert_eq!(p.sets.len(), 2);
        assert_eq!(p.out.as_deref(), Some("a.json"));
    }

    #[test]
    fn unknown_flag_is_fatal() {
        let e = parse(&argv(&["--bogus"])).unwrap_err();
        assert_eq!(e, CliError::UnknownFlag("--bogus".into()));
    }

    #[test]
    fn malformed_value_names_the_flag() {
        let e = parse(&argv(&["--scale", "fast"])).unwrap_err();
        match e {
            CliError::BadValue { flag, .. } => assert_eq!(flag, "--scale"),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn missing_value_detected() {
        let e = parse(&argv(&["--threads"])).unwrap_err();
        assert_eq!(e, CliError::MissingValue("--threads".into()));
        let e = parse(&argv(&["--threads", "--audit"])).unwrap_err();
        assert_eq!(e, CliError::MissingValue("--threads".into()));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // A leading dash followed by a digit is a (possibly invalid)
        // value, reported as such rather than as an unknown flag.
        let e = parse(&argv(&["--threads", "-3"])).unwrap_err();
        match e {
            CliError::BadValue { flag, .. } => assert_eq!(flag, "--threads"),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn help_flag() {
        assert_eq!(parse(&argv(&["-h"])).unwrap_err(), CliError::Help);
        assert!(flag_help().contains("--no-activity-gate"));
    }
}
