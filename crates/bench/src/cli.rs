//! Command-line checking for the `experiments` subcommands. Each subcommand
//! names the flags it knows; an unknown flag, a flag without its value, a
//! value that does not parse and a missing required flag are all a
//! [`UsageError`] naming the argument, which the binary refuses with exit
//! code 2 before anything runs.

use std::fmt;
use std::str::FromStr;

/// A refused command line; the message names the argument.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The flags one subcommand accepts.
pub struct Flags {
    /// Flags followed by a value, as `--dir D`.
    pub valued: &'static [&'static str],
    /// Flags that stand alone, as `--merge`.
    pub switches: &'static [&'static str],
    /// Whether bare arguments (not starting with `-`) are accepted.
    pub positional: bool,
}

/// A subcommand's arguments, checked against its [`Flags`]. A flag given
/// twice keeps its last value.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

impl Args {
    /// Check `args` against `flags`, refusing the first argument that is
    /// not one of them and any valued flag that ends the line.
    pub fn parse(args: &[String], flags: Flags) -> Result<Args, UsageError> {
        let mut parsed = Args::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if let Some(&flag) = flags.valued.iter().find(|f| **f == arg) {
                let value =
                    rest.next().ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
                parsed.values.push((flag, value.clone()));
            } else if let Some(&switch) = flags.switches.iter().find(|f| **f == arg) {
                parsed.switches.push(switch);
            } else if arg.starts_with('-') {
                let known: Vec<&str> = flags.valued.iter().chain(flags.switches).copied().collect();
                return Err(UsageError(format!(
                    "unknown flag `{arg}` (known: {})",
                    known.join(", ")
                )));
            } else if flags.positional {
                parsed.positional.push(arg.clone());
            } else {
                return Err(UsageError(format!("unexpected argument `{arg}`")));
            }
        }
        Ok(parsed)
    }

    /// The value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// The value of `flag`, which must be given; `what` names the value.
    pub fn required(&self, flag: &str, what: &str) -> Result<&str, UsageError> {
        self.value(flag).ok_or_else(|| UsageError(format!("{flag} <{what}> is required")))
    }

    /// The value of `flag` parsed as a `T`, or `default` when absent.
    pub fn parsed<T: FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        match self.value(flag) {
            Some(value) => value
                .parse()
                .map_err(|_| UsageError(format!("{flag} needs a number, got `{value}`"))),
            None => Ok(default),
        }
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The bare arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: Flags =
        Flags { valued: &["--dir", "--kills"], switches: &["--merge"], positional: false };

    fn args(line: &[&str]) -> Vec<String> {
        line.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn known_flags_parse_and_the_rest_is_refused_by_name() {
        let parsed = Args::parse(&args(&["--dir", "d", "--merge", "--kills", "3"]), FLAGS)
            .expect("known flags");
        assert_eq!(parsed.value("--dir"), Some("d"));
        assert!(parsed.has("--merge"));
        assert_eq!(parsed.parsed("--kills", 8u32), Ok(3));
        assert_eq!(parsed.parsed("--seed", 1u64), Ok(1), "an absent flag takes its default");

        let refused = |line: &[&str]| Args::parse(&args(line), FLAGS).unwrap_err().0;
        assert!(refused(&["--dir", "d", "--shard", "3"]).contains("unknown flag `--shard`"));
        assert!(refused(&["--dir"]).contains("--dir needs a value"));
        assert!(refused(&["spec.toml"]).contains("unexpected argument `spec.toml`"));

        let parsed = Args::parse(&args(&["--kills", "many"]), FLAGS).expect("known flag");
        assert!(parsed.parsed("--kills", 8u32).unwrap_err().0.contains("--kills"));
        assert!(parsed.required("--dir", "directory").unwrap_err().0.contains("--dir"));
    }
}
