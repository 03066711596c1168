//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// A parsed command line: the subcommand plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedArgs {
    /// First positional token (the subcommand).
    pub command: String,
    /// `--key value` pairs; a trailing flag with no value maps to "".
    pub options: HashMap<String, String>,
}

impl ParsedArgs {
    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A string option given with a value: `None` when it is absent
    /// or a bare flag.
    pub fn nonempty(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }

    /// Optional string option with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Required f64 option.
    pub fn require_f64(&self, key: &str) -> Result<f64, String> {
        self.require(key)?
            .parse()
            .map_err(|e| format!("--{key}: not a number ({e})"))
    }

    /// Optional f64 with default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("--{key}: not a number ({e})")),
        }
    }

    /// Multi-valued option: the stored value split on
    /// [`MULTI_VALUE_SEP`] (several shell tokens) and commas (one
    /// comma-joined token), empty components dropped. `None` when the
    /// option is absent.
    pub fn list(&self, key: &str) -> Option<Vec<String>> {
        self.options.get(key).map(|v| {
            v.split([MULTI_VALUE_SEP, ','])
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
    }

    /// Optional u64 with default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("--{key}: not an integer ({e})")),
        }
    }
}

/// Separator joining the tokens of a multi-valued option (e.g.
/// `--merge a.journal b.journal`) inside its single stored value.
/// ASCII unit separator: cannot appear in a shell word by accident.
pub const MULTI_VALUE_SEP: char = '\u{1f}';

/// Parse `args` (without the program name) into a [`ParsedArgs`].
///
/// Grammar: `<command> (--key value... | --flag)*`. Unknown keys are
/// kept (commands validate what they need); a bare `--flag` followed
/// by another `--…` or end-of-line gets an empty value. An option
/// followed by several non-`--` tokens (`--merge a.journal
/// b.journal`) stores them joined by [`MULTI_VALUE_SEP`]; commands
/// taking one value see extra tokens in the value and reject them in
/// their own validation.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs, String> {
    let mut iter = args.into_iter().peekable();
    let command = iter
        .next()
        .ok_or("no subcommand given (try `palu-cli help`)")?;
    if command.starts_with("--") {
        return Err(format!("expected a subcommand, got option {command}"));
    }
    let mut options = HashMap::new();
    while let Some(tok) = iter.next() {
        let Some(key) = tok.strip_prefix("--") else {
            return Err(format!("unexpected positional argument: {tok}"));
        };
        if key.is_empty() {
            return Err("empty option name (`--`)".to_string());
        }
        let mut value = String::new();
        while let Some(next) = iter.peek() {
            if next.starts_with("--") {
                break;
            }
            if !value.is_empty() {
                value.push(MULTI_VALUE_SEP);
            }
            value.push_str(&iter.next().unwrap_or_default());
        }
        options.insert(key.to_string(), value);
    }
    Ok(ParsedArgs { command, options })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ParsedArgs, String> {
        parse_args(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["generate", "--nodes", "1000", "--alpha", "2.0"]).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.require("nodes").unwrap(), "1000");
        assert_eq!(a.require_f64("alpha").unwrap(), 2.0);
        assert_eq!(a.u64_or("nodes", 0).unwrap(), 1000);
    }

    #[test]
    fn bare_flags_get_empty_values() {
        let a = parse(&["fit", "--verbose", "--in", "x.txt"]).unwrap();
        assert_eq!(a.get_or("verbose", "missing"), "");
        assert_eq!(a.require("in").unwrap(), "x.txt");
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["fit"]).unwrap();
        assert_eq!(a.get_or("in", "default.txt"), "default.txt");
        assert_eq!(a.f64_or("p", 0.5).unwrap(), 0.5);
        assert_eq!(a.u64_or("seed", 42).unwrap(), 42);
    }

    #[test]
    fn multi_valued_options_collect_tokens() {
        let a = parse(&["pool", "--merge", "a.journal", "b.journal", "--nv", "10"]).unwrap();
        assert_eq!(
            a.list("merge").unwrap(),
            vec!["a.journal".to_string(), "b.journal".to_string()]
        );
        assert_eq!(a.u64_or("nv", 0).unwrap(), 10);
        // A single comma-joined token splits the same way.
        let a = parse(&["pool", "--merge", "a.journal,b.journal"]).unwrap();
        assert_eq!(a.list("merge").unwrap().len(), 2);
        assert!(a.list("absent").is_none());
        assert_eq!(
            a.list("merge").unwrap(),
            parse(&["pool", "--merge", "a.journal", "b.journal"])
                .unwrap()
                .list("merge")
                .unwrap()
        );
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--flag"]).is_err());
        assert!(parse(&["cmd", "positional"]).is_err());
        assert!(parse(&["cmd", "--"]).is_err());
        let a = parse(&["cmd", "--x", "abc"]).unwrap();
        assert!(a.require_f64("x").is_err());
        assert!(a.u64_or("x", 1).is_err());
        assert!(a.require("missing").is_err());
    }
}
