//! The one strict command-line scanner every front end uses: the bench
//! binaries, `fuzz`, every `watchdog-cli` subcommand and `campaign`.
//!
//! A command declares its [`Flag`]s and how many positional words it
//! takes; [`parse`] applies one set of rules to all of them. An unknown
//! flag (the error lists the valid ones), a value flag with no value (a
//! trailing one, or one followed by another `--flag`), a repeated flag
//! and one positional word too many are errors. `--` ends the flags, and
//! every word after it is ignored. Values are typed on read: [`Args::get`]
//! parses through `FromStr` and names the flag when a value does not
//! parse. [`Args::jobs`] is the one interpreter of `WATCHDOG_JOBS`;
//! callers pass the environment value in.

use std::ffi::OsStr;
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::str::FromStr;

use watchdog_workloads::Scale;

/// One flag a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    alias: Option<&'static str>,
    /// What the value is, for error messages; `None` for a switch.
    hint: Option<&'static str>,
}

impl Flag {
    /// A switch: present or absent, no value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            alias: None,
            hint: None,
        }
    }

    /// A flag that takes one value, described by `hint` in errors
    /// ("a file path").
    pub const fn value(name: &'static str, hint: &'static str) -> Flag {
        Flag {
            hint: Some(hint),
            ..Flag::switch(name)
        }
    }

    /// The same flag, also accepted as `alias` (`--out` for `-o`).
    pub const fn or(self, alias: &'static str) -> Flag {
        Flag {
            alias: Some(alias),
            ..self
        }
    }
}

/// `--scale test|small|ref`, read as a [`Scale`].
pub const SCALE: Flag = Flag::value("--scale", "a scale");
/// `--jobs N`, read by [`Args::jobs`].
pub const JOBS: Flag = Flag::value("--jobs", "a positive integer");

/// Scans `args`, the words after the command `cmd`, which takes `flags`
/// and at most `positional` positional words.
///
/// # Errors
///
/// A message naming the offending word, for any rule in the module docs.
pub fn parse(
    cmd: &str,
    positional: usize,
    flags: &[Flag],
    args: &[String],
) -> Result<Args, String> {
    let mut out = Args {
        flags: flags.to_vec(),
        positional: Vec::new(),
        given: Vec::new(),
    };
    let mut words = args.iter().take_while(|w| *w != "--");
    while let Some(word) = words.next() {
        if !word.starts_with('-') || word.len() == 1 {
            if out.positional.len() == positional {
                return Err(format!("unexpected argument {word:?} to {cmd}"));
            }
            out.positional.push(word.clone());
            continue;
        }
        let Some(flag) = flags
            .iter()
            .find(|f| f.name == word || f.alias == Some(word))
        else {
            let valid: Vec<String> = flags
                .iter()
                .map(|f| {
                    f.alias
                        .map_or(f.name.into(), |a| format!("{} ({a})", f.name))
                })
                .collect();
            return Err(match valid.is_empty() {
                true => format!("unknown {cmd} flag {word:?}: {cmd} takes no flags"),
                false => format!(
                    "unknown {cmd} flag {word:?}: valid flags are {}",
                    valid.join(", ")
                ),
            });
        };
        if out.given.iter().any(|(f, _)| f.name == flag.name) {
            return Err(format!("{word} given more than once"));
        }
        let value = match flag.hint {
            None => None,
            Some(hint) => match words.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(format!("{word} requires a value ({hint})")),
            },
        };
        out.given.push((*flag, value));
    }
    Ok(out)
}

/// A scanned command line: positional words plus the flags given.
#[derive(Debug, Clone)]
pub struct Args {
    flags: Vec<Flag>,
    positional: Vec<String>,
    given: Vec<(Flag, Option<String>)>,
}

impl Args {
    /// The `i`-th positional word, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Whether the flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The value given for the value flag `name`, unparsed.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.lookup(name).and_then(|(_, v)| v.as_deref())
    }

    /// The value given for `name`, parsed as a `T`; `None` when absent.
    ///
    /// # Errors
    ///
    /// A message naming the flag, its expected value and what was given.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let Some((flag, Some(v))) = self.lookup(name) else {
            return Ok(None);
        };
        let hint = flag.hint.unwrap_or("a value");
        v.parse()
            .map(Some)
            .map_err(|e| format!("{name} requires {hint}, got {v:?} ({e})"))
    }

    /// The worker count: `--jobs` beats the `WATCHDOG_JOBS` value `env`,
    /// which beats the number of available cores.
    ///
    /// # Errors
    ///
    /// A message naming `--jobs` or `WATCHDOG_JOBS` when the value that
    /// applies is not a positive integer.
    pub fn jobs(&self, env: Option<&OsStr>) -> Result<usize, String> {
        if let Some(n) = self.get::<NonZeroUsize>("--jobs")? {
            return Ok(n.get());
        }
        match env {
            Some(v) => v
                .to_str()
                .and_then(|s| s.parse::<NonZeroUsize>().ok())
                .map(NonZeroUsize::get)
                .ok_or_else(|| format!("WATCHDOG_JOBS must be a positive integer, got {v:?}")),
            None => Ok(std::thread::available_parallelism().map_or(1, NonZeroUsize::get)),
        }
    }

    /// The given flag declared as `name`.
    ///
    /// # Panics
    ///
    /// If the command does not declare `name`: that is a bug in the
    /// command, not bad input.
    fn lookup(&self, name: &str) -> Option<&(Flag, Option<String>)> {
        assert!(
            self.flags.iter().any(|f| f.name == name),
            "flag {name} is not declared"
        );
        self.given.iter().find(|(f, _)| f.name == name)
    }
}

/// Unwraps a flag result, or prints the error to stderr and exits with
/// status 2.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// A suite binary's `--scale` (default [`Scale::Small`]) and
/// [`Args::jobs`]; `jobs_env` is the `WATCHDOG_JOBS` value. Any flag
/// error exits with status 2.
pub fn suite_flags(name: &str, args: &[String], jobs_env: Option<&OsStr>) -> (Scale, usize) {
    or_exit(parse(name, 0, &[SCALE, JOBS], args).and_then(|a| {
        let scale = a.get("--scale")?.unwrap_or(Scale::Small);
        Ok((scale, a.jobs(jobs_env)?))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(xs: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = xs.iter().map(|s| s.to_string()).collect();
        let out = Flag::value("-o", "a file path").or("--out");
        parse("run", 1, &[SCALE, Flag::switch("--json"), out], &args)
    }

    #[test]
    fn positionals_switches_values_and_aliases_parse() {
        let a = run(&["mcf", "--json", "--out", "x.txt", "--scale", "test"]).unwrap();
        assert_eq!(a.positional(0), Some("mcf"));
        assert_eq!(a.positional(1), None);
        assert!(a.has("--json"));
        assert_eq!(a.raw("-o"), Some("x.txt"));
        assert_eq!(a.get("--scale"), Ok(Some(Scale::Test)));
        let a = run(&[]).unwrap();
        assert!(!a.has("--json") && a.raw("-o").is_none());
    }

    #[test]
    fn every_rule_rejects_with_the_flag_named() {
        let err = |xs: &[&str]| run(xs).unwrap_err();
        let e = err(&["--bogus"]);
        assert!(e.contains("\"--bogus\""), "{e}");
        assert!(
            e.contains("valid flags are --scale, --json, -o (--out)"),
            "{e}"
        );
        for trailing in [&["--scale"][..], &["--scale", "--json"], &["--scale", "--"]] {
            let e = err(trailing);
            assert!(e.contains("--scale requires a value (a scale)"), "{e}");
        }
        let e = err(&["--json", "--json"]);
        assert_eq!(e, "--json given more than once");
        let e = err(&["-o", "a", "--out", "b"]);
        assert_eq!(e, "--out given more than once");
        let e = err(&["mcf", "perl"]);
        assert_eq!(e, "unexpected argument \"perl\" to run");
        let e = run(&["--scale", "huge"])
            .unwrap()
            .get::<Scale>("--scale")
            .unwrap_err();
        assert!(e.contains("--scale requires a scale, got \"huge\""), "{e}");
        let e = parse("table1", 0, &[], &["--scale".to_string()]).unwrap_err();
        assert!(e.contains("table1 takes no flags"), "{e}");
    }

    #[test]
    fn words_after_double_dash_are_ignored() {
        let a = run(&["mcf", "--", "perl", "--bogus", "--json", "--json"]).unwrap();
        assert_eq!(a.positional(0), Some("mcf"));
        assert!(!a.has("--json"));
    }

    #[cfg(unix)]
    #[test]
    fn a_non_unicode_watchdog_jobs_is_rejected() {
        use std::os::unix::ffi::OsStrExt;
        let a = parse("fig05", 0, &[JOBS], &[]).unwrap();
        let e = a.jobs(Some(OsStr::from_bytes(b"\xff"))).unwrap_err();
        assert!(
            e.starts_with("WATCHDOG_JOBS must be a positive integer"),
            "{e}"
        );
    }

    #[test]
    #[should_panic(expected = "flag --mode is not declared")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = run(&[]).unwrap().raw("--mode");
    }
}
