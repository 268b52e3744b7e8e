//! The one reader of the harness's numeric and boolean `UNSYNC_*`
//! knobs.
//!
//! The numeric knobs are `UNSYNC_INSTS` and `UNSYNC_SEED` (`paper`)
//! and `UNSYNC_WORKERS` (`paper`, `campaign`), each an unsigned
//! integer; the boolean knobs are `UNSYNC_CAMPAIGN_SMOKE` and
//! `UNSYNC_CAMPAIGN_RESUME_ONLY` (`campaign`), each `0` or `1`.
//! `UNSYNC_RESULTS_DIR` is a path, read by [`crate::runlog::results_dir`].
//! `parse_u64` and `parse_flag` are pure functions of the
//! variable's name and raw value, so they are tested without touching
//! the process environment; `var` and [`flag`] read the environment
//! through them.
//!
//! An unset or blank value is `Ok(None)` (a flag: off) and the caller's
//! default applies. Anything else that does not parse, or falls below
//! the knob's minimum, is an error naming the variable — never a silent
//! fallback to the default or a clamp — and the binaries exit 2 with it.

use std::env::VarError;

/// Parses one unsigned-integer knob. `value` is the raw environment
/// value (`None` when unset); surrounding whitespace is ignored.
pub(crate) fn parse_u64(name: &str, value: Option<&str>) -> Result<Option<u64>, String> {
    let Some(v) = value.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|_| format!("{name}={v}: not an unsigned integer"))
}

/// Parses one boolean knob: unset, blank or `0` is off and `1` is on;
/// surrounding whitespace is ignored.
pub(crate) fn parse_flag(name: &str, value: Option<&str>) -> Result<bool, String> {
    match value.map_or("", str::trim) {
        "" | "0" => Ok(false),
        "1" => Ok(true),
        v => Err(format!("{name}={v}: not a flag (use 0 or 1)")),
    }
}

/// Rejects a parsed `value` of `name` below `min`.
fn at_least(name: &str, min: u64, value: Option<u64>) -> Result<Option<u64>, String> {
    match value {
        Some(n) if n < min => Err(format!("{name}={n}: must be at least {min}")),
        _ => Ok(value),
    }
}

/// Reads `name` from the process environment and parses it with
/// [`parse_u64`].
pub(crate) fn var(name: &str) -> Result<Option<u64>, String> {
    parse_u64(name, raw(name)?.as_deref())
}

/// [`var`], rejecting a value below `min` as an error naming `name`.
pub(crate) fn var_at_least(name: &str, min: u64) -> Result<Option<u64>, String> {
    at_least(name, min, var(name)?)
}

/// Reads `name` from the process environment and parses it with
/// `parse_flag`.
pub fn flag(name: &str) -> Result<bool, String> {
    parse_flag(name, raw(name)?.as_deref())
}

/// How the binaries treat a bad knob: print the error and exit 2.
pub fn or_exit<T>(knob: Result<T, String>) -> T {
    knob.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn raw(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(VarError::NotPresent) => Ok(None),
        Err(VarError::NotUnicode(_)) => Err(format!("{name}: not valid UTF-8")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_blank_values_keep_the_default() {
        assert_eq!(parse_u64("UNSYNC_INSTS", None), Ok(None));
        assert_eq!(parse_u64("UNSYNC_INSTS", Some("  ")), Ok(None));
    }

    #[test]
    fn well_formed_values_parse() {
        assert_eq!(parse_u64("UNSYNC_SEED", Some(" 42\n")), Ok(Some(42)));
        assert_eq!(parse_u64("UNSYNC_INSTS", Some("100000")), Ok(Some(100_000)));
    }

    #[test]
    fn malformed_values_are_errors_naming_the_variable() {
        for bad in ["10k", "two", "-1", "1.5", "0x10"] {
            let err = parse_u64("UNSYNC_WORKERS", Some(bad)).unwrap_err();
            assert!(err.starts_with("UNSYNC_WORKERS="), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn flags_are_zero_or_one_and_reject_anything_else() {
        for off in [None, Some(""), Some(" "), Some("0"), Some(" 0\n")] {
            assert_eq!(
                parse_flag("UNSYNC_CAMPAIGN_SMOKE", off),
                Ok(false),
                "{off:?}"
            );
        }
        for on in [Some("1"), Some(" 1\n")] {
            assert_eq!(parse_flag("UNSYNC_CAMPAIGN_SMOKE", on), Ok(true), "{on:?}");
        }
        for bad in ["true", "yes", "on", "2", "01", "-1"] {
            let err = parse_flag("UNSYNC_CAMPAIGN_RESUME_ONLY", Some(bad)).unwrap_err();
            assert!(err.starts_with("UNSYNC_CAMPAIGN_RESUME_ONLY="), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn minimums_reject_instead_of_clamping() {
        assert_eq!(at_least("UNSYNC_INSTS", 1_000, None), Ok(None));
        assert_eq!(
            at_least("UNSYNC_INSTS", 1_000, Some(1_000)),
            Ok(Some(1_000))
        );
        let err = at_least("UNSYNC_INSTS", 1_000, Some(999)).unwrap_err();
        assert!(err.starts_with("UNSYNC_INSTS=999"), "{err}");
        assert!(at_least("UNSYNC_WORKERS", 1, Some(0)).is_err());
    }
}
