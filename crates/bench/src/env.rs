//! The one reader of the harness's numeric `UNSYNC_*` knobs.
//!
//! Every numeric knob is an unsigned integer (`UNSYNC_INSTS`,
//! `UNSYNC_SEED`, `UNSYNC_WORKERS`, …) or a comma-separated list of
//! them (`UNSYNC_LANES` in the lane sweep). [`parse_u64`] and
//! [`parse_list`] are pure functions of the variable's name and raw
//! value, so they are tested without touching the process environment;
//! [`var`] and [`var_list`] read the environment through them.
//!
//! An unset or blank value is `Ok(None)` and the caller's default
//! applies. Anything else that does not parse is an error naming the
//! variable — never a silent fallback to the default — and the
//! binaries exit 2 with it.

use std::env::VarError;

/// Parses one unsigned-integer knob. `value` is the raw environment
/// value (`None` when unset); surrounding whitespace is ignored.
pub fn parse_u64(name: &str, value: Option<&str>) -> Result<Option<u64>, String> {
    let Some(v) = value.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|_| format!("{name}={v}: not an unsigned integer"))
}

/// The list form of [`parse_u64`]: comma-separated unsigned integers,
/// every item required to parse.
pub fn parse_list(name: &str, value: Option<&str>) -> Result<Option<Vec<u64>>, String> {
    let Some(v) = value.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    v.split(',')
        .map(|item| {
            let item = item.trim();
            item.parse()
                .map_err(|_| format!("{name}={v}: item `{item}` is not an unsigned integer"))
        })
        .collect::<Result<Vec<u64>, String>>()
        .map(Some)
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
pub fn var(name: &str) -> Result<Option<u64>, String> {
    parse_u64(name, raw(name)?.as_deref())
}

/// [`var`], rejecting a value below `min` as an error naming `name`.
pub fn var_at_least(name: &str, min: u64) -> Result<Option<u64>, String> {
    at_least(name, min, var(name)?)
}

/// Reads `name` from the process environment and parses it with
/// [`parse_list`].
pub fn var_list(name: &str) -> Result<Option<Vec<u64>>, String> {
    parse_list(name, raw(name)?.as_deref())
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
        assert_eq!(parse_list("UNSYNC_LANES", None), Ok(None));
        assert_eq!(parse_list("UNSYNC_LANES", Some("")), Ok(None));
    }

    #[test]
    fn well_formed_values_parse() {
        assert_eq!(parse_u64("UNSYNC_SEED", Some(" 42\n")), Ok(Some(42)));
        assert_eq!(parse_u64("UNSYNC_INSTS", Some("100000")), Ok(Some(100_000)));
        assert_eq!(
            parse_list("UNSYNC_LANES", Some("2, 8,1000")),
            Ok(Some(vec![2, 8, 1000]))
        );
    }

    #[test]
    fn malformed_values_are_errors_naming_the_variable() {
        for bad in ["10k", "two", "-1", "1.5", "0x10"] {
            let err = parse_u64("UNSYNC_WORKERS", Some(bad)).unwrap_err();
            assert!(err.starts_with("UNSYNC_WORKERS="), "{err}");
            assert!(err.contains(bad), "{err}");
        }
        let err = parse_list("UNSYNC_LANES", Some("2,x,8")).unwrap_err();
        assert!(err.starts_with("UNSYNC_LANES=2,x,8"), "{err}");
        assert!(err.contains("`x`"), "{err}");
        assert!(parse_list("UNSYNC_LANES", Some("2,,8")).is_err());
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
