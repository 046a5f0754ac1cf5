//! Trace-file errors.

use std::error::Error;
use std::fmt;
use std::io;

/// Error reading or writing a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the trace magic.
    BadMagic([u8; 8]),
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The benchmark-name field is not valid UTF-8 or is oversized.
    BadName,
    /// An activity record failed structural validation (out-of-range
    /// field, unknown flag bit, oversized count).
    BadActivity(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a trace file (magic {m:02x?})"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadName => f.write_str("invalid benchmark name in header"),
            TraceError::BadActivity(why) => write!(f, "corrupt activity record: {why}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_sources_wired() {
        let io_err = TraceError::Io(io::Error::other("x"));
        assert!(io_err.to_string().contains("i/o"));
        assert!(io_err.source().is_some());

        let magic = TraceError::BadMagic(*b"NOTTRACE");
        assert!(magic.to_string().contains("magic"));
        assert!(magic.source().is_none());

        let ver = TraceError::UnsupportedVersion(99);
        assert!(ver.to_string().contains("99"));

        assert!(!TraceError::BadName.to_string().is_empty());

        let act = TraceError::BadActivity("grant class out of range");
        assert!(act.to_string().contains("grant class"));
        assert!(act.source().is_none());
    }
}
