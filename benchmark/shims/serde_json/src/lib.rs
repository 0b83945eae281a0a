//! Inert stand-in for `serde_json` (see `benchmark/README.md`, "Shims").
//!
//! Surface covered: `to_writer`, `to_writer_pretty`, `to_string`,
//! `to_string_pretty`, `to_vec`, `from_reader`, `from_str`, `from_slice`,
//! `Error`, `Result`, and `From<Error> for std::io::Error` (so `?` works in
//! functions returning `io::Result`). Every entry point **fails** with
//! [`Error`], whose message says JSON is unsupported in the registry-free
//! benchmark build: nothing is read, nothing is written. The functions take
//! unbounded type parameters because the `serde` shim's derives implement no
//! trait.

use std::fmt;
use std::io;

/// The only error this shim produces: the operation is not supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    op: &'static str,
}

impl Error {
    /// Name of the entry point that was called.
    pub fn operation(&self) -> &'static str {
        self.op
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serde_json::{} is unsupported: the registry-free benchmark build links an inert JSON shim",
            self.op
        )
    }
}

impl std::error::Error for Error {}

impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        io::Error::new(io::ErrorKind::Unsupported, e)
    }
}

/// `Result` alias matching the real crate's.
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails; writes nothing.
pub fn to_writer<W: io::Write, T: ?Sized>(_writer: W, _value: &T) -> Result<()> {
    Err(Error { op: "to_writer" })
}

/// Always fails; writes nothing.
pub fn to_writer_pretty<W: io::Write, T: ?Sized>(_writer: W, _value: &T) -> Result<()> {
    Err(Error {
        op: "to_writer_pretty",
    })
}

/// Always fails.
pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error { op: "to_string" })
}

/// Always fails.
pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error {
        op: "to_string_pretty",
    })
}

/// Always fails.
pub fn to_vec<T: ?Sized>(_value: &T) -> Result<Vec<u8>> {
    Err(Error { op: "to_vec" })
}

/// Always fails; reads nothing.
pub fn from_reader<R: io::Read, T>(_reader: R) -> Result<T> {
    Err(Error { op: "from_reader" })
}

/// Always fails.
pub fn from_str<T>(_s: &str) -> Result<T> {
    Err(Error { op: "from_str" })
}

/// Always fails.
pub fn from_slice<T>(_bytes: &[u8]) -> Result<T> {
    Err(Error { op: "from_slice" })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Plain(#[allow(dead_code)] u8);

    #[test]
    fn every_entry_point_fails_typed_and_touches_nothing() {
        let mut sink = Vec::new();
        assert_eq!(
            to_writer(&mut sink, &Plain(1)).unwrap_err().operation(),
            "to_writer"
        );
        assert!(to_writer_pretty(&mut sink, &Plain(1)).is_err());
        assert!(sink.is_empty(), "a failing writer must not emit bytes");
        assert!(to_string(&Plain(1)).is_err());
        assert!(to_string_pretty(&Plain(1)).is_err());
        assert!(to_vec(&Plain(1)).is_err());
        assert!(from_str::<Plain>("{}").is_err());
        assert!(from_slice::<Plain>(b"{}").is_err());
        assert!(from_reader::<_, Plain>(&b"{}"[..]).is_err());
    }

    #[test]
    fn converts_to_io_error_for_question_mark() {
        fn through_io() -> io::Result<Plain> {
            Ok(from_str::<Plain>("1")?)
        }
        let e = through_io().err().expect("shim always fails");
        assert_eq!(e.kind(), io::ErrorKind::Unsupported);
        assert!(e.to_string().contains("unsupported"));
    }
}
