//! Inert stand-in for `serde` (see `benchmark/README.md`, "Shims").
//!
//! Surface covered: the names `serde::Serialize` and `serde::Deserialize`,
//! each usable both as a trait and as a derive macro, plus the `derive` and
//! `std` cargo features. The derives expand to nothing, so **no type
//! implements either trait**; the traits exist only so `use serde::{Serialize,
//! Deserialize}` resolves. Nothing can be serialized through this crate.

pub use serde_derive::{Deserialize, Serialize};

/// Marker with the real trait's name; never implemented by the derive.
pub trait Serialize {}

/// Marker with the real trait's name and lifetime; never implemented by the
/// derive.
pub trait Deserialize<'de>: Sized {}

#[cfg(test)]
mod tests {
    use super::{Deserialize, Serialize};

    fn one() -> u32 {
        1
    }

    // The shapes `haralick` and `mri` use: container and field `#[serde(..)]`
    // attributes, on structs and on enums with a `#[default]` variant.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(rename_all = "snake_case")]
    struct Annotated {
        #[serde(default)]
        a: u32,
        #[serde(default = "one")]
        b: u32,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
    enum Kind {
        #[default]
        A,
        B,
    }

    /// Implemented here by hand: this compiles only because the derive did
    /// not already emit an impl, which is the "expands to nothing" contract.
    impl Serialize for Annotated {}
    impl<'de> Deserialize<'de> for Kind {}

    #[test]
    fn derives_compile_and_emit_no_impl() {
        let v = Annotated { a: 0, b: one() };
        assert_eq!(v.clone(), v);
        assert_ne!(Kind::default(), Kind::B);
        assert_eq!(Kind::default(), Kind::A);
    }
}
