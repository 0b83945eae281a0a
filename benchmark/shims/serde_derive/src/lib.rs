//! Inert stand-in for `serde_derive`.
//!
//! `#[derive(Serialize)]` and `#[derive(Deserialize)]` expand to **nothing**:
//! the annotated type gains no impl. Both derives register the `serde`
//! helper attribute so field and container attributes such as
//! `#[serde(default)]` or `#[serde(default = "path")]` are accepted and
//! ignored. Code that needs a real `impl Serialize` (a `T: Serialize` bound)
//! has outgrown this shim.

use proc_macro::TokenStream;

/// Accepts the item and emits no code.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts the item and emits no code.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
