//! `#[derive(Serialize, Deserialize)]` that expand to nothing. The
//! workspace derives these on config and metric types but owns no
//! serializer (its JSON goes through `sos_obs::Json`), so no impl is needed.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
