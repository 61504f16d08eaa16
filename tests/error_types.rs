//! Every public error enum is a `std::error::Error` (and so `Display` and
//! `Debug`): a caller can box it, print it and chain it without knowing
//! which crate it came from. This is a compile-time check — a type that
//! loses its impl fails the build of this file with E0277 — and
//! `scripts/ci.sh` fails when a `pub enum *Error*` under `crates/*/src` or
//! `src/` is not named here.

fn is_error<E: std::error::Error>() {}

#[test]
fn every_public_error_enum_implements_std_error() {
    is_error::<ixp_vantage::wire::Error>();
    is_error::<ixp_vantage::transport::LinkError>();
    is_error::<ixp_vantage::cert::validate::ValidationError>();
    is_error::<ixp_vantage::obs::RenderError>();
    is_error::<ixp_vantage::sflow::DecodeError>();
    is_error::<ixp_vantage::supervisor::CheckpointError>();
    is_error::<ixp_vantage::codec::StateError>();
    is_error::<ixp_vantage::codec::TrailerError>();
    is_error::<ixp_bench::pipeline::ResumeError>();
}
