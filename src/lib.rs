//! # xqib — XQuery in the Browser, in Rust
//!
//! Umbrella crate for the reproduction of *"XQuery in the Browser"*
//! (Fourny, Pilman, Florescu, Kossmann, Kraska, McBeath — WWW 2009).
//!
//! Re-exports the complete public API:
//!
//! * [`dom`] — arena DOM, XML/XHTML parser, serialisation;
//! * [`xdm`] — the XQuery 1.0 / XPath 2.0 data model;
//! * [`xquery`] — the XQuery engine (parser, evaluator, F&O library,
//!   Update Facility, Scripting Extension, Full-Text, browser grammar
//!   extensions);
//! * [`browser`] — the browser substrate (BOM, DOM events, CSS, security,
//!   virtual network, event loop);
//! * [`core`] — the XQIB plug-in itself (page lifecycle, `browser:`
//!   function bindings, event/async bridges);
//! * [`minijs`] — the JavaScript-subset baseline interpreter;
//! * [`appserver`] — the server tier (XML DB, REST, server-side rendering,
//!   server-to-client migration);
//! * [`storage`] — crash-consistent persistence (fault-injected virtual
//!   disk, write-ahead log, checkpoints).
//!
//! See `examples/quickstart.rs` for the "Hello, World!" page of §4.1.

pub use xqib_appserver as appserver;
pub use xqib_browser as browser;
pub use xqib_core as core;
pub use xqib_dom as dom;
pub use xqib_minijs as minijs;
pub use xqib_storage as storage;
pub use xqib_xdm as xdm;
pub use xqib_xquery as xquery;

// Every Rust block of the README runs as a doctest, so its examples
// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
