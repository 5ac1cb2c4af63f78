//! # eagle-opgraph
//!
//! Computational-graph substrate for the EAGLE device-placement system.
//!
//! The paper's agent places the operations of TensorFlow training graphs; this crate
//! supplies the equivalent in-Rust representation ([`OpGraph`]) plus deterministic
//! synthetic builders for the three benchmark models the paper evaluates:
//!
//! * [`builders::try_inception_v3`] — image classifier, batch 1 (fits one GPU),
//! * [`builders::try_gnmt`] — 4-layer NMT model, batch 256 (OOMs one GPU),
//! * [`builders::try_bert_base`] — BERT-Base, seq 384 / batch 24 (OOMs one GPU).
//!
//! Graphs include forward, backward and optimizer-update operations with honest
//! FLOP counts, tensor sizes and memory footprints derived from model dimensions.
//! [`features::node_features`] turns a graph into the per-op state vectors the RL
//! agent consumes.

#![warn(missing_docs)]

pub mod builders;
pub mod features;
mod graph;
pub mod graphgen;

pub use graph::{GraphError, OpGraph, OpId, OpKind, OpNode, Phase, ALL_OP_KINDS};
pub use graphgen::{GraphGen, GraphGenConfig, MotifWeights};
