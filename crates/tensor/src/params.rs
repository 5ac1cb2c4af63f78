//! Named parameter storage shared by all network modules.
//!
//! Modules do not own their weights; they hold [`ParamId`] handles into a [`Params`]
//! store. A fresh [`Tape`](crate::tape::Tape) is built per forward pass, parameters are
//! injected with [`Tape::param`](crate::tape::Tape::param), and
//! [`Tape::backward_into`](crate::tape::Tape::backward_into) accumulates their
//! gradients into a [`Grads`](crate::Grads) laid out like the store. The store holds
//! values only, so a serialized `Params` is exactly the policy's weights.

use crate::tensor::Tensor;

/// Handle to one parameter tensor inside a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of this parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct ParamEntry {
    name: String,
    value: Tensor,
}

/// A flat store of named parameter tensors.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Params {
    entries: Vec<ParamEntry>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.entries.push(ParamEntry { name: name.into(), value });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameter tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Name the parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable value of a parameter (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// Iterator over all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_and_names() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::full(2, 3, 1.0));
        let b = p.add("b", Tensor::zeros(1, 3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 9);
        assert_eq!(p.name(w), "w");
        assert_eq!(p.get(b).shape(), (1, 3));
    }

    #[test]
    fn serialized_store_holds_values_only() {
        let mut p = Params::new();
        p.add("w", Tensor::full(2, 2, 0.5));
        let json = serde_json::to_string(&p).unwrap();
        assert!(!json.contains("\"grad\""), "no gradient field in {json}");
        let back: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get(ParamId(0)), p.get(ParamId(0)));
    }
}
