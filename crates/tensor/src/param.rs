//! Persistent model parameters.
//!
//! Tapes are rebuilt every forward pass, but parameters must live across
//! passes. A [`ParamStore`] owns every parameter of a model (value + Adam
//! moment buffers); layers hold lightweight [`ParamId`]s. During a forward
//! pass, [`ParamStore::leaf`] copies the value onto the tape and records the
//! binding so [`ParamStore::apply_grads`] can later route gradients back.

use crate::matrix::Matrix;
use crate::optim::Optimizer;
use crate::tape::{Tape, Var};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

#[derive(Clone)]
pub(crate) struct ParamEntry {
    pub(crate) name: String,
    pub(crate) value: Matrix,
    /// First Adam moment (also reused as SGD momentum).
    pub(crate) m: Matrix,
    /// Second Adam moment.
    pub(crate) v: Matrix,
}

/// Owns all parameters of a model.
#[derive(Clone, Default)]
pub struct ParamStore {
    pub(crate) entries: Vec<ParamEntry>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a new parameter with the given initial value.
    pub fn add(&mut self, name: impl Into<String>, init: Matrix) -> ParamId {
        let (r, c) = init.shape();
        self.entries.push(ParamEntry {
            name: name.into(),
            value: init,
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Borrow a parameter's current value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// Overwrite a parameter's value (used by tests and weight loading).
    pub fn set_value(&mut self, id: ParamId, value: Matrix) {
        assert_eq!(
            self.entries[id.0].value.shape(),
            value.shape(),
            "set_value: shape mismatch for {}",
            self.entries[id.0].name
        );
        self.entries[id.0].value = value;
    }

    /// Overwrites the value of the parameter called `name` (weight
    /// loading). `Ok(false)` when no parameter has that name; the
    /// parameter's own shape as the error when `value`'s differs.
    pub fn assign(&mut self, name: &str, value: Matrix) -> Result<bool, (usize, usize)> {
        let Some(entry) = self.entries.iter_mut().find(|e| e.name == name) else {
            return Ok(false);
        };
        if entry.value.shape() != value.shape() {
            return Err(entry.value.shape());
        }
        entry.value = value;
        Ok(true)
    }

    /// Parameter name (for serialization and debugging).
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Copies the parameter onto `tape` as a leaf and records the binding so
    /// gradients can be routed back by [`ParamStore::apply_grads`].
    pub fn leaf(&self, tape: &Tape, id: ParamId) -> Var {
        let var = tape.leaf(self.entries[id.0].value.clone());
        tape.record_binding(id.0, var.index());
        var
    }

    /// After `tape.backward(..)`, accumulates the gradient of every bound
    /// parameter (a parameter leafed several times gets its contributions
    /// summed) and performs one optimizer step.
    ///
    /// Returns the global gradient norm before any update, which trainers use
    /// for logging and divergence checks.
    pub fn apply_grads(&mut self, tape: &Tape, opt: &mut dyn Optimizer) -> f32 {
        let inner = tape.inner.borrow();
        let mut acc: Vec<Option<Matrix>> = vec![None; self.entries.len()];
        for &(pid, node_idx) in &inner.bindings {
            if let Some(Some(g)) = inner.grads.get(node_idx) {
                match &mut acc[pid] {
                    Some(a) => a.add_assign(g),
                    slot @ None => *slot = Some(g.clone()),
                }
            }
        }
        drop(inner);
        let mut sq_norm = 0.0f64;
        for g in acc.iter().flatten() {
            sq_norm += g
                .as_slice()
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum::<f64>();
        }
        let norm = (sq_norm as f32).sqrt();
        opt.begin_step();
        for (pid, g) in acc.into_iter().enumerate() {
            if let Some(g) = g {
                let e = &mut self.entries[pid];
                opt.update(&mut e.value, &g, &mut e.m, &mut e.v);
            }
        }
        norm
    }

    /// Iterates over `(name, value)` pairs (serialization support).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.entries.iter().map(|e| (e.name.as_str(), &e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 4);
        assert_eq!(store.value(id).get(1, 1), 4.0);
        assert_eq!(store.name(id), "w");
    }

    #[test]
    fn assign_matches_by_name_and_checks_shape() {
        let mut store = ParamStore::new();
        let id = store.add("layer.w", Matrix::zeros(1, 2));
        let value = Matrix::from_vec(1, 2, vec![7.0, 8.0]);
        assert_eq!(store.assign("layer.w", value), Ok(true));
        assert_eq!(store.value(id).as_slice(), &[7.0, 8.0]);
        assert_eq!(store.assign("layer.extra", Matrix::zeros(1, 1)), Ok(false));
        assert_eq!(store.assign("layer.w", Matrix::zeros(2, 1)), Err((1, 2)));
        assert_eq!(store.value(id).as_slice(), &[7.0, 8.0]);
    }

    #[test]
    fn leaf_binds_and_applies_grad() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let tape = Tape::new();
        let w = store.leaf(&tape, id);
        let loss = w.mul(&w).sum_all(); // d/dw sum(w^2) = 2w
        tape.backward(&loss);
        let mut sgd = Sgd::new(0.1);
        let norm = store.apply_grads(&tape, &mut sgd);
        assert!(norm > 0.0);
        // w <- w - 0.1 * 2w = 0.8 w
        let v = store.value(id);
        assert!((v.get(0, 0) - 0.8).abs() < 1e-6);
        assert!((v.get(0, 1) - 1.6).abs() < 1e-6);
    }

    #[test]
    fn double_leaf_accumulates() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(1, 1, vec![3.0]));
        let tape = Tape::new();
        let w1 = store.leaf(&tape, id);
        let w2 = store.leaf(&tape, id);
        let loss = w1.add(&w2).sum_all(); // grad contribution 1 via each leaf
        tape.backward(&loss);
        let mut sgd = Sgd::new(1.0);
        store.apply_grads(&tape, &mut sgd);
        // total grad = 2 -> w = 3 - 2 = 1
        assert!((store.value(id).get(0, 0) - 1.0).abs() < 1e-6);
    }
}
