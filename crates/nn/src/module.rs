//! Shared layer plumbing: activation functions and naming helpers.

use lcdd_tensor::Var;

/// Activation functions used across the model zoo.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    Identity,
    Relu,
    /// Leaky ReLU with the given negative slope (the paper's MoE gate uses
    /// LeakyReLU, Sec. V-D).
    LeakyRelu(f32),
    Sigmoid,
    Tanh,
}

impl Activation {
    /// Applies the activation to a variable.
    pub fn apply(self, x: &Var) -> Var {
        match self {
            Activation::Identity => x.clone(),
            Activation::Relu => x.relu(),
            Activation::LeakyRelu(a) => x.leaky_relu(a),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Tanh => x.tanh_var(),
        }
    }

    /// The activation of one element (no tape). Each arm computes exactly
    /// the same elementwise function as the corresponding [`Var`] op's
    /// forward pass, so inference paths built on this are bit-identical to
    /// the tape path.
    pub fn apply_value(self, v: f32) -> f32 {
        match self {
            Activation::Identity => v,
            Activation::Relu => v.max(0.0),
            Activation::LeakyRelu(a) => {
                if v > 0.0 {
                    v
                } else {
                    a * v
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Tanh => v.tanh(),
        }
    }
}

/// Joins a parameter name prefix with a suffix (`"enc.block0" + "wq"`).
pub fn scoped(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_tensor::{Matrix, Tape};

    #[test]
    fn activations_apply() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        assert_eq!(Activation::Relu.apply(&x).value().as_slice(), &[0.0, 2.0]);
        assert_eq!(
            Activation::LeakyRelu(0.1).apply(&x).value().as_slice(),
            &[-0.1, 2.0]
        );
        assert_eq!(
            Activation::Identity.apply(&x).value().as_slice(),
            &[-1.0, 2.0]
        );
        let s = Activation::Sigmoid.apply(&x).value();
        assert!(s.get(0, 0) < 0.5 && s.get(0, 1) > 0.5);
    }

    #[test]
    fn scoped_names() {
        assert_eq!(scoped("", "w"), "w");
        assert_eq!(scoped("enc.b0", "w"), "enc.b0.w");
    }
}
