//! # lcdd-tensor
//!
//! Dense 2-D tensor math, reverse-mode autograd, parameter storage and
//! optimizers — the neural-network substrate for the FCM reproduction
//! (*Dataset Discovery via Line Charts*, ICDE 2025).
//!
//! The paper trains its encoders with PyTorch on a GPU; the Rust ML stack
//! (candle/burn) is not yet dependable for training custom encoders, so this
//! crate provides a from-scratch, CPU-only equivalent with the exact
//! operation set the paper's architecture needs:
//!
//! * [`Matrix`] — plain row-major `f32` storage,
//! * [`kernels`] — one matmul kernel, the row-independent, unfused
//!   `rows_matmul` that training and inference both run on, with `Matrix`
//!   wrappers for `A·B`, `A·Bᵀ` and `Aᵀ·B`,
//! * [`pool`] — the scoped-thread work pool behind every parallel hot path,
//! * [`Tape`]/[`Var`] — define-by-run reverse-mode autograd,
//! * fused `softmax_rows` / `layer_norm` kernels,
//! * [`ParamStore`] — persistent parameters re-bound to each fresh tape
//!   (their bytes on disk are the engine's to write: `lcdd_engine::persist`
//!   keeps the weight block inside the meta section it belongs to),
//! * [`optim`] — SGD and Adam,
//! * [`grad_check()`] — finite-difference verification used by the test suite.
//!
//! ## Example
//!
//! ```
//! use lcdd_tensor::{Matrix, Tape};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, -2.0]));
//! let y = x.square().sum_all(); // y = 1 + 4 = 5
//! assert_eq!(y.scalar(), 5.0);
//! tape.backward(&y);
//! assert_eq!(x.grad().unwrap().as_slice(), &[2.0, -4.0]); // dy/dx = 2x
//! ```

pub mod grad_check;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod optim;
pub mod param;
pub mod pool;
pub mod tape;

pub use grad_check::{grad_check, GradCheckReport};
pub use kernels::matmul_naive;
pub use matrix::Matrix;
pub use ops::{scaled_dot_attention, softmax_row};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::{ParamId, ParamStore};
pub use tape::{Tape, Var};
