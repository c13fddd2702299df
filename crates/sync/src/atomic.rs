//! Model-aware atomic wrappers.
//!
//! Drop-in stand-ins for `std::sync::atomic::{AtomicU64, AtomicUsize}`
//! that behave identically outside a model run. Inside
//! `model::check` every operation is a schedule
//! point, so the explorer interleaves threads *between* atomic
//! accesses. The requested [`Ordering`] is passed straight through to
//! the underlying std atomic; the model itself explores at
//! sequentially consistent granularity (one thread runs at a time), so
//! weak-memory reorderings are **not** modeled — pair model tests with
//! the TSan/Miri CI jobs for those.

pub use std::sync::atomic::Ordering;

#[cfg(feature = "model")]
use crate::model;

macro_rules! atomic_wrapper {
    ($name:ident, $std:ty, $prim:ty, $labelbase:literal) => {
        /// Model-aware drop-in for the std atomic of the same name.
        /// See the [module docs](self) for model-mode semantics.
        #[derive(Debug)]
        pub struct $name {
            inner: $std,
            #[cfg(feature = "model")]
            model: Option<model::ResourceId>,
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(<$prim>::default())
            }
        }

        impl $name {
            /// Creates the atomic. Unlike the std constructor this is
            /// not `const`: when called inside a model run it registers
            /// the atomic with the active execution.
            pub fn new(value: $prim) -> Self {
                $name {
                    inner: <$std>::new(value),
                    #[cfg(feature = "model")]
                    model: model::register_atomic(value as u64),
                }
            }

            /// Runs `op` against the inner atomic, as a schedule point
            /// when inside a model run.
            #[inline]
            fn at<R>(&self, _label: &'static str, op: impl FnOnce(&$std) -> R) -> R {
                #[cfg(feature = "model")]
                if model::active() {
                    return model::op_atomic(self.model, _label, || {
                        let r = op(&self.inner);
                        // ordering: SeqCst — kernel-side mirror read for
                        // state signatures; only one model thread runs at
                        // a time, so any ordering observes the new value.
                        (r, self.inner.load(Ordering::SeqCst) as u64)
                    })
                    .expect("model atomic op outside an execution");
                }
                op(&self.inner)
            }

            pub fn load(&self, order: Ordering) -> $prim {
                self.at(concat!($labelbase, ".load"), |a| a.load(order))
            }

            pub fn store(&self, value: $prim, order: Ordering) {
                self.at(concat!($labelbase, ".store"), |a| a.store(value, order))
            }

            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                self.at(concat!($labelbase, ".fetch_add"), |a| {
                    a.fetch_add(value, order)
                })
            }

            pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                self.at(concat!($labelbase, ".fetch_sub"), |a| {
                    a.fetch_sub(value, order)
                })
            }

            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }
    };
}

atomic_wrapper!(AtomicU64, std::sync::atomic::AtomicU64, u64, "atomic.u64");
atomic_wrapper!(
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize,
    "atomic.usize"
);
