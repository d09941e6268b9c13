//! The zero-allocation guarantee of the planned paths, machine-checked.
//!
//! A counting global allocator asserts that, once warmed up, planned
//! inference (`InferPlan::run` over the backbone and every head, outputs
//! recycled) and the planned training step (`train_batch_with` on a
//! `TrainPlan`) perform **zero heap allocations**, on a real
//! `MtlSplitModel` of every backbone family, with tracing off and on.
//!
//! The counter is process-wide, so this binary holds a single `#[test]`:
//! no other test thread can allocate while a count is open. Kernels run
//! single-threaded (`Parallelism::single`), the per-worker and edge regime;
//! multi-threaded runs additionally spawn scoped threads inside large GEMMs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mtlsplit_core::MtlSplitModel;
use mtlsplit_data::TaskSpec;
use mtlsplit_models::BackboneKind;
use mtlsplit_nn::{AdamW, InferPlan, TrainPlan};
use mtlsplit_obs as obs;
use mtlsplit_tensor::{Parallelism, StdRng, Tensor};

/// Counts every heap allocation: `alloc`, `alloc_zeroed` and `realloc` each
/// count once; deallocations are not interesting here.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`, only adding a relaxed counter
// bump on the allocation paths.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations made while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const IMAGE: usize = 32;
const TRAIN_BATCH: usize = 4;
/// Counted requests or steps per configuration.
const COUNTED: usize = 3;
/// Planned training steps before the pool has settled: the first sizes
/// every buffer, and best-fit reuse may take a few more in the second
/// (see `TrainPlan`).
const TRAIN_WARMUP_STEPS: usize = 2;

fn tasks() -> Vec<TaskSpec> {
    vec![
        TaskSpec::new("size", 4),
        TaskSpec::new("type", 3),
        TaskSpec::new("colour", 5),
    ]
}

/// One planned request: the backbone, then every head on `Z_b`, with every
/// output handed back to the plan.
fn planned_request(model: &MtlSplitModel, images: &Tensor, plan: &mut InferPlan) {
    let features = plan.run(model.backbone(), images).expect("backbone");
    for head in model.heads() {
        let logits = plan.run(head, &features).expect("head");
        plan.recycle(logits);
    }
    plan.recycle(features);
}

#[test]
fn planned_inference_and_training_make_zero_steady_state_allocations() {
    Parallelism::single().make_current();
    let tasks = tasks();
    for kind in BackboneKind::ALL {
        let mut rng = StdRng::seed_from(7);
        let mut model = MtlSplitModel::new(kind, 3, IMAGE, &tasks, 16, &mut rng).expect("model");

        for batch in [1, 4] {
            let images = Tensor::randn(&[batch, 3, IMAGE, IMAGE], 0.5, 0.2, &mut rng);
            let mut plan = InferPlan::new();
            for tracing in [false, true] {
                obs::set_enabled(tracing);
                // Warm-up: sizes the arena and, traced, this thread's span ring.
                planned_request(&model, &images, &mut plan);
                let allocations = allocations_during(|| {
                    for _ in 0..COUNTED {
                        planned_request(&model, &images, &mut plan);
                    }
                });
                obs::set_enabled(false);
                assert_eq!(
                    allocations, 0,
                    "{kind:?} batch {batch} tracing {tracing}: planned inference made \
                     {allocations} heap allocations over {COUNTED} requests"
                );
            }
        }

        let images = Tensor::randn(&[TRAIN_BATCH, 3, IMAGE, IMAGE], 0.5, 0.2, &mut rng);
        let labels: Vec<Vec<usize>> = tasks
            .iter()
            .map(|task| (0..TRAIN_BATCH).map(|i| i % task.classes).collect())
            .collect();
        let mut optimizer = AdamW::new(1e-3).expect("optimizer");
        let mut plan = TrainPlan::new();
        let mut losses = Vec::new();
        let mut step = |model: &mut MtlSplitModel| {
            model
                .train_batch_with(&images, &labels, &mut optimizer, &mut plan, &mut losses)
                .expect("planned step");
        };
        for tracing in [false, true] {
            obs::set_enabled(tracing);
            for _ in 0..TRAIN_WARMUP_STEPS {
                step(&mut model);
            }
            let allocations = allocations_during(|| {
                for _ in 0..COUNTED {
                    step(&mut model);
                }
            });
            obs::set_enabled(false);
            assert_eq!(
                allocations, 0,
                "{kind:?} tracing {tracing}: the planned training step made {allocations} \
                 heap allocations over {COUNTED} steps"
            );
        }
    }
}
