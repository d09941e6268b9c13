//! The MTL-Split model: shared backbone plus `N` task-solving heads.

use mtlsplit_data::TaskSpec;
use mtlsplit_models::{Backbone, BackboneConfig, BackboneKind, TaskHead};
use mtlsplit_nn::{CrossEntropyLoss, InferPlan, Layer, Optimizer, Parameter, RunMode, TrainPlan};
use mtlsplit_tensor::{StdRng, Tensor};

use crate::error::{CoreError, Result};

/// The architecture of Figure 1: a shared backbone `M_b(x; psi)` whose
/// flattened output `Z_b` feeds `N` task-solving heads `H_j(Z_b; theta_j)`.
///
/// The backbone is the edge-resident half of the deployment; the heads run on
/// the remote server. Training jointly optimises all parameters against
/// `L_total = sum_j L_j` (Eq. 4); the per-task gradients that reach `Z_b` are
/// summed before flowing back into the shared backbone, which is exactly how
/// the shared representation learns from every task at once.
pub struct MtlSplitModel {
    backbone: Backbone,
    heads: Vec<TaskHead>,
    loss: CrossEntropyLoss,
    task_names: Vec<String>,
    /// RNG that [`RunMode::Train`] passes draw from (dropout masks and any
    /// other stochastic training-time behaviour). Forked from the
    /// construction RNG so a single seed reproduces a whole run.
    train_rng: StdRng,
}

impl std::fmt::Debug for MtlSplitModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MtlSplitModel")
            .field("backbone", &self.backbone)
            .field("tasks", &self.task_names)
            .finish()
    }
}

impl MtlSplitModel {
    /// Builds a model for the given backbone family and task list.
    ///
    /// `head_hidden` is the width of the hidden layer in each task head (the
    /// paper uses a two-layer MLP per head).
    ///
    /// # Errors
    ///
    /// Returns an error if the task list is empty or any dimension is
    /// invalid.
    pub fn new(
        kind: BackboneKind,
        in_channels: usize,
        input_size: usize,
        tasks: &[TaskSpec],
        head_hidden: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        if tasks.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "at least one task is required".to_string(),
            });
        }
        let backbone = Backbone::new(BackboneConfig::new(kind, in_channels, input_size), rng)?;
        Self::with_backbone(backbone, tasks, head_hidden, rng)
    }

    /// Builds a model around an existing (possibly pre-trained) backbone.
    ///
    /// This is the entry point for the fine-tuning workflow: the backbone is
    /// reused, new heads are attached for the new task set.
    ///
    /// # Errors
    ///
    /// Returns an error if the task list is empty or a head cannot be built.
    pub fn with_backbone(
        backbone: Backbone,
        tasks: &[TaskSpec],
        head_hidden: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        if tasks.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "at least one task is required".to_string(),
            });
        }
        let mut heads = Vec::with_capacity(tasks.len());
        for task in tasks {
            heads.push(TaskHead::new(
                task.name.clone(),
                backbone.feature_dim(),
                head_hidden,
                task.classes,
                rng,
            )?);
        }
        Ok(Self {
            backbone,
            heads,
            loss: CrossEntropyLoss::new(),
            task_names: tasks.iter().map(|t| t.name.clone()).collect(),
            train_rng: rng.fork(),
        })
    }

    /// Number of tasks the model solves.
    pub fn task_count(&self) -> usize {
        self.heads.len()
    }

    /// The task names, in head order.
    pub fn task_names(&self) -> &[String] {
        &self.task_names
    }

    /// The shared backbone.
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// Mutable access to the shared backbone (e.g. for use inside a
    /// [`mtlsplit_split::SplitPipeline`]).
    pub fn backbone_mut(&mut self) -> &mut Backbone {
        &mut self.backbone
    }

    /// The task heads.
    pub fn heads(&self) -> &[TaskHead] {
        &self.heads
    }

    /// Mutable access to the task heads.
    pub fn heads_mut(&mut self) -> &mut [TaskHead] {
        &mut self.heads
    }

    /// Consumes the model and returns its backbone (used to transfer a
    /// pre-trained backbone into a fine-tuning run).
    pub fn into_backbone(self) -> Backbone {
        self.backbone
    }

    /// Consumes the model and returns its two deployment halves: the
    /// edge-resident backbone and the server-resident task heads (in task
    /// order). The parameters move — nothing is copied — so the halves
    /// produce bit-identical outputs to the intact model.
    pub fn into_parts(self) -> (Backbone, Vec<TaskHead>) {
        (self.backbone, self.heads)
    }

    /// Total number of trainable parameters (backbone + all heads).
    pub fn parameter_count(&self) -> usize {
        self.backbone.parameter_count()
            + self
                .heads
                .iter()
                .map(|h| h.parameter_count())
                .sum::<usize>()
    }

    /// All trainable parameters in a stable order (backbone first, then each
    /// head).
    pub fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut params = self.backbone.parameters_mut();
        for head in &mut self.heads {
            params.extend(head.parameters_mut());
        }
        params
    }

    /// Visits every trainable parameter in the model's stable order
    /// (backbone first, then each head) without building intermediate
    /// `Vec`s — the allocation-free counterpart of
    /// [`MtlSplitModel::parameters_mut`] used by the planned training step.
    pub fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.backbone.for_each_parameter(f);
        for head in &mut self.heads {
            head.for_each_parameter(f);
        }
    }

    /// Resets every accumulated gradient (in place — no allocations).
    pub fn zero_grad(&mut self) {
        self.for_each_parameter(&mut |p| p.zero_grad());
    }

    /// Applies the fine-tuning learning-rate split of Eqs. 5–6: heads keep
    /// the optimizer's rate `alpha`, the backbone uses `eta = alpha * scale`.
    /// A scale of zero freezes the backbone entirely.
    pub fn set_backbone_lr_scale(&mut self, scale: f32) {
        if scale <= 0.0 {
            for p in self.backbone.parameters_mut() {
                p.set_frozen(true);
            }
        } else {
            for p in self.backbone.parameters_mut() {
                p.set_frozen(false);
                p.set_lr_scale(scale);
            }
        }
    }

    /// Runs the full model in training mode ([`RunMode::Train`], drawing
    /// from the model's own training RNG), returning the shared
    /// representation and one logits tensor per task with every layer cache
    /// primed for a backward pass.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is incompatible with the backbone.
    pub fn train_forward(&mut self, images: &Tensor) -> Result<(Tensor, Vec<Tensor>)> {
        let features = self.backbone.forward(
            images,
            RunMode::Train {
                rng: &mut self.train_rng,
            },
        )?;
        let mut outputs = Vec::with_capacity(self.heads.len());
        for head in &mut self.heads {
            outputs.push(head.forward(
                &features,
                RunMode::Train {
                    rng: &mut self.train_rng,
                },
            )?);
        }
        Ok((features, outputs))
    }

    /// [`MtlSplitModel::train_forward`] on a caller-owned [`TrainPlan`]: the
    /// shared representation, every head's logits, and every layer's
    /// backward cache come from the plan's reusable arena, so steady-state
    /// training steps perform no heap allocations inside the forward pass.
    ///
    /// The returned tensors are arena-backed: recycle them via
    /// [`TrainPlan::recycle`] once consumed. Outputs, caches, and RNG draw
    /// order are bit-identical to [`MtlSplitModel::train_forward`] for
    /// every thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is incompatible with the backbone.
    pub fn train_forward_with(
        &mut self,
        images: &Tensor,
        plan: &mut TrainPlan,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        let features = self.backbone.forward_into(
            images,
            RunMode::Train {
                rng: &mut self.train_rng,
            },
            plan.arena(),
        )?;
        let mut outputs = Vec::with_capacity(self.heads.len());
        for head in &mut self.heads {
            outputs.push(head.forward_into(
                &features,
                RunMode::Train {
                    rng: &mut self.train_rng,
                },
                plan.arena(),
            )?);
        }
        Ok((features, outputs))
    }

    /// Runs the full model in inference mode through `&self`, returning the
    /// shared representation and one logits tensor per task.
    ///
    /// Nothing is mutated — no caches, no batch statistics — so a frozen
    /// model can serve concurrent callers from shared state. Internally this
    /// runs on the planned inference runtime with a transient per-call
    /// [`InferPlan`] (fused GEMM epilogues; bit-identical to the layer-wise
    /// [`Layer::infer`] chain); callers that serve many requests should hold
    /// their own plan and use [`MtlSplitModel::infer_forward_with`] so the
    /// arena is reused across requests and the steady state allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is incompatible with the backbone.
    pub fn infer_forward(&self, images: &Tensor) -> Result<(Tensor, Vec<Tensor>)> {
        let mut plan = InferPlan::new();
        self.infer_forward_with(images, &mut plan)
    }

    /// [`MtlSplitModel::infer_forward`] on a caller-owned [`InferPlan`]: all
    /// intermediates come from the plan's reusable arena, so steady-state
    /// requests perform zero heap allocations inside the forward pass.
    ///
    /// The returned tensors are arena-backed: recycle them via
    /// [`InferPlan::recycle`] once consumed to keep later requests
    /// allocation-free. Outputs are bit-identical to the allocating path for
    /// every thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is incompatible with the backbone.
    pub fn infer_forward_with(
        &self,
        images: &Tensor,
        plan: &mut InferPlan,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        let features = plan.run(&self.backbone, images)?;
        let mut outputs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            outputs.push(plan.run(head, &features)?);
        }
        Ok((features, outputs))
    }

    /// One joint training step on a batch: forward, `L_total = sum_j L_j`,
    /// backward through every head into the shared backbone, optimizer step.
    ///
    /// Returns the per-task loss values.
    ///
    /// # Errors
    ///
    /// Returns an error if the label vectors do not match the model's tasks
    /// or the batch size.
    pub fn train_batch(
        &mut self,
        images: &Tensor,
        labels: &[Vec<usize>],
        optimizer: &mut dyn Optimizer,
    ) -> Result<Vec<f32>> {
        if labels.len() != self.heads.len() {
            return Err(CoreError::Incompatible {
                reason: format!(
                    "model has {} heads but {} label vectors were provided",
                    self.heads.len(),
                    labels.len()
                ),
            });
        }
        self.zero_grad();
        let (features, outputs) = self.train_forward(images)?;
        let mut losses = Vec::with_capacity(self.heads.len());
        // Gradient of L_total with respect to the shared representation Z_b is
        // the sum of each task's contribution.
        let mut grad_features = Tensor::zeros(features.dims());
        for (head_idx, (head, logits)) in self.heads.iter_mut().zip(&outputs).enumerate() {
            let (loss_value, grad_logits) =
                self.loss.forward_backward(logits, &labels[head_idx])?;
            losses.push(loss_value);
            let grad = head.backward(&grad_logits)?;
            grad_features.add_scaled_inplace(&grad, 1.0)?;
        }
        self.backbone.backward(&grad_features)?;
        optimizer.step(&mut self.parameters_mut())?;
        Ok(losses)
    }

    /// [`MtlSplitModel::train_batch`] on a caller-owned [`TrainPlan`]: the
    /// planned, zero-allocation training step.
    ///
    /// Every activation, layer cache, gradient and optimizer update runs on
    /// recycled arena buffers and in-place sweeps; after two warm-up steps
    /// (see [`TrainPlan`] for why the second may still grow the pool) a
    /// step performs **zero heap allocations** (`tests/zero_alloc.rs`
    /// machine-checks this in the single-threaded regime; multi-threaded
    /// runs additionally spawn scoped worker threads inside the GEMMs).
    /// Per-task losses land in `losses` (cleared, then filled in head
    /// order) so the hot loop does not return a fresh `Vec` per step.
    ///
    /// Head forwards and backwards are interleaved (forward → loss →
    /// backward per head, in head order) instead of two sweeps; no RNG
    /// draw, running-statistic update, or gradient-accumulation order
    /// changes, so the resulting parameters are bit-identical to
    /// [`MtlSplitModel::train_batch`] — parameter-for-parameter across a
    /// whole training run, for every thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if the label vectors do not match the model's tasks
    /// or the batch size.
    pub fn train_batch_with(
        &mut self,
        images: &Tensor,
        labels: &[Vec<usize>],
        optimizer: &mut dyn Optimizer,
        plan: &mut TrainPlan,
        losses: &mut Vec<f32>,
    ) -> Result<()> {
        if labels.len() != self.heads.len() {
            return Err(CoreError::Incompatible {
                reason: format!(
                    "model has {} heads but {} label vectors were provided",
                    self.heads.len(),
                    labels.len()
                ),
            });
        }
        losses.clear();
        self.zero_grad();
        let features = self.backbone.forward_into(
            images,
            RunMode::Train {
                rng: &mut self.train_rng,
            },
            plan.arena(),
        )?;
        // Gradient of L_total with respect to the shared representation Z_b
        // is the sum of each task's contribution — accumulated into a
        // zero-filled arena buffer, ascending head order as in `train_batch`.
        let mut grad_features = {
            let mut buffer = plan.arena().take(features.len());
            buffer.fill(0.0);
            Tensor::from_vec(buffer, features.dims())?
        };
        for (head_idx, head) in self.heads.iter_mut().enumerate() {
            let logits = head.forward_into(
                &features,
                RunMode::Train {
                    rng: &mut self.train_rng,
                },
                plan.arena(),
            )?;
            let (loss_value, grad_logits) =
                self.loss
                    .forward_backward_into(&logits, &labels[head_idx], plan.arena())?;
            losses.push(loss_value);
            let grad = head.backward_into(&grad_logits, plan.arena())?;
            grad_features.add_scaled_inplace(&grad, 1.0)?;
            plan.recycle(logits);
            plan.recycle(grad_logits);
            plan.recycle(grad);
        }
        // Images are raw data: the first backbone stage skips its
        // input-gradient kernels entirely (parameter gradients unchanged).
        self.backbone
            .backward_into_discarding_input(&grad_features, plan.arena())?;
        plan.recycle(grad_features);
        plan.recycle(features);
        // Optimizer sweep through the parameter visitor: no `Vec<&mut
        // Parameter>` is built, every update runs in place.
        optimizer.begin_step();
        let mut index = 0usize;
        let mut status = Ok(());
        self.for_each_parameter(&mut |p| {
            if status.is_ok() {
                status = optimizer.update_param(index, p);
            }
            index += 1;
        });
        status?;
        Ok(())
    }

    /// Per-task predicted class indices for a batch (inference mode,
    /// `&self` — safe to call concurrently on a shared model).
    ///
    /// # Errors
    ///
    /// Returns an error if the input is incompatible with the backbone.
    pub fn predict(&self, images: &Tensor) -> Result<Vec<Vec<usize>>> {
        let (_, outputs) = self.infer_forward(images)?;
        outputs
            .iter()
            .map(|logits| logits.argmax_rows().map_err(Into::into))
            .collect()
    }

    /// Per-task `(correct, total)` counts on a batch (inference mode,
    /// `&self`).
    ///
    /// # Errors
    ///
    /// Returns an error if the labels do not match the model's tasks.
    pub fn evaluate_batch(
        &self,
        images: &Tensor,
        labels: &[Vec<usize>],
    ) -> Result<Vec<(usize, usize)>> {
        if labels.len() != self.heads.len() {
            return Err(CoreError::Incompatible {
                reason: format!(
                    "model has {} heads but {} label vectors were provided",
                    self.heads.len(),
                    labels.len()
                ),
            });
        }
        let predictions = self.predict(images)?;
        Ok(predictions
            .iter()
            .zip(labels)
            .map(|(pred, truth)| {
                let correct = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
                (correct, truth.len())
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlsplit_nn::Sgd;

    fn tasks() -> Vec<TaskSpec> {
        vec![TaskSpec::new("size", 4), TaskSpec::new("kind", 3)]
    }

    fn tiny_model() -> MtlSplitModel {
        let mut rng = StdRng::seed_from(1);
        MtlSplitModel::new(BackboneKind::MobileStyle, 3, 16, &tasks(), 16, &mut rng).unwrap()
    }

    #[test]
    fn forward_produces_one_logit_tensor_per_task() {
        let model = tiny_model();
        let x = Tensor::zeros(&[4, 3, 16, 16]);
        // Inference runs through &self.
        let (features, outputs) = model.infer_forward(&x).unwrap();
        assert_eq!(features.dims()[0], 4);
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[0].dims(), &[4, 4]);
        assert_eq!(outputs[1].dims(), &[4, 3]);
    }

    #[test]
    fn infer_forward_is_repeatable_and_mutation_free() {
        let mut model = tiny_model();
        let mut rng = StdRng::seed_from(17);
        let x = Tensor::randn(&[2, 3, 16, 16], 0.5, 0.2, &mut rng);
        let (_, first) = model.infer_forward(&x).unwrap();
        let (_, second) = model.infer_forward(&x).unwrap();
        // &self inference cannot change the model, so outputs are identical.
        assert_eq!(first, second);
        // A training pass does mutate state (batch-norm running statistics),
        // so inference afterwards legitimately differs.
        model.train_forward(&x).unwrap();
        let (_, third) = model.infer_forward(&x).unwrap();
        assert_ne!(first, third);
    }

    #[test]
    fn train_batch_returns_per_task_losses_and_updates_parameters() {
        let mut model = tiny_model();
        let mut rng = StdRng::seed_from(2);
        let x = Tensor::randn(&[8, 3, 16, 16], 0.5, 0.2, &mut rng);
        let labels = vec![vec![0, 1, 2, 3, 0, 1, 2, 3], vec![0, 1, 2, 0, 1, 2, 0, 1]];
        let before: f32 = model
            .parameters_mut()
            .iter()
            .map(|p| p.value().squared_norm())
            .sum();
        let mut opt = Sgd::new(0.05);
        let losses = model.train_batch(&x, &labels, &mut opt).unwrap();
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite() && *l > 0.0));
        let after: f32 = model
            .parameters_mut()
            .iter()
            .map(|p| p.value().squared_norm())
            .sum();
        assert_ne!(before, after);
    }

    #[test]
    fn repeated_training_on_one_batch_reduces_total_loss() {
        let mut model = tiny_model();
        let mut rng = StdRng::seed_from(3);
        let x = Tensor::randn(&[8, 3, 16, 16], 0.5, 0.2, &mut rng);
        let labels = vec![vec![0, 1, 2, 3, 0, 1, 2, 3], vec![0, 1, 2, 0, 1, 2, 0, 1]];
        let mut opt = Sgd::new(0.1);
        let first: f32 = model
            .train_batch(&x, &labels, &mut opt)
            .unwrap()
            .iter()
            .sum();
        let mut last = first;
        for _ in 0..15 {
            last = model
                .train_batch(&x, &labels, &mut opt)
                .unwrap()
                .iter()
                .sum();
        }
        assert!(
            last < first,
            "joint loss should fall when overfitting one batch: {first} -> {last}"
        );
    }

    #[test]
    fn planned_train_batch_matches_allocating_train_batch_bitwise() {
        // Two identical models stepped on the same batches, one through the
        // allocating `train_batch`, one through the planned
        // `train_batch_with`: losses and every parameter must stay `==`
        // step after step, and the plan must stop taking fresh memory after
        // the warm-up step.
        let mut reference = tiny_model();
        let mut planned = tiny_model();
        let mut opt_ref = Sgd::new(0.05);
        let mut opt_planned = Sgd::new(0.05);
        let mut plan = TrainPlan::new();
        let mut losses = Vec::new();
        let mut rng = StdRng::seed_from(6);
        let labels = vec![vec![0, 1, 2, 3, 0, 1, 2, 3], vec![0, 1, 2, 0, 1, 2, 0, 1]];
        let mut warmed = None;
        for step in 0..4 {
            let x = Tensor::randn(&[8, 3, 16, 16], 0.5, 0.2, &mut rng);
            let loss_ref = reference.train_batch(&x, &labels, &mut opt_ref).unwrap();
            planned
                .train_batch_with(&x, &labels, &mut opt_planned, &mut plan, &mut losses)
                .unwrap();
            assert_eq!(losses, loss_ref, "step {step}: losses diverged");
            for (a, b) in planned
                .parameters_mut()
                .iter()
                .zip(reference.parameters_mut())
            {
                assert_eq!(a.value(), b.value(), "step {step}: parameters diverged");
            }
            if step == 0 {
                warmed = Some(plan.fresh_allocations());
            }
        }
        assert_eq!(
            plan.fresh_allocations(),
            warmed.unwrap(),
            "steady-state planned training steps must not take fresh memory"
        );
    }

    #[test]
    fn train_batch_rejects_wrong_label_count() {
        let mut model = tiny_model();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let mut opt = Sgd::new(0.1);
        assert!(model.train_batch(&x, &[vec![0, 1]], &mut opt).is_err());
    }

    #[test]
    fn evaluate_batch_counts_correct_predictions() {
        let model = tiny_model();
        let x = Tensor::zeros(&[4, 3, 16, 16]);
        let predictions = model.predict(&x).unwrap();
        let labels = vec![predictions[0].clone(), vec![9 % 3; 4]];
        let counts = model.evaluate_batch(&x, &labels).unwrap();
        assert_eq!(counts[0], (4, 4));
        assert_eq!(counts[0].1, 4);
    }

    #[test]
    fn backbone_freeze_prevents_backbone_updates_but_not_head_updates() {
        let mut model = tiny_model();
        model.set_backbone_lr_scale(0.0);
        let mut rng = StdRng::seed_from(4);
        let x = Tensor::randn(&[4, 3, 16, 16], 0.5, 0.2, &mut rng);
        let labels = vec![vec![0, 1, 2, 3], vec![0, 1, 2, 0]];
        let backbone_before: f32 = model
            .backbone()
            .parameters()
            .iter()
            .map(|p| p.value().squared_norm())
            .sum();
        let head_before: f32 = model.heads()[0]
            .parameters()
            .iter()
            .map(|p| p.value().squared_norm())
            .sum();
        let mut opt = Sgd::new(0.1);
        model.train_batch(&x, &labels, &mut opt).unwrap();
        let backbone_after: f32 = model
            .backbone()
            .parameters()
            .iter()
            .map(|p| p.value().squared_norm())
            .sum();
        let head_after: f32 = model.heads()[0]
            .parameters()
            .iter()
            .map(|p| p.value().squared_norm())
            .sum();
        assert_eq!(backbone_before, backbone_after);
        assert_ne!(head_before, head_after);
    }

    #[test]
    fn rejects_empty_task_lists() {
        let mut rng = StdRng::seed_from(5);
        assert!(MtlSplitModel::new(BackboneKind::VggStyle, 3, 16, &[], 8, &mut rng).is_err());
    }

    #[test]
    fn parameter_count_includes_backbone_and_heads() {
        let model = tiny_model();
        let heads: usize = model.heads().iter().map(|h| h.parameter_count()).sum();
        assert_eq!(
            model.parameter_count(),
            model.backbone().parameter_count() + heads
        );
    }
}
