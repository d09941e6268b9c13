//! `train_mtl_step`: one joint training step, no sockets. An op is one
//! `DataLoader::next_batch` plus one planned `train_batch_with` AdamW step.

use std::time::Duration;

use mtlsplit_core::MtlSplitModel;
use mtlsplit_data::shapes::ShapesConfig;
use mtlsplit_data::{Batch, DataLoader, MultiTaskDataset};
use mtlsplit_nn::{AdamW, TrainPlan};

use crate::fixtures;
use crate::run::{Recorder, Workload};
use crate::spans::{SpanId, Tracer};

pub const BATCH: usize = 16;
const SAMPLES: usize = 512;
const LEARNING_RATE: f32 = 1e-3;
/// Planned steps whose losses must equal the allocating twin's.
const TWIN_STEPS: usize = 3;
/// Steps the reported final loss is averaged over (one epoch).
const FINAL_WINDOW: usize = SAMPLES / BATCH;

pub struct TrainStep {
    dataset: MultiTaskDataset,
    seed: u64,
    model: MtlSplitModel,
    optimizer: AdamW,
    plan: TrainPlan,
    losses: Vec<f32>,
    /// Total loss of the very first step.
    first_loss: f64,
    /// Total loss of the most recent steps, newest last.
    recent: Vec<f64>,
    steps: u64,
}

/// The shapes corpus at 32x32 restricted to the model's three tasks.
pub fn dataset(seed: u64) -> Result<MultiTaskDataset, String> {
    ShapesConfig {
        samples: SAMPLES,
        image_size: 32,
        noise_fraction: 0.15,
    }
    .generate(seed)
    .and_then(|all| all.select_tasks(&fixtures::TASK_INDEXES))
    .map_err(|e| format!("dataset: {e}"))
}

fn optimizer() -> AdamW {
    AdamW::new(LEARNING_RATE).expect("the learning rate is valid")
}

fn next_batch(loader: &mut DataLoader<'_>) -> Result<Batch, String> {
    if let Some(batch) = loader
        .next_batch()
        .map_err(|e| format!("next_batch: {e}"))?
    {
        // The last batch of an epoch may be short; ops must be alike.
        if batch.len() == BATCH {
            return Ok(batch);
        }
    }
    loader.reset();
    loader
        .next_batch()
        .map_err(|e| format!("next_batch: {e}"))?
        .ok_or_else(|| "the dataset is empty".to_string())
}

impl TrainStep {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let dataset = dataset(seed)?;
        let mut this = Self {
            dataset,
            seed,
            model: fixtures::mobile_model(),
            optimizer: optimizer(),
            plan: TrainPlan::new(),
            losses: Vec::new(),
            first_loss: f64::NAN,
            recent: Vec::with_capacity(FINAL_WINDOW),
            steps: 0,
        };
        // The planned step must give the same losses as the allocating
        // `train_batch` on a twin model fed the same batches.
        let mut twin = fixtures::mobile_model();
        let mut twin_optimizer = optimizer();
        let mut twin_loader = DataLoader::new(&this.dataset, BATCH, true, seed);
        let mut loader = DataLoader::new(&this.dataset, BATCH, true, seed);
        for step in 0..TWIN_STEPS {
            let batch = next_batch(&mut twin_loader)?;
            let reference = twin
                .train_batch(&batch.images, &batch.labels, &mut twin_optimizer)
                .map_err(|e| format!("twin step: {e}"))?;
            let batch = next_batch(&mut loader)?;
            this.model
                .train_batch_with(
                    &batch.images,
                    &batch.labels,
                    &mut this.optimizer,
                    &mut this.plan,
                    &mut this.losses,
                )
                .map_err(|e| format!("planned step: {e}"))?;
            if this.losses != reference {
                return Err(format!(
                    "step {step}: planned losses {:?} differ from train_batch's {reference:?}",
                    this.losses
                ));
            }
            let total: f64 = this.losses.iter().map(|&l| f64::from(l)).sum();
            if step == 0 {
                this.first_loss = total;
            }
        }
        Ok(this)
    }
}

impl Workload for TrainStep {
    fn run(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
    ) -> Result<(), String> {
        // The loader borrows the dataset, so it lives for one call; mixing
        // the step count into its seed gives each section its own shuffles.
        let mut loader = DataLoader::new(&self.dataset, BATCH, true, self.seed ^ self.steps);
        let start_ns = tracer.now_ns();
        let end_ns = start_ns + duration.as_nanos() as u64;
        let mut last_done_ns = start_ns;
        loop {
            let begun_ns = tracer.now_ns();
            if begun_ns >= end_ns {
                return Ok(());
            }
            recorder.lag(begun_ns - last_done_ns);
            recorder.attempted += 1;
            let id = self.steps;
            let op = tracer.begin("op", SpanId::NONE, id);

            let span = tracer.begin("next_batch", op, id);
            let batch = next_batch(&mut loader)?;
            tracer.end(span, batch.len() as u64);

            let span = tracer.begin("train_step", op, id);
            self.model
                .train_batch_with(
                    &batch.images,
                    &batch.labels,
                    &mut self.optimizer,
                    &mut self.plan,
                    &mut self.losses,
                )
                .map_err(|e| format!("train step: {e}"))?;
            tracer.end(span, batch.len() as u64);

            tracer.end(op, 1);
            let done_ns = tracer.now_ns();
            last_done_ns = done_ns;
            let total: f64 = self.losses.iter().map(|&l| f64::from(l)).sum();
            if !total.is_finite() {
                return Err(format!("step {id}: the loss is {total}"));
            }
            if self.recent.len() == FINAL_WINDOW {
                self.recent.remove(0);
            }
            self.recent.push(total);
            self.steps += 1;
            recorder.complete(done_ns - start_ns, done_ns - begun_ns, 0);
        }
    }

    fn final_loss(&self) -> Option<f64> {
        (!self.recent.is_empty())
            .then(|| self.recent.iter().sum::<f64>() / self.recent.len() as f64)
    }

    fn verdict(&self) -> Result<(), String> {
        match self.final_loss() {
            Some(last) if last.is_finite() && last < self.first_loss => Ok(()),
            last => Err(format!(
                "training did not reduce the loss: first step {}, final {last:?}",
                self.first_loss
            )),
        }
    }

    fn stop(self: Box<Self>) {}
}
