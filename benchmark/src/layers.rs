//! Layer probes: every layer timed from outside, in isolation, by calling
//! the crates' public functions on fixed fixtures.
//!
//! The probes are the same in every traced run, whatever the workload, so a
//! layer's own cost can be read next to any workload's end-to-end numbers.
//! Each probe reports the median time of one call over its share of the
//! budget.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mtlsplit_data::DataLoader;
use mtlsplit_nn::{AdamW, InferPlan, Sequential, TrainPlan};
use mtlsplit_serve::wire::{decode_response, encode_response};
use mtlsplit_serve::{
    EdgeClient, Frame, FrameAssembler, OpCode, TcpTransport, DEFAULT_MAX_BODY_BYTES,
};
use mtlsplit_split::{Precision, TensorCodec, WirePayload};
use mtlsplit_tensor::Tensor;

use crate::fanin::FaninLoad;
use crate::fixtures::{self, CLASS_SHALLOW};
use crate::stats::median;
use crate::train;

/// Probes that take a share of the budget (the rest are derived).
const TIMED_PROBES: u32 = 24;
/// A timed batch of calls lasts at least this long, so the clock's own
/// cost stays below a thousandth of it.
const BATCH_NS: f64 = 50_000.0;

/// Median time of one call of `f`, in ns, over about `budget`.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1) as f64;
    let per_batch = (BATCH_NS / once).ceil().clamp(1.0, 100_000.0) as usize;
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

/// Times `f` and records it under `name`, in microseconds.
fn probe_us(
    rows: &mut Vec<(&'static str, f64)>,
    each: Duration,
    name: &'static str,
    f: impl FnMut(),
) {
    rows.push((name, time_ns(each, f) / 1e3));
}

/// Runs every layer probe against a fan-in deployment that is already up,
/// within about `budget` in total.
pub fn probe(
    seed: u64,
    budget: Duration,
    fanin: &FaninLoad,
) -> Result<Vec<(&'static str, f64)>, String> {
    let each = budget / TIMED_PROBES;
    let fixture = fanin.fixture();
    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    let err = |e: &dyn std::fmt::Display| format!("layer probe: {e}");

    // tensor / models: the paper's default edge half, planned.
    let deep_model = fixtures::efficient_model();
    let backbone = deep_model.backbone();
    let image = fixtures::images(seed, 1, 64).remove(0);
    let mut plan = InferPlan::new();
    plan.prepare(backbone, &image).map_err(|e| err(&e))?;
    let edge_ns = time_ns(each, || {
        let features = plan.run(backbone, black_box(&image)).expect("edge forward");
        plan.recycle(black_box(features));
    });
    let macs = backbone.stages()[backbone.default_split()].cumulative_macs as f64;
    rows.push(("models.edge_fwd_ms", edge_ns / 1e6));
    rows.push(("tensor.edge_gmacs_per_s", macs / edge_ns));

    // models: the shallow variant's server-side tail.
    let tail = fixture.tail.as_ref();
    let activation = &fixture.shallow_activation;
    plan.prepare(tail, activation).map_err(|e| err(&e))?;
    let tail_ns = time_ns(each, || {
        let features = plan.run(tail, black_box(activation)).expect("tail forward");
        plan.recycle(black_box(features));
    });
    rows.push(("models.tail_fwd_us", tail_ns / 1e3));

    // nn: the three server heads at 1 and 8 rows on one warm plan.
    let one = &fixture.deep_features;
    let eight = Tensor::concat_batch(&[one; 8]).map_err(|e| err(&e))?;
    let heads_ns = |input: &Tensor, plan: &mut InferPlan| {
        time_ns(each, || {
            for head in &fixture.heads {
                let output = plan
                    .run(head.as_ref(), black_box(input))
                    .expect("head forward");
                plan.recycle(black_box(output));
            }
        })
    };
    let b1_ns = heads_ns(one, &mut plan);
    let b8_ns = heads_ns(&eight, &mut plan);
    let fresh_before = plan.fresh_allocations();
    heads_ns(&eight, &mut plan);
    rows.push(("nn.head_fwd_us_b1", b1_ns / 1e3));
    rows.push(("nn.head_fwd_us_b8", b8_ns / 1e3));
    rows.push(("nn.batch_efficiency", 8.0 * b1_ns / b8_ns));
    rows.push((
        "nn.plan_fresh_allocs",
        (plan.fresh_allocations() - fresh_before) as f64,
    ));

    // split: the codec and the payload's byte form, on both wire boundaries.
    let float32 = TensorCodec::new(Precision::Float32);
    let quant8 = TensorCodec::new(Precision::Quant8);
    let payload_f32 = float32.encode(one);
    let payload_q8 = quant8.encode(activation);
    probe_us(&mut rows, each, "split.encode_f32_us", || {
        black_box(float32.encode(black_box(one)));
    });
    probe_us(&mut rows, each, "split.encode_q8_us", || {
        black_box(quant8.encode(black_box(activation)));
    });
    probe_us(&mut rows, each, "split.decode_f32_us", || {
        black_box(float32.decode(black_box(&payload_f32)).expect("decode"));
    });
    probe_us(&mut rows, each, "split.decode_q8_us", || {
        black_box(quant8.decode(black_box(&payload_q8)).expect("decode"));
    });
    let mut bytes = Vec::with_capacity(payload_q8.wire_bytes());
    probe_us(&mut rows, each, "split.payload_encode_us", || {
        bytes.clear();
        black_box(&payload_q8).encode_into(&mut bytes);
        black_box(&bytes);
    });
    let encoded_q8 = payload_q8.encode();
    probe_us(&mut rows, each, "split.payload_decode_us", || {
        black_box(WirePayload::decode(black_box(&encoded_q8)).expect("decode"));
    });

    // serve.frame: the Quant8 request frame, the largest on these workloads.
    let shallow = fixture
        .frames
        .iter()
        .find(|f| f.class == CLASS_SHALLOW)
        .expect("the pool holds shallow frames");
    let frame = Frame::decode(&shallow.bytes).map_err(|e| err(&e))?;
    probe_us(&mut rows, each, "serve.frame.encode_us", || {
        black_box(black_box(&frame).encode());
    });
    probe_us(&mut rows, each, "serve.frame.decode_us", || {
        black_box(Frame::decode(black_box(&shallow.bytes)).expect("decode"));
    });
    let mut assembler = FrameAssembler::new(DEFAULT_MAX_BODY_BYTES);
    probe_us(&mut rows, each, "serve.frame.assemble_us", || {
        assembler.push(black_box(&shallow.bytes));
        black_box(assembler.next_frame().expect("assemble"));
    });
    // The checksum is private to the frame module; decoding a 1 MiB body is
    // one CRC-32 pass plus one copy, which is as close as a caller gets.
    let big = Frame::new(OpCode::InferRequest, 1, vec![0x5a; 1 << 20]).encode();
    let big_ns = time_ns(each, || {
        black_box(Frame::decode(black_box(&big)).expect("decode"));
    });
    rows.push((
        "serve.frame.crc_mb_per_s",
        (1u64 << 20) as f64 / 1e6 / (big_ns / 1e9),
    ));

    // serve.wire: the three-head response body.
    let outputs = decode_response(&fixture.frames[0].expected_body).map_err(|e| err(&e))?;
    probe_us(&mut rows, each, "serve.wire.encode_response_us", || {
        black_box(encode_response(black_box(&outputs)));
    });
    probe_us(&mut rows, each, "serve.wire.decode_response_us", || {
        black_box(decode_response(black_box(&fixture.frames[0].expected_body)).expect("decode"));
    });

    // serve.server: one deep request through the in-process entry point —
    // queue, worker hand-off, decode, heads, encode; no sockets.
    let request = Frame::decode(&fixture.frames[0].bytes).map_err(|e| err(&e))?;
    let server = &fixture.served.server;
    probe_us(&mut rows, each, "serve.server.process_us", || {
        black_box(server.process(black_box(&request)));
    });

    // serve.mux: a ping over a third connection — sockets, poller and
    // waker, no inference.
    let transport = TcpTransport::connect(fixture.served.addr()).map_err(|e| err(&e))?;
    let mut pinger = EdgeClient::new(Box::new(Sequential::new()), float32, Box::new(transport));
    probe_us(&mut rows, each, "serve.mux.ping_rtt_us", || {
        pinger.ping().expect("ping");
    });
    drop(pinger);

    // data / core: one batch, one planned step, one inference forward.
    let dataset = train::dataset(seed)?;
    let mut loader = DataLoader::new(&dataset, train::BATCH, true, seed);
    let batches_per_epoch = loader.batches_per_epoch() - 1;
    let mut taken = 0;
    probe_us(&mut rows, each, "data.next_batch_us", || {
        if taken == batches_per_epoch {
            loader.reset();
            taken = 0;
        }
        taken += 1;
        black_box(loader.next_batch().expect("next batch"));
    });
    loader.reset();
    let batch = loader
        .next_batch()
        .map_err(|e| err(&e))?
        .ok_or("the dataset is empty")?;
    let mut model = fixtures::mobile_model();
    let mut optimizer = AdamW::new(1e-3).map_err(|e| err(&e))?;
    let mut train_plan = TrainPlan::new();
    let mut losses = Vec::new();
    let step_ns = time_ns(each * 3, || {
        model
            .train_batch_with(
                &batch.images,
                &batch.labels,
                &mut optimizer,
                &mut train_plan,
                &mut losses,
            )
            .expect("train step");
    });
    let mut infer_plan = InferPlan::new();
    let forward_ns = time_ns(each, || {
        let (features, outputs) = model
            .infer_forward_with(black_box(&batch.images), &mut infer_plan)
            .expect("inference forward");
        infer_plan.recycle(features);
        outputs.into_iter().for_each(|o| infer_plan.recycle(o));
    });
    rows.push(("core.train_step_ms", step_ns / 1e6));
    rows.push(("core.infer_fwd_ms", forward_ns / 1e6));
    // What a step costs beyond a forward of the same batch: backward plus
    // the optimiser sweep.
    rows.push(("core.bwd_opt_share", 1.0 - forward_ns / step_ns));
    rows.push((
        "core.final_loss",
        losses.iter().map(|&l| f64::from(l)).sum::<f64>(),
    ));
    Ok(rows)
}
