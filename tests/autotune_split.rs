//! Integration tests of the split-point autotuner stack, end to end:
//!
//! * every candidate split of a real model serves bit-identically to the
//!   monolithic forward, across thread budgets;
//! * a v4 client negotiating a non-default split over loopback *and* over a
//!   real TCP socket gets bit-identical served outputs;
//! * a raw socket poking the server with protocol garbage (unsupported
//!   version, corrupt checksum, unknown op code) gets typed `Error` frames
//!   and the connection keeps serving;
//! * an autotuner deployment plan drives the server's split rules, so the
//!   handshake hands each device class exactly the stage the planner chose.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use mtlsplit_autotune::{plan_deployment, CostModel, DeviceClassSpec, StageCost};
use mtlsplit_core::{deploy, MtlSplitModel};
use mtlsplit_data::TaskSpec;
use mtlsplit_models::BackboneKind;
use mtlsplit_serve::{
    EdgeClient, Frame, InferenceServer, LoopbackTransport, MuxServer, OpCode, ServerConfig,
    SplitRule, SplitVariant, TcpTransport, HEADER_BYTES, VERSION,
};
use mtlsplit_split::{ChannelModel, Precision, TensorCodec};
use mtlsplit_tensor::{Parallelism, StdRng, Tensor};

/// Builds the same two-task model from one seed (construction is fully
/// deterministic, so every call yields identical weights).
fn fixture_model() -> MtlSplitModel {
    let mut rng = StdRng::seed_from(77);
    MtlSplitModel::new(
        BackboneKind::MobileStyle,
        3,
        16,
        &[TaskSpec::new("size", 4), TaskSpec::new("kind", 3)],
        16,
        &mut rng,
    )
    .expect("build model")
}

fn fixture_inputs(count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from(78);
    (0..count)
        .map(|_| Tensor::randn(&[1, 3, 16, 16], 0.5, 0.2, &mut rng))
        .collect()
}

/// The headline equivalence sweep: cutting the backbone after *any* stage
/// and serving the tail (when any) plus the heads from an `InferenceServer`
/// reproduces the monolithic forward bit for bit, under 1, 2 and 4 compute
/// threads.
#[test]
fn every_stage_serves_bitwise_identical_to_the_monolith() {
    let monolithic = fixture_model();
    let stage_count = monolithic.backbone().stage_count();
    let inputs = fixture_inputs(2);
    let references: Vec<Vec<Tensor>> = inputs
        .iter()
        .map(|x| monolithic.infer_forward(x).expect("monolithic forward").1)
        .collect();

    for threads in [1usize, 2, 4] {
        Parallelism::fixed(threads).make_current();
        for stage in 0..stage_count {
            let (edge, server_half) =
                deploy::split_for_serving_at(fixture_model(), stage).expect("split");
            let label = edge.boundary().label.clone();
            let (tail, heads) = server_half.into_parts();
            let variant = match tail {
                Some(tail) => SplitVariant::with_tail(stage as u8, label.clone(), tail),
                None => SplitVariant::default_split(stage as u8, label.clone()),
            };
            let server = InferenceServer::start_with_splits(
                heads,
                vec![variant],
                Vec::new(),
                ServerConfig::default()
                    .with_workers(2)
                    .with_parallelism(Parallelism::fixed(threads)),
            );
            let mut client = EdgeClient::new(
                edge.into_layer(),
                TensorCodec::default(),
                Box::new(LoopbackTransport::new(Arc::new(server))),
            );
            for (x, reference) in inputs.iter().zip(&references) {
                let outputs = client.infer(x).expect("served request");
                assert_eq!(
                    &outputs, reference,
                    "served split after {label} diverged at {threads} threads"
                );
            }
        }
    }
    Parallelism::fixed(1).make_current();
}

/// Builds the negotiating fixture server: the default (deepest) split as
/// variant 0 plus a shallow stage-1 variant whose backbone tail runs
/// server-side, with "weak-edge" clients ruled onto the shallow split.
fn negotiating_server() -> Arc<InferenceServer> {
    let (edge, server_half) = deploy::split_for_serving(fixture_model());
    let default_stage = edge.split_stage();
    let default_label = edge.boundary().label.clone();
    let (tail, heads) = server_half.into_parts();
    assert!(tail.is_none(), "the default split leaves no backbone tail");
    let (shallow_edge, shallow_half) =
        deploy::split_for_serving_at(fixture_model(), 1).expect("shallow split");
    let shallow_label = shallow_edge.boundary().label.clone();
    let (shallow_tail, _) = shallow_half.into_parts();
    Arc::new(InferenceServer::start_with_splits(
        heads,
        vec![
            SplitVariant::default_split(default_stage as u8, default_label),
            SplitVariant::with_tail(1, shallow_label, shallow_tail.expect("tail")),
        ],
        vec![SplitRule {
            device_class: "weak-edge".to_string(),
            stage: 1,
        }],
        ServerConfig::default().with_workers(2),
    ))
}

fn assert_negotiated_bitwise(mut client: EdgeClient) {
    let monolithic = fixture_model();
    let inputs = fixture_inputs(3);

    // Before any handshake the connection serves the default split.
    let reference = monolithic.infer_forward(&inputs[0]).expect("forward").1;
    let outputs = client.infer(&inputs[0]).expect("default-split inference");
    assert_eq!(outputs, reference, "default split diverged");

    // Negotiate: the rule table moves weak-edge clients to stage 1, and the
    // client swaps in the matching shallow backbone prefix.
    let assignment = client.hello("weak-edge", 100.0).expect("handshake");
    assert_eq!(assignment.stage, 1, "rule table must assign stage 1");
    let (shallow_edge, _) = deploy::split_for_serving_at(fixture_model(), 1).expect("split");
    assert_eq!(assignment.label, shallow_edge.boundary().label);
    client.set_backbone(shallow_edge.into_layer());

    for x in &inputs {
        let reference = monolithic.infer_forward(x).expect("forward").1;
        let outputs = client.infer(x).expect("negotiated inference");
        assert_eq!(outputs, reference, "negotiated split diverged");
    }
}

#[test]
fn negotiated_split_is_bitwise_monolithic_over_loopback() {
    let server = negotiating_server();
    let (edge, _) = deploy::split_for_serving(fixture_model());
    let client = EdgeClient::new(
        edge.into_layer(),
        TensorCodec::default(),
        Box::new(LoopbackTransport::new(Arc::clone(&server))),
    );
    assert_negotiated_bitwise(client);
    // The per-split counters saw both variants.
    let per_split = server.metrics().per_split;
    assert_eq!(per_split.len(), 2);
    assert_eq!(per_split[0].requests, 1, "one default-split request");
    assert_eq!(per_split[1].requests, 3, "three negotiated requests");
}

#[test]
fn negotiated_split_is_bitwise_monolithic_over_tcp() {
    let server = negotiating_server();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mux = MuxServer::spawn(Arc::clone(&server), listener).expect("spawn mux front-end");
    let addr = mux.local_addr();
    let (edge, _) = deploy::split_for_serving(fixture_model());
    let client = EdgeClient::new(
        edge.into_layer(),
        TensorCodec::default(),
        Box::new(TcpTransport::connect(addr).expect("connect")),
    );
    assert_negotiated_bitwise(client);
    mux.stop();
}

/// Table-driven IEEE CRC-32 (reflected polynomial `0xEDB88320`), implemented
/// locally so the probe can forge frames the public constructors refuse to
/// build — notably a valid checksum over an unknown op-code byte.
fn crc32(bytes: &[&[u8]]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    let mut crc = u32::MAX;
    for part in bytes {
        for &byte in *part {
            crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
        }
    }
    !crc
}

/// Hand-assembles one wire frame: magic, version, raw op byte, request id,
/// body length, CRC-32 over everything after the magic, body.
fn raw_frame(version: u8, op: u8, request_id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
    out.extend_from_slice(b"MTLS");
    out.push(version);
    out.push(op);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    let crc = crc32(&[&out[4..18], body]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Reads one frame off the raw socket: `(op, request_id, body)`.
fn read_raw_frame(stream: &mut TcpStream) -> (u8, u64, Vec<u8>) {
    let mut header = [0u8; HEADER_BYTES];
    stream.read_exact(&mut header).expect("frame header");
    assert_eq!(&header[..4], b"MTLS", "response magic");
    let op = header[5];
    let request_id = u64::from_le_bytes(header[6..14].try_into().expect("id"));
    let body_len = u32::from_le_bytes(header[14..18].try_into().expect("len")) as usize;
    let mut body = vec![0u8; body_len];
    stream.read_exact(&mut body).expect("frame body");
    (op, request_id, body)
}

/// Satellite robustness probe: malformed-but-framed requests must come back
/// as typed `Error` frames on a connection that keeps serving, and a v3
/// `Hello` must degrade to the default split instead of being rejected.
#[test]
fn protocol_probes_get_typed_errors_and_the_connection_survives() {
    let server = negotiating_server();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mux = MuxServer::spawn(Arc::clone(&server), listener).expect("spawn mux front-end");
    let mut stream = TcpStream::connect(mux.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Probe 1: a version from the future.
    stream
        .write_all(&raw_frame(VERSION + 5, OpCode::Ping as u8, 11, &[]))
        .expect("send");
    let (op, id, body) = read_raw_frame(&mut stream);
    assert_eq!(op, OpCode::Error as u8, "future version must answer Error");
    assert_eq!(id, 11);
    assert!(String::from_utf8(body).expect("utf8").contains("version"));

    // Probe 2: a corrupted checksum on an otherwise valid frame.
    let mut corrupt = Frame::new(OpCode::Ping, 12, Vec::new()).encode();
    corrupt[18] ^= 0xFF;
    stream.write_all(&corrupt).expect("send");
    let (op, id, body) = read_raw_frame(&mut stream);
    assert_eq!(op, OpCode::Error as u8, "bad checksum must answer Error");
    assert_eq!(id, 12);
    assert!(String::from_utf8(body).expect("utf8").contains("checksum"));

    // Probe 3: an unknown op code under a *valid* checksum — only the local
    // CRC implementation can forge this one.
    stream
        .write_all(&raw_frame(VERSION, 200, 13, &[]))
        .expect("send");
    let (op, id, body) = read_raw_frame(&mut stream);
    assert_eq!(op, OpCode::Error as u8, "unknown op must answer Error");
    assert_eq!(id, 13);
    assert!(String::from_utf8(body).expect("utf8").contains("op code"));

    // Probe 4: a v3 client says Hello — the op did not exist in v3, so the
    // server pins the session to the default split rather than erroring.
    let mut hello = Vec::new();
    hello.push("weak-edge".len() as u8);
    hello.extend_from_slice(b"weak-edge");
    hello.extend_from_slice(&50.0f64.to_le_bytes());
    stream
        .write_all(&raw_frame(3, OpCode::Hello as u8, 14, &hello))
        .expect("send");
    let (op, id, body) = read_raw_frame(&mut stream);
    assert_eq!(op, OpCode::HelloAck as u8, "v3 Hello still acked");
    assert_eq!(id, 14);
    // SplitAssignment body: stage byte, label length, label bytes. A v3
    // session stays on variant 0 — the default (deepest) split.
    let default_stage = fixture_model().backbone().default_split() as u8;
    assert_eq!(body[0], default_stage, "v3 session pinned to the default");

    // After all four probes the same connection still serves liveness.
    stream
        .write_all(&Frame::new(OpCode::Ping, 15, Vec::new()).encode())
        .expect("send");
    let (op, id, _) = read_raw_frame(&mut stream);
    assert_eq!(op, OpCode::Pong as u8, "the connection must keep serving");
    assert_eq!(id, 15);

    drop(stream);
    mux.stop();
}

/// The glue the tentpole promises: an autotuner deployment plan feeds the
/// server's split rules, and each device class's handshake lands on exactly
/// the stage the planner chose — with served outputs still bit-identical.
#[test]
fn autotuner_plan_drives_the_handshake_split_rules() {
    let monolithic = fixture_model();
    // Synthetic per-stage costs over the *real* backbone's wire shapes:
    // edge compute grows linearly with depth, so a strong device minimises
    // wire traffic at the deepest cut while a 200x-slowed device is pushed
    // to the shallowest front point.
    let stages: Vec<StageCost> = monolithic
        .backbone()
        .stages()
        .iter()
        .enumerate()
        .map(|(index, stage)| StageCost {
            stage: index,
            label: stage.label.clone(),
            edge_compute_ns: (index + 1) as f64 * 2_000_000.0,
            wire_elements: stage.elements,
            wire_rank: stage.wire_rank(),
        })
        .collect();
    let cost = CostModel::synthetic(stages, 100_000.0);
    let classes = [
        DeviceClassSpec::new("strong-edge", 1.0, 50.0),
        DeviceClassSpec::new("weak-edge", 200.0, 5_000.0),
    ];
    let profile = plan_deployment(
        &cost,
        &ChannelModel::lte_uplink(),
        &classes,
        &[Precision::Float32],
    );
    let strong_stage = profile.stage_for("strong-edge").expect("planned");
    let weak_stage = profile.stage_for("weak-edge").expect("planned");
    assert!(
        strong_stage > weak_stage,
        "the contrast must separate the classes ({strong_stage} vs {weak_stage})"
    );

    // Turn the plan into the server's variant table and rule set: one
    // variant per distinct planned stage, the deepest planned split first so
    // it doubles as the un-negotiated default.
    let mut planned: Vec<usize> = profile.entries.iter().map(|e| e.choice.stage).collect();
    planned.sort_unstable();
    planned.dedup();
    planned.reverse();
    let mut variants = Vec::new();
    let mut heads = Vec::new();
    for (position, &stage) in planned.iter().enumerate() {
        let (edge, server_half) =
            deploy::split_for_serving_at(fixture_model(), stage).expect("split");
        let label = edge.boundary().label.clone();
        let (tail, split_heads) = server_half.into_parts();
        if position == 0 {
            heads = split_heads;
        }
        variants.push(match tail {
            Some(tail) => SplitVariant::with_tail(stage as u8, label, tail),
            None => SplitVariant::default_split(stage as u8, label),
        });
    }
    let rules: Vec<SplitRule> = profile
        .entries
        .iter()
        .map(|entry| SplitRule {
            device_class: entry.device_class.name.clone(),
            stage: entry.choice.stage as u8,
        })
        .collect();
    let server = Arc::new(InferenceServer::start_with_splits(
        heads,
        variants,
        rules,
        ServerConfig::default().with_workers(2),
    ));

    // Every class handshakes onto its planned stage and is served outputs
    // bit-identical to the monolithic forward.
    let inputs = fixture_inputs(2);
    for class in &classes {
        let planned_stage = profile.stage_for(&class.name).expect("planned");
        let (edge, _) =
            deploy::split_for_serving_at(fixture_model(), planned_stage).expect("split");
        let mut client = EdgeClient::new(
            edge.into_layer(),
            TensorCodec::default(),
            Box::new(LoopbackTransport::new(Arc::clone(&server))),
        );
        let assignment = client
            .hello(&class.name, class.latency_budget_ms)
            .expect("handshake");
        assert_eq!(
            assignment.stage as usize, planned_stage,
            "{} must land on its planned split",
            class.name
        );
        for x in &inputs {
            let reference = monolithic.infer_forward(x).expect("forward").1;
            let outputs = client.infer(x).expect("negotiated inference");
            assert_eq!(outputs, reference, "{} outputs diverged", class.name);
        }
    }
}
