//! What every workload is built from: the two models (weights from a fixed
//! seed — `--seed` only ever generates inputs), the pinned kernel and server
//! configuration, and a served fan-in deployment with pre-encoded request
//! frames and the locally computed responses they must produce.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use mtlsplit_core::{deploy, MtlSplitModel};
use mtlsplit_data::shapes::{ORIENTATION_CLASSES, SCALE_CLASSES, SHAPE_CLASSES};
use mtlsplit_data::TaskSpec;
use mtlsplit_models::BackboneKind;
use mtlsplit_nn::{InferPlan, Layer};
use mtlsplit_serve::wire::{decode_split_assignment, encode_hello, encode_response};
use mtlsplit_serve::{
    Frame, HelloRequest, InferenceServer, MuxServer, OpCode, ServerConfig, SplitRule, SplitVariant,
    DEFAULT_MAX_BODY_BYTES,
};
use mtlsplit_split::{Precision, TensorCodec};
use mtlsplit_tensor::{Parallelism, StdRng, Tensor};

use crate::sys;

/// Seed of every model's weights, whatever `--seed` is.
const MODEL_SEED: u64 = 0x4d54_4c53;
/// Hidden width of each task head's two-layer MLP.
const HEAD_HIDDEN: usize = 64;
/// Distinct request frames of a fan-in deployment; also the most requests
/// that can be in flight, since a frame's id is its position here.
pub const FRAME_POOL: usize = 256;
/// Every fourth fan-in frame is a shallow one: the deterministic 3:1 mix.
pub const SHALLOW_EVERY: usize = 4;
/// Stage the shallow frames are cut after (the first one, `stem`).
const SHALLOW_STAGE: usize = 0;
/// Device class the shallow connection announces in its `Hello`.
const SHALLOW_CLASS: &str = "shallow";

/// Frame classes of the fan-in workloads.
pub const CLASS_DEEP: u8 = 0;
pub const CLASS_SHALLOW: u8 = 1;

/// Pins the calling thread's kernels to one thread and keeps the crates'
/// own spans off, so the numbers measure the program and not the scheduler.
pub fn pin_this_thread() {
    Parallelism::fixed(1).make_current();
    mtlsplit_obs::set_enabled(false);
    if let Some((client, _)) = client_and_server_cpus() {
        sys::pin_to_cpu(client);
    }
}

/// The core for the edge client or load generator and the core for the
/// server, when the process may use two: the edge and the server of a split
/// deployment do not share a core, and left to itself the kernel moves the
/// three threads between two cores in ways that differ from run to run.
fn client_and_server_cpus() -> Option<(usize, usize)> {
    let allowed = sys::allowed_cpus();
    (allowed.len() >= 2).then(|| (allowed[0], allowed[allowed.len() - 1]))
}

/// The three tasks every model solves (the shapes corpus' last three).
pub fn tasks() -> [TaskSpec; 3] {
    [
        TaskSpec::new("object_size", SCALE_CLASSES),
        TaskSpec::new("object_type", SHAPE_CLASSES),
        TaskSpec::new("orientation", ORIENTATION_CLASSES),
    ]
}

/// Indexes of [`tasks`] inside `ShapesConfig::generate`'s six tasks.
pub const TASK_INDEXES: [usize; 3] = [3, 4, 5];

fn model(kind: BackboneKind, input_size: usize) -> MtlSplitModel {
    // Construction is deterministic, so every call yields identical weights:
    // that is how a split deployment and its monolithic reference are made.
    let mut rng = StdRng::seed_from(MODEL_SEED);
    MtlSplitModel::new(kind, 3, input_size, &tasks(), HEAD_HIDDEN, &mut rng)
        .expect("the fixed model configuration is valid")
}

/// MobileStyle on 3x32x32: the fan-in and training model.
pub fn mobile_model() -> MtlSplitModel {
    model(BackboneKind::MobileStyle, 32)
}

/// EfficientStyle on 3x64x64: the paper's default edge deployment.
pub fn efficient_model() -> MtlSplitModel {
    model(BackboneKind::EfficientStyle, 64)
}

/// `count` single-image batches drawn from `seed`.
pub fn images(seed: u64, count: usize, size: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from(seed);
    (0..count)
        .map(|_| Tensor::randn(&[1, 3, size, size], 0.5, 0.25, &mut rng))
        .collect()
}

/// One worker, one kernel thread: with the generator and the poller that is
/// already three threads on the two-core reference host.
pub fn server_config() -> ServerConfig {
    ServerConfig::default()
        .with_workers(1)
        .with_parallelism(Parallelism::fixed(1))
}

/// An [`InferenceServer`] behind a [`MuxServer`] on an ephemeral localhost
/// port.
pub struct Served {
    pub server: Arc<InferenceServer>,
    mux: MuxServer,
}

impl Served {
    /// Starts the server `build` makes, its workers and its poller on the
    /// server's core: threads inherit the affinity of the thread that
    /// spawns them, so the caller moves there while they start.
    pub fn start(build: impl FnOnce() -> InferenceServer) -> Result<Self, String> {
        let cpus = client_and_server_cpus();
        if let Some((_, server)) = cpus {
            sys::pin_to_cpu(server);
        }
        let started = (|| {
            let server = Arc::new(build());
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            let mux =
                MuxServer::spawn(Arc::clone(&server), listener).map_err(|e| format!("mux: {e}"))?;
            Ok(Self { server, mux })
        })();
        if let Some((client, _)) = cpus {
            sys::pin_to_cpu(client);
        }
        started
    }

    pub fn addr(&self) -> SocketAddr {
        self.mux.local_addr()
    }

    /// Stops the poller and the workers and waits for their threads.
    pub fn stop(self) {
        self.mux.stop();
        self.server.shutdown();
    }
}

/// One pre-encoded request and the response body it must produce.
pub struct RequestFrame {
    /// The encoded `InferRequest` frame; its request id is its index + 1.
    pub bytes: Vec<u8>,
    /// The `InferResponse` body the local reference computes for it.
    pub expected_body: Vec<u8>,
    pub class: u8,
}

/// The fan-in deployment: MobileStyle heads served at two split depths.
///
/// Connection 0 stays on the default split and carries the deep Float32
/// frames; connection 1 negotiates the shallow split and carries the Quant8
/// frames, which the server finishes through the backbone tail.
pub struct Fanin {
    pub served: Served,
    pub frames: Vec<RequestFrame>,
    /// Blocking after `connect`; the generator switches them.
    pub connections: [TcpStream; 2],
    /// Sample tensors at both wire boundaries and the server-side layers,
    /// for the layer probes.
    pub deep_features: Tensor,
    pub shallow_activation: Tensor,
    pub tail: Box<dyn Layer>,
    pub heads: Vec<Box<dyn Layer>>,
}

impl Fanin {
    pub fn start(seed: u64) -> Result<Self, String> {
        let monolithic = mobile_model();
        let deep_stage = monolithic.backbone().default_split();
        let stage_label = |stage: usize| monolithic.backbone().stages()[stage].label.clone();

        let (_, deep_server) = deploy::split_for_serving(mobile_model());
        let split_shallow = || {
            deploy::split_for_serving_at(mobile_model(), SHALLOW_STAGE)
                .expect("the first stage is a valid split")
        };
        let (shallow_edge, shallow_server) = split_shallow();
        let shallow_edge = shallow_edge.into_layer();
        let (served_tail, _) = split_shallow().1.into_parts();
        let (tail, heads) = shallow_server.into_parts();
        let tail = tail.expect("a mid-backbone split has a tail");

        let served = Served::start(|| {
            InferenceServer::start_with_splits(
                deep_server.into_layers(),
                vec![
                    SplitVariant::default_split(deep_stage as u8, stage_label(deep_stage)),
                    SplitVariant::with_tail(
                        SHALLOW_STAGE as u8,
                        stage_label(SHALLOW_STAGE),
                        served_tail.expect("a mid-backbone split has a tail"),
                    ),
                ],
                vec![SplitRule {
                    device_class: SHALLOW_CLASS.to_string(),
                    stage: SHALLOW_STAGE as u8,
                }],
                server_config(),
            )
        })?;

        let connect = |class: &str, stage: usize| -> Result<TcpStream, String> {
            let mut stream =
                TcpStream::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let assigned = handshake(&mut stream, class)?;
            if assigned != stage {
                return Err(format!(
                    "class {class:?} was assigned stage {assigned}, not {stage}"
                ));
            }
            Ok(stream)
        };
        let connections = [
            connect("deep", deep_stage)?,
            connect(SHALLOW_CLASS, SHALLOW_STAGE)?,
        ];

        let float32 = TensorCodec::new(Precision::Float32);
        let quant8 = TensorCodec::new(Precision::Quant8);
        let mut plan = InferPlan::new();
        let err = |e: &dyn std::fmt::Display| format!("fan-in reference: {e}");
        let mut frames = Vec::with_capacity(FRAME_POOL);
        let mut deep_features = None;
        let mut shallow_activation = None;
        for (index, image) in images(seed, FRAME_POOL, 32).iter().enumerate() {
            let shallow = index % SHALLOW_EVERY == SHALLOW_EVERY - 1;
            let (payload, outputs) = if shallow {
                // Reference for a Quant8 frame: what the server must compute
                // from the bytes it is sent — local codec round trip, then
                // tail, then heads.
                let activation = plan
                    .run(shallow_edge.as_ref(), image)
                    .map_err(|e| err(&e))?;
                let payload = quant8.encode(&activation);
                let received = quant8.decode(&payload).map_err(|e| err(&e))?;
                let features = plan.run(tail.as_ref(), &received).map_err(|e| err(&e))?;
                let outputs = heads
                    .iter()
                    .map(|head| plan.run(head.as_ref(), &features))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| err(&e))?;
                shallow_activation.get_or_insert(activation);
                (payload, outputs)
            } else {
                // Reference for a Float32 frame: the monolithic forward.
                let (features, outputs) = monolithic.infer_forward(image).map_err(|e| err(&e))?;
                let payload = float32.encode(&features);
                deep_features.get_or_insert(features);
                (payload, outputs)
            };
            let responses: Vec<_> = outputs.iter().map(|o| float32.encode(o)).collect();
            frames.push(RequestFrame {
                bytes: Frame::new(OpCode::InferRequest, index as u64 + 1, payload.encode())
                    .encode(),
                expected_body: encode_response(&responses),
                class: if shallow { CLASS_SHALLOW } else { CLASS_DEEP },
            });
        }

        Ok(Self {
            served,
            frames,
            connections,
            deep_features: deep_features.expect("the pool holds deep frames"),
            shallow_activation: shallow_activation.expect("the pool holds shallow frames"),
            tail,
            heads,
        })
    }

    /// Closes the connections, then stops the server.
    pub fn stop(self) {
        drop(self.connections);
        self.served.stop();
    }
}

/// Negotiates the connection's split with a `Hello` and returns the stage
/// the server assigned.
fn handshake(stream: &mut TcpStream, device_class: &str) -> Result<usize, String> {
    let hello = encode_hello(&HelloRequest {
        device_class: device_class.to_string(),
        latency_budget_ms: 0.0,
    });
    stream
        .write_all(&Frame::new(OpCode::Hello, 1, hello).encode())
        .map_err(|e| format!("hello: {e}"))?;
    let ack = Frame::read_from(stream, DEFAULT_MAX_BODY_BYTES)
        .map_err(|e| format!("hello ack: {e}"))?
        .ok_or("the server closed the connection during the handshake")?;
    if ack.op != OpCode::HelloAck {
        return Err(format!("expected a HelloAck, got {:?}", ack.op));
    }
    let assignment = decode_split_assignment(&ack.body).map_err(|e| format!("hello ack: {e}"))?;
    Ok(assignment.stage as usize)
}
