//! `edge_deep_f32`: one split inference as the edge device sees it.
//!
//! In the untraced run an op is one `EdgeClient::infer`. The traced run
//! drives the same op by hand through the public calls it is made of, with a
//! span around each (and once without spans, as its own reference).

use std::time::Duration;

use mtlsplit_core::{deploy, MtlSplitModel};
use mtlsplit_nn::InferPlan;
use mtlsplit_serve::wire::decode_response;
use mtlsplit_serve::{
    EdgeClient, Frame, InferenceServer, OpCode, ServeMetrics, TcpTransport, Transport,
};
use mtlsplit_split::{Precision, TensorCodec};
use mtlsplit_tensor::Tensor;

use crate::fixtures::{self, Served};
use crate::run::{Recorder, Workload};
use crate::spans::{SpanId, Tracer};

/// Distinct input images, cycled.
const IMAGES: usize = 32;

pub struct EdgeDeep {
    served: Served,
    client: EdgeClient,
    /// Drive each op by hand through the public calls (the traced run and
    /// its untraced reference) instead of through `EdgeClient::infer`.
    by_hand: bool,
    /// The by-hand path's own connection and edge-side state.
    transport: TcpTransport,
    plan: InferPlan,
    monolithic: MtlSplitModel,
    codec: TensorCodec,
    images: Vec<Tensor>,
    /// The monolithic forward of every image: what the served outputs must equal.
    expected: Vec<Vec<Tensor>>,
    next: usize,
}

impl EdgeDeep {
    pub fn setup(seed: u64, by_hand: bool) -> Result<Self, String> {
        let monolithic = fixtures::efficient_model();
        let (edge, server_half) = deploy::split_for_serving(fixtures::efficient_model());
        let served = Served::start(|| {
            InferenceServer::start(server_half.into_layers(), fixtures::server_config())
        })?;
        let codec = TensorCodec::new(Precision::Float32);
        let connect = || TcpTransport::connect(served.addr()).map_err(|e| format!("connect: {e}"));
        let mut client = EdgeClient::new(edge.into_layer(), codec, Box::new(connect()?));
        client
            .hello("edge", 0.0)
            .map_err(|e| format!("handshake: {e}"))?;
        let images = fixtures::images(seed, IMAGES, 64);
        let expected = images
            .iter()
            .map(|image| monolithic.infer_forward(image).map(|(_, outputs)| outputs))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("monolithic forward: {e}"))?;
        Ok(Self {
            by_hand,
            transport: connect()?,
            served,
            client,
            plan: InferPlan::new(),
            monolithic,
            codec,
            images,
            expected,
            next: 0,
        })
    }

    /// One op through the public calls `EdgeClient::infer` is made of.
    fn infer_by_hand(
        &mut self,
        index: usize,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
    ) -> Result<Vec<Tensor>, String> {
        let id = self.next as u64;
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        let op = tracer.begin("op", SpanId::NONE, id);

        let span = tracer.begin("edge_fwd", op, id);
        let features = self
            .plan
            .run(self.monolithic.backbone(), &self.images[index])
            .map_err(|e| err("edge forward", &e))?;
        tracer.end(span, features.dims()[0] as u64);

        let span = tracer.begin("encode", op, id);
        let payload = self.codec.encode(&features);
        self.plan.recycle(features);
        let mut body = Vec::with_capacity(payload.wire_bytes());
        payload.encode_into(&mut body);
        let frame = Frame::new(OpCode::InferRequest, id, body);
        tracer.end(span, frame.encoded_len() as u64);

        let sent_from_ns = tracer.now_ns();
        let span = tracer.begin("send", op, id);
        self.transport.send(&frame).map_err(|e| err("send", &e))?;
        tracer.end(span, frame.encoded_len() as u64);

        let span = tracer.begin("wait", op, id);
        let response = self.transport.receive().map_err(|e| err("receive", &e))?;
        tracer.end(span, response.encoded_len() as u64);
        recorder.round_trip(tracer.now_ns() - sent_from_ns);
        recorder.wire_bytes += (frame.encoded_len() + response.encoded_len()) as u64;

        let span = tracer.begin("decode", op, id);
        if response.op != OpCode::InferResponse || response.request_id != id {
            return Err(format!(
                "unexpected response {:?} for request {id}",
                response.op
            ));
        }
        let outputs = decode_response(&response.body)
            .map_err(|e| err("decode response", &e))?
            .iter()
            .map(|payload| self.codec.decode(payload))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("decode output", &e))?;
        tracer.end(span, outputs.len() as u64);

        tracer.end(op, 1);
        Ok(outputs)
    }
}

impl Workload for EdgeDeep {
    fn run(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
    ) -> Result<(), String> {
        let start_ns = tracer.now_ns();
        let end_ns = start_ns + duration.as_nanos() as u64;
        let mut last_done_ns = start_ns;
        loop {
            let begun_ns = tracer.now_ns();
            if begun_ns >= end_ns {
                return Ok(());
            }
            // Closed loop: the op was due when the previous one completed.
            recorder.lag(begun_ns - last_done_ns);
            let index = self.next % self.images.len();
            self.next += 1;
            recorder.attempted += 1;
            let outcome = if self.by_hand {
                self.infer_by_hand(index, tracer, recorder)
            } else {
                self.client
                    .infer(&self.images[index])
                    .map_err(|e| format!("infer: {e}"))
            };
            let done_ns = tracer.now_ns();
            last_done_ns = done_ns;
            let check = tracer.begin("check", SpanId::NONE, self.next as u64);
            match outcome {
                Ok(outputs) if outputs == self.expected[index] => {
                    recorder.complete(done_ns - start_ns, done_ns - begun_ns, 0);
                }
                Ok(_) => recorder.wrong_output(|| {
                    format!("image {index}: served outputs differ from the monolithic forward")
                }),
                // A broken connection fails every later op too: stop here.
                Err(problem) => return Err(problem),
            }
            tracer.end(check, 1);
        }
    }

    fn server_metrics(&self) -> Option<ServeMetrics> {
        Some(self.served.server.metrics())
    }

    fn stop(self: Box<Self>) {
        drop(self.client);
        drop(self.transport);
        self.served.stop();
    }
}
