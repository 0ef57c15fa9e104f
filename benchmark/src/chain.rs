//! The two chain workloads: source → relay → sink in memory, one thread,
//! zero sockets, at the paper's scale (k = 2048, m = 1 KiB).
//!
//! Every symbol crosses each hop as the bytes of the header-first
//! exchange — `DATA-HEADER`, `FEEDBACK`, `DATA-PAYLOAD` — so the coding
//! plane and the envelope codec do all of the work and `net::peer`,
//! `reactor`, `faults` and `serve` do none. A span wraps every call into
//! a layer's public function; the spans' self times must add up to the
//! operation's wall time (`chain.ledger_coverage`).
//!
//! Round-robin: the source offers one symbol to the relay until the
//! relay is complete, the relay offers one recoded symbol to the sink.
//! A sink the complete relay has stopped helping falls back to the
//! source (see [`STALL_OFFERS`]).

use std::time::Instant;

use ltnc_gf2::EncodedPacket;
use ltnc_metrics::OpKind;
use ltnc_net::envelope::{
    decode_view, encode, EnvelopeHeader, Message, MessageKind, MessageView, TraceContext,
};
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_session::{ReceiverSession, SourceSession};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::seed::Stream;
use crate::trace::{stage_totals, Trace};
use crate::workload::{Inputs, Metrics, OpOutcome, Samples, Workload};

/// Code length of the chain workloads.
pub const K: usize = 2048;
/// Payload size of the chain workloads.
pub const M: usize = 1024;
/// Receivers that decode the object: the relay and the sink.
const RECEIVERS: u64 = 2;
/// Rounds after which an operation counts as not converging.
const MAX_ROUNDS: usize = 40 * K;
/// Offers in a row from a complete relay, none of them useful to the
/// sink, after which the sink falls back to the source. At the commit
/// this benchmark was added, a complete LTNC relay sometimes never again
/// offers a few natives (about one operation in 300; see the README), and
/// a sink with one upstream then never finishes. A receiver that turns
/// to another neighbour is what an overlay would do; how often it has to
/// is `chain.sink_fallback_ratio`.
const STALL_OFFERS: u64 = 2 * K as u64;

/// Span names of the stages, with the layer metric each one feeds.
const STAGES: [(&str, &str, &str); 10] = [
    ("chain.session_new", "chain.session_new.self_s", "chain.session_new.calls"),
    ("chain.encode", "chain.encode.self_s", "chain.encode.calls"),
    ("chain.recode", "chain.recode.self_s", "chain.recode.calls"),
    ("chain.relay_accept", "chain.relay_accept.self_s", "chain.relay_accept.calls"),
    ("chain.sink_accept", "chain.sink_accept.self_s", "chain.sink_accept.calls"),
    ("chain.relay_deliver", "chain.relay_deliver.self_s", "chain.relay_deliver.calls"),
    ("chain.sink_deliver", "chain.sink_deliver.self_s", "chain.sink_deliver.calls"),
    ("chain.wire_encode", "chain.wire_encode.self_s", "chain.wire_encode.calls"),
    ("chain.wire_decode", "chain.wire_decode.self_s", "chain.wire_decode.calls"),
    ("chain.reassemble", "chain.reassemble.self_s", "chain.reassemble.calls"),
];

/// `chain.decode.<label>` in `OpKind::ALL` order.
pub const DECODE_COUNTS: [&str; 9] = [
    "chain.decode.payload_xor",
    "chain.decode.vector_xor",
    "chain.decode.row_reduction",
    "chain.decode.tanner_edge_update",
    "chain.decode.index_update",
    "chain.decode.degree_draw",
    "chain.decode.build_candidate",
    "chain.decode.refine_step",
    "chain.decode.redundancy_check",
];

/// `chain.recode.<label>` in `OpKind::ALL` order.
pub const RECODE_COUNTS: [&str; 9] = [
    "chain.recode.payload_xor",
    "chain.recode.vector_xor",
    "chain.recode.row_reduction",
    "chain.recode.tanner_edge_update",
    "chain.recode.index_update",
    "chain.recode.degree_draw",
    "chain.recode.build_candidate",
    "chain.recode.refine_step",
    "chain.recode.redundancy_check",
];

/// One chain workload: the scheme is the only thing the two differ in.
pub struct ChainWorkload {
    scheme: SchemeKind,
    inputs: Inputs,
}

impl ChainWorkload {
    /// The chain under `scheme`. There is nothing to set up: every
    /// operation builds its own sessions from its own object.
    #[must_use]
    pub fn new(scheme: SchemeKind, inputs: Inputs) -> ChainWorkload {
        ChainWorkload { scheme, inputs }
    }
}

/// Tallies of one hop's header-first exchanges.
#[derive(Default)]
struct Hop {
    offers: u64,
    aborts: u64,
    delivered: u64,
    useful: u64,
}

/// The receiving end of one hop and the spans its two calls run under.
struct Receiver<'a> {
    session: &'a mut ReceiverSession,
    accept_span: &'static str,
    deliver_span: &'static str,
    tally: &'a mut Hop,
}

/// What every envelope of one operation shares.
struct Link<'a> {
    trace: &'a mut Trace,
    scheme: SchemeKind,
    session: u64,
    next_transfer: u64,
    wire_bytes: u64,
}

impl Link<'_> {
    fn header(&self, kind: MessageKind, generation: u32) -> EnvelopeHeader {
        EnvelopeHeader { kind, scheme: self.scheme, session: self.session, generation }
    }

    /// Encodes one envelope and counts its bytes as put on the wire.
    fn send(&mut self, generation: u32, message: &Message) -> Vec<u8> {
        let header = self.header(message.kind(), generation);
        let bytes = self.trace.time("chain.wire_encode", || encode(&header, message));
        self.wire_bytes += bytes.len() as u64;
        bytes
    }

    /// One full header-first exchange of `packet` towards `to`.
    fn transfer(
        &mut self,
        to: &mut Receiver<'_>,
        generation: u32,
        lineage: TraceContext,
        packet: EncodedPacket,
    ) -> Result<(), String> {
        let transfer = self.next_transfer;
        self.next_transfer += 1;
        to.tally.offers += 1;

        let offer = Message::DataHeader {
            transfer,
            trace: lineage,
            payload_size: packet.payload_size(),
            vector: packet.vector().clone(),
        };
        let bytes = self.send(generation, &offer);
        let view = self.trace.time("chain.wire_decode", || decode_view(&bytes));
        let MessageView::DataHeader { vector, .. } = view.map_err(|e| e.to_string())?.message
        else {
            return Err("DATA-HEADER decoded as another kind".to_string());
        };
        let accept =
            self.trace.time(to.accept_span, || to.session.would_accept(generation, &vector));

        let bytes = self.send(generation, &Message::Feedback { transfer, accept });
        let view = self.trace.time("chain.wire_decode", || decode_view(&bytes));
        let MessageView::Feedback { accept, .. } = view.map_err(|e| e.to_string())?.message else {
            return Err("FEEDBACK decoded as another kind".to_string());
        };
        if !accept {
            to.tally.aborts += 1;
            return Ok(());
        }

        let bytes =
            self.send(generation, &Message::DataPayload { transfer, trace: lineage, packet });
        // The payload copy out of the receive buffer is the receiving
        // side's single retain point, so it belongs to the decode.
        let received = self.trace.time("chain.wire_decode", || {
            decode_view(&bytes).map(|view| match view.message {
                MessageView::DataPayload { packet, .. } => Some(packet.into_packet()),
                _ => None,
            })
        });
        let received = received
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "DATA-PAYLOAD decoded as another kind".to_string())?;
        let useful = self.trace.time(to.deliver_span, || to.session.deliver(generation, &received));
        to.tally.delivered += 1;
        to.tally.useful += u64::from(useful);
        Ok(())
    }
}

impl Workload for ChainWorkload {
    fn op(&mut self, op: u64, trace: &mut Trace) -> OpOutcome {
        let object = self.inputs.object(op, K * M);
        let params = SchemeParams::new(self.scheme, K, M);
        let node_seed = self.inputs.derive(op, Stream::Node);
        let mut source_rng = SmallRng::seed_from_u64(node_seed);
        let mut relay_rng = SmallRng::seed_from_u64(node_seed ^ 1);
        // A fixed lineage instead of the wall clock: the envelope bytes,
        // and so `wire_overhead`, repeat exactly for a seed.
        let origin_micros = self.inputs.derive(op, Stream::Session) >> 16;
        let from_source = TraceContext { origin_micros, hop: 0 };
        let from_relay = from_source.next_hop();
        let (mut to_relay, mut to_sink) = (Hop::default(), Hop::default());

        let started = Instant::now();
        trace.start_op(op);
        let root = trace.begin("chain.op");
        let (mut source, mut relay, mut sink) = trace.time("chain.session_new", || {
            let source = SourceSession::new(&object, params);
            let manifest = *source.manifest();
            (source, ReceiverSession::new(manifest), ReceiverSession::new(manifest))
        });
        let mut link = Link {
            trace,
            scheme: self.scheme,
            session: self.inputs.derive(op, Stream::Session),
            next_transfer: 0,
            wire_bytes: 0,
        };
        let mut rounds = 0;
        let mut error = None;
        let mut sink_dry_offers = 0;
        let mut sink_fell_back = false;
        while !(relay.is_complete() && sink.is_complete()) && error.is_none() {
            rounds += 1;
            if rounds > MAX_ROUNDS {
                error = Some("the chain did not converge".to_string());
                break;
            }
            if !relay.is_complete() {
                let symbol = link.trace.time("chain.encode", || {
                    source.make_packet(&mut source_rng, |g| !relay.generation_complete(g))
                });
                if let Some((generation, packet)) = symbol {
                    let mut to = Receiver {
                        session: &mut relay,
                        accept_span: "chain.relay_accept",
                        deliver_span: "chain.relay_deliver",
                        tally: &mut to_relay,
                    };
                    error = link.transfer(&mut to, generation, from_source, packet).err();
                }
            }
            if !sink.is_complete() && error.is_none() {
                sink_fell_back |= relay.is_complete() && sink_dry_offers >= STALL_OFFERS;
                let (symbol, lineage) = if sink_fell_back {
                    let symbol = link
                        .trace
                        .time("chain.encode", || source.make_packet(&mut source_rng, |_| true));
                    (symbol.map(|(_, packet)| packet), from_source)
                } else {
                    let symbol =
                        link.trace.time("chain.recode", || relay.make_packet(0, &mut relay_rng));
                    (symbol, from_relay)
                };
                if let Some(packet) = symbol {
                    let useful_before = to_sink.useful;
                    let mut to = Receiver {
                        session: &mut sink,
                        accept_span: "chain.sink_accept",
                        deliver_span: "chain.sink_deliver",
                        tally: &mut to_sink,
                    };
                    error = link.transfer(&mut to, 0, lineage, packet).err();
                    sink_dry_offers =
                        if to_sink.useful > useful_before { 0 } else { sink_dry_offers + 1 };
                }
            }
        }
        let outputs =
            link.trace.time("chain.reassemble", || [relay.reassemble(), sink.reassemble()]);
        let wire_bytes = link.wire_bytes;
        trace.end(root);
        let wall_s = started.elapsed().as_secs_f64();

        if let Some(error) = &error {
            eprintln!("chain op {op}: {error}");
        }
        let verdict = self.inputs.verify(&object, outputs.iter().map(Option::as_deref));

        let mut layer = vec![
            ("chain.src_payloads", to_relay.delivered as f64),
            ("chain.relay_payloads", to_sink.delivered as f64),
            ("chain.offers", (to_relay.offers + to_sink.offers) as f64),
            ("chain.aborts", (to_relay.aborts + to_sink.aborts) as f64),
            ("chain.relay_delivered", to_relay.delivered as f64),
            ("chain.relay_useful", to_relay.useful as f64),
            ("chain.sink_delivered", to_sink.delivered as f64),
            ("chain.sink_useful", to_sink.useful as f64),
            ("chain.sink_fell_back", f64::from(u8::from(sink_fell_back))),
        ];
        let mut decoding = relay.decoding_counters();
        decoding.merge(&sink.decoding_counters());
        let mut recoding = source.recoding_counters();
        recoding.merge(&relay.recoding_counters());
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            layer.push((DECODE_COUNTS[i], decoding.get(kind) as f64));
            layer.push((RECODE_COUNTS[i], recoding.get(kind) as f64));
        }
        let spans = trace.finish_op();
        if let Some(root) = spans.first() {
            let totals = stage_totals(spans);
            for (span, self_s, calls) in STAGES {
                let total = totals.get(span).copied().unwrap_or_default();
                layer.push((self_s, total.self_ns as f64 * 1e-9));
                layer.push((calls, total.calls as f64));
            }
            layer.push(("chain.op.self_s", totals["chain.op"].self_ns as f64 * 1e-9));
            layer.push(("chain.op.span_s", (root.end_ns - root.start_ns) as f64 * 1e-9));
            layer.push(("trace.spans", spans.len() as f64));
        }

        OpOutcome {
            ok: error.is_none() && verdict.exact == RECEIVERS,
            wrong_bytes: verdict.wrong_bytes,
            wall_s,
            delivered_bytes: object.len() as u64 * verdict.exact,
            wire_bytes,
            layer,
        }
    }
}

/// The `chain.*` layer metrics, folded from the traced operations.
pub fn metrics(samples: &Samples, out: &mut Metrics) {
    let busy = |stage: &str| samples.median(stage);
    let per_call_us = |self_s: &str, calls: &str| 1e6 * samples.ratio(self_s, calls);
    out.extend([
        ("chain.encode_busy_s", busy("chain.encode.self_s")),
        ("chain.encode_us", per_call_us("chain.encode.self_s", "chain.encode.calls")),
        ("chain.recode_busy_s", busy("chain.recode.self_s")),
        ("chain.recode_us", per_call_us("chain.recode.self_s", "chain.recode.calls")),
        ("chain.relay_accept_busy_s", busy("chain.relay_accept.self_s")),
        ("chain.sink_accept_busy_s", busy("chain.sink_accept.self_s")),
        ("chain.relay_deliver_busy_s", busy("chain.relay_deliver.self_s")),
        (
            "chain.relay_deliver_us",
            per_call_us("chain.relay_deliver.self_s", "chain.relay_deliver.calls"),
        ),
        ("chain.sink_deliver_busy_s", busy("chain.sink_deliver.self_s")),
        (
            "chain.sink_deliver_us",
            per_call_us("chain.sink_deliver.self_s", "chain.sink_deliver.calls"),
        ),
        ("chain.wire_encode_busy_s", busy("chain.wire_encode.self_s")),
        ("chain.wire_decode_busy_s", busy("chain.wire_decode.self_s")),
        ("chain.reassemble_busy_s", busy("chain.reassemble.self_s")),
        ("chain.src_symbols_per_k", samples.mean("chain.src_payloads") / K as f64),
        ("chain.relay_symbols_per_k", samples.mean("chain.relay_payloads") / K as f64),
        ("chain.abort_ratio", samples.ratio("chain.aborts", "chain.offers")),
        ("chain.relay_useful_ratio", samples.ratio("chain.relay_useful", "chain.relay_delivered")),
        ("chain.sink_useful_ratio", samples.ratio("chain.sink_useful", "chain.sink_delivered")),
        ("chain.sink_fallback_ratio", samples.mean("chain.sink_fell_back")),
    ]);
    for name in DECODE_COUNTS.into_iter().chain(RECODE_COUNTS) {
        out.push((name, samples.mean(name)));
    }
    let span_s = samples.sum("chain.op.span_s");
    let coverage = if span_s == 0.0 { 0.0 } else { 1.0 - samples.sum("chain.op.self_s") / span_s };
    out.push(("chain.ledger_coverage", coverage));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_names_follow_the_op_kind_labels() {
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(DECODE_COUNTS[i], format!("chain.decode.{}", kind.label()));
            assert_eq!(RECODE_COUNTS[i], format!("chain.recode.{}", kind.label()));
        }
    }
}
