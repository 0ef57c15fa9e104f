//! Both halves of the header-first transfer on one link (`DATA-HEADER` →
//! `FEEDBACK` → `DATA-PAYLOAD` on accept, `COMPLETE`s back), kept per link
//! by a gossip node, a serving session and a fetch client alike. Neither
//! holds policy or reads a clock. The sender's [`OfferLedger`] numbers the
//! link's transfers from 1 and holds each offer until its feedback or its
//! TTL (the caller passes `now`), and the last summary a verdict brought
//! for each generation, into which the sender folds what it sends; the
//! receiver's [`AcceptLedger`] holds each accept, with its `now`, until
//! the one payload of that transfer and generation claims it, within a
//! cap the caller passes. A receiver writes its verdicts with
//! [`encode_verdict_into`], which carries its summary up to
//! [`MAX_SUMMARY_BYTES`].

use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Duration;

use ltnc_gf2::EncodedPacket;
use ltnc_scheme::Summary;

use crate::envelope::{
    self, EnvelopeHeader, TraceContext, FEEDBACK_FRAME_BYTES, GENERATION_OBJECT,
};

/// The longest summary a verdict carries; past it the verdict goes plain.
pub const MAX_SUMMARY_BYTES: usize = 256;

/// Appends the verdict `accept` on offer `transfer` of `header`'s
/// generation to `out`: an `ACCEPT-SUMMARY` or `ABORT-SUMMARY` carrying
/// `summary` when it encodes to [`MAX_SUMMARY_BYTES`] or fewer, else a
/// plain `FEEDBACK`. Returns whether the summary went.
pub fn encode_verdict_into(
    out: &mut Vec<u8>,
    header: &EnvelopeHeader,
    transfer: u64,
    accept: bool,
    summary: Option<&Summary>,
) -> bool {
    let start = out.len();
    if let Some(summary) = summary {
        envelope::encode_feedback_summary_into(out, header, transfer, accept, summary);
        if out.len() - start - FEEDBACK_FRAME_BYTES <= MAX_SUMMARY_BYTES {
            return true;
        }
        out.truncate(start);
    }
    envelope::encode_feedback_into(out, header, transfer, accept);
    false
}

/// One offer awaiting its feedback.
#[derive(Debug)]
pub struct Offer<P> {
    /// The packet's generation.
    pub generation: u32,
    /// The packet: owned by a node, shared with the warm ring on a server.
    pub packet: P,
    /// When the offer left, in µs on the caller's clock.
    pub born: u64,
    /// The packet was built from the receiver's summary.
    pub smart: bool,
}

impl<P: Borrow<EncodedPacket>> Offer<P> {
    /// Appends the `DATA-PAYLOAD` frame delivering this offer, accepted
    /// as `transfer`, to `out`. Its trace context is the offer's.
    pub fn encode_payload_into(&self, out: &mut Vec<u8>, header: &EnvelopeHeader, transfer: u64) {
        let trace = TraceContext::origin_now(self.born);
        envelope::encode_payload_into(out, header, transfer, &trace, self.packet.borrow());
    }
}

/// The offers pending on one sender→receiver link, the generations the
/// receiver said `COMPLETE` for, and its last summary of each generation
/// it has not.
#[derive(Debug)]
pub struct OfferLedger<P> {
    next_transfer: u64,
    /// By transfer id, so in birth order.
    pending: BTreeMap<u64, Offer<P>>,
    /// One flag per generation of the object.
    done: Vec<bool>,
    object_done: bool,
    /// By generation: at most one per generation of the object.
    summaries: BTreeMap<u32, Summary>,
}

impl<P: Borrow<EncodedPacket>> OfferLedger<P> {
    /// An empty ledger for an object of `generations` generations.
    #[must_use]
    pub fn new(generations: u32) -> OfferLedger<P> {
        let done = vec![false; generations as usize];
        let (pending, summaries) = (BTreeMap::new(), BTreeMap::new());
        OfferLedger { next_transfer: 1, pending, done, object_done: false, summaries }
    }

    /// Appends the `DATA-HEADER` frame offering `packet` of
    /// `header.generation` at `born` to `out` and holds the offer under
    /// the link's next transfer id, which it returns. `smart` says the
    /// packet was built from the receiver's summary. The frame's trace
    /// context is [`TraceContext::origin_now`] of `born`.
    pub fn offer(
        &mut self,
        out: &mut Vec<u8>,
        header: &EnvelopeHeader,
        packet: P,
        smart: bool,
        born: u64,
    ) -> u64 {
        let (transfer, p) = (self.next_transfer, packet.borrow());
        let trace = TraceContext::origin_now(born);
        envelope::encode_offer_into(out, header, transfer, &trace, p.vector(), p.payload_size());
        let generation = header.generation;
        self.pending.insert(transfer, Offer { generation, packet, born, smart });
        self.next_transfer += 1;
        transfer
    }

    /// Hands offer `transfer` back, once, when its feedback arrives:
    /// `None` if it was never made, already answered or expired.
    pub fn take(&mut self, transfer: u64) -> Option<Offer<P>> {
        self.pending.remove(&transfer)
    }

    /// Removes the oldest offer if it is `ttl` old or older at `now`.
    /// Called until `None`, it expires exactly those, oldest first.
    pub fn expire(&mut self, now: u64, ttl: Duration) -> Option<Offer<P>> {
        let oldest = self.pending.first_entry()?;
        (Duration::from_micros(now.saturating_sub(oldest.get().born)) >= ttl)
            .then(|| oldest.remove())
    }

    /// Offers awaiting feedback.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Records the receiver's `COMPLETE` for `generation`, or for the
    /// object ([`GENERATION_OBJECT`]); any other generation is ignored.
    /// The summaries of what is complete go.
    pub fn complete(&mut self, generation: u32) {
        if generation == GENERATION_OBJECT {
            self.object_done = true;
            self.summaries.clear();
        } else if let Some(done) = self.done.get_mut(generation as usize) {
            *done = true;
            self.summaries.remove(&generation);
        }
    }

    /// Keeps `summary` as the receiver's last word on `generation`, in
    /// place of any earlier one; a generation the object lacks or the
    /// receiver completed is ignored.
    pub fn note_summary(&mut self, generation: u32, summary: Summary) {
        if self.done.get(generation as usize) == Some(&false) && !self.object_done {
            self.summaries.insert(generation, summary);
        }
    }

    /// The summary held for `generation`, if any, for the sender to build
    /// its next offer of that generation from and fold it into.
    pub fn summary_mut(&mut self, generation: u32) -> Option<&mut Summary> {
        self.summaries.get_mut(&generation)
    }

    /// The summaries held, lowest generation first, for the sender to
    /// build offers from and [`Summary::fold`] them into. Each stays until
    /// a newer one of its generation replaces it or a `COMPLETE` drops it.
    pub fn summaries_mut(&mut self) -> impl Iterator<Item = (u32, &mut Summary)> {
        self.summaries.iter_mut().map(|(&generation, summary)| (generation, summary))
    }

    /// The receiver said `COMPLETE` for `generation`.
    #[must_use]
    pub fn is_done(&self, generation: u32) -> bool {
        self.done.get(generation as usize) == Some(&true)
    }

    /// The receiver said `COMPLETE` for the object.
    #[must_use]
    pub fn object_done(&self) -> bool {
        self.object_done
    }
}

/// The transfers a receiver accepted on one link, until payloads claim
/// them, each with the time of its accept.
#[derive(Debug)]
pub struct AcceptLedger {
    /// By transfer id, so oldest transfer first: the generation and the
    /// accept's `now`.
    accepted: BTreeMap<u64, (u32, u64)>,
    cap: usize,
}

impl AcceptLedger {
    /// An empty ledger holding at most `cap` accepts.
    #[must_use]
    pub fn new(cap: usize) -> AcceptLedger {
        AcceptLedger { accepted: BTreeMap::new(), cap }
    }

    /// Records the accept of `transfer` of `generation` at `now`, on the
    /// caller's clock (a repeat replaces it). Past the cap it evicts the
    /// oldest transfer and returns its id.
    pub fn accept(&mut self, transfer: u64, generation: u32, now: u64) -> Option<u64> {
        self.accepted.insert(transfer, (generation, now));
        if self.accepted.len() <= self.cap {
            return None;
        }
        self.accepted.pop_first().map(|(evicted, _)| evicted)
    }

    /// Consumes the accept of `transfer` if it names `generation` (else
    /// keeps it) and returns when it was given; `None` means the payload
    /// was unsolicited.
    pub fn claim(&mut self, transfer: u64, generation: u32) -> Option<u64> {
        match self.accepted.entry(transfer) {
            Entry::Occupied(accept) if accept.get().0 == generation => Some(accept.remove().1),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ltnc_gf2::{CodeVector, Payload};
    use ltnc_scheme::SchemeKind;

    use super::*;
    use crate::envelope::{Message, MessageKind};

    fn packet(index: usize) -> EncodedPacket {
        EncodedPacket::new(CodeVector::singleton(8, index), Payload::from_vec(vec![index as u8; 4]))
    }

    fn header(generation: u32) -> EnvelopeHeader {
        EnvelopeHeader {
            kind: MessageKind::DataHeader,
            scheme: SchemeKind::Rlnc,
            session: 3,
            generation,
        }
    }

    /// Offers packet `index` of `generation`, born at `born`; returns its
    /// transfer id and the frame written.
    fn offer<P>(
        ledger: &mut OfferLedger<P>,
        index: usize,
        generation: u32,
        born: u64,
    ) -> (u64, Vec<u8>)
    where
        P: Borrow<EncodedPacket> + From<EncodedPacket>,
    {
        let mut frame = Vec::new();
        let id = ledger.offer(&mut frame, &header(generation), packet(index).into(), false, born);
        (id, frame)
    }

    /// Runs `check` with the packet held owned, as a gossip node does,
    /// and shared, as a serving session does.
    fn for_both(
        check: fn(OfferLedger<EncodedPacket>),
        shared: fn(OfferLedger<Arc<EncodedPacket>>),
    ) {
        check(OfferLedger::new(4));
        shared(OfferLedger::new(4));
    }

    fn ids_rise_from_one<P: Borrow<EncodedPacket> + From<EncodedPacket>>(
        mut ledger: OfferLedger<P>,
    ) {
        for (expected, index) in (1..=5).zip(0..) {
            let (id, frame) = offer(&mut ledger, index, 0, 0);
            assert_eq!(id, expected);
            let sent = envelope::decode_view(&frame).expect("valid frame").into_owned();
            let Message::DataHeader { transfer, vector, payload_size, .. } = sent.message else {
                panic!("not an offer: {:?}", sent.header.kind)
            };
            assert_eq!((transfer, vector, payload_size), (id, packet(index).vector().clone(), 4));
        }
    }

    #[test]
    fn transfer_ids_start_at_one_and_rise() {
        for_both(ids_rise_from_one, ids_rise_from_one);
    }

    fn take_once<P: Borrow<EncodedPacket> + From<EncodedPacket>>(mut ledger: OfferLedger<P>) {
        for index in 0..3 {
            offer(&mut ledger, index, index as u32, 10 * index as u64);
        }
        let taken = ledger.take(2).expect("offer 2 is pending");
        assert_eq!((taken.generation, taken.born), (1, 10));
        assert_eq!(taken.packet.borrow(), &packet(1));
        let mut frame = Vec::new();
        taken.encode_payload_into(&mut frame, &header(1), 2);
        let sent = envelope::decode_view(&frame).expect("valid frame").into_owned();
        let Message::DataPayload { transfer, trace, packet: delivered } = sent.message else {
            panic!("not a payload: {:?}", sent.header.kind)
        };
        assert_eq!((transfer, trace), (2, TraceContext::origin_now(10)), "the offer's stamp");
        assert_eq!(&delivered, taken.packet.borrow());
        assert!(ledger.take(2).is_none(), "an offer is handed back once");
        assert!(ledger.take(0).is_none() && ledger.take(4).is_none(), "never offered");
        assert!(ledger.take(1).is_some() && ledger.take(3).is_some());
    }

    #[test]
    fn take_hands_each_offer_back_once() {
        for_both(take_once, take_once);
    }

    fn expire_oldest_first<P>(mut ledger: OfferLedger<P>)
    where
        P: Borrow<EncodedPacket> + From<EncodedPacket>,
    {
        for (index, born) in [0, 10, 20, 30, 40].into_iter().enumerate() {
            offer(&mut ledger, index, 0, born);
        }
        ledger.take(1).expect("pending");
        let ttl = Duration::from_micros(15);
        // At 35: born 10 is past the TTL and born 20 exactly at it; born
        // 0 was answered, and 30 and 40 are younger.
        let expired: Vec<u64> =
            std::iter::from_fn(|| ledger.expire(35, ttl)).map(|o| o.born).collect();
        assert_eq!(expired, [10, 20]);
        assert_eq!(ledger.in_flight(), 2);
        assert!(ledger.take(4).is_some() && ledger.take(5).is_some(), "the younger ones stay");
        assert!(ledger.expire(u64::MAX, Duration::ZERO).is_none());
    }

    #[test]
    fn expiry_takes_exactly_the_offers_at_or_past_the_ttl_oldest_first() {
        for_both(expire_oldest_first, expire_oldest_first);
    }

    fn in_flight_is_pending<P: Borrow<EncodedPacket> + From<EncodedPacket>>(
        mut ledger: OfferLedger<P>,
    ) {
        assert_eq!(ledger.in_flight(), 0);
        for index in 0..6 {
            offer(&mut ledger, index, 0, index as u64);
            assert_eq!(ledger.in_flight(), index + 1);
        }
        ledger.take(3).expect("pending");
        assert!(ledger.take(3).is_none());
        ledger.expire(1, Duration::ZERO).expect("the oldest");
        assert_eq!(ledger.in_flight(), 4);
        for id in [2, 4, 5, 6] {
            ledger.take(id).expect("pending");
        }
        assert_eq!(ledger.in_flight(), 0);
    }

    #[test]
    fn in_flight_equals_the_pending_count() {
        for_both(in_flight_is_pending, in_flight_is_pending);
    }

    #[test]
    fn the_complete_bitmap_keeps_to_the_object_and_the_object_flag_apart() {
        let mut ledger: OfferLedger<Arc<EncodedPacket>> = OfferLedger::new(70);
        let untouched = format!("{ledger:?}");
        for generation in [70, 100, 127, 128, 1 << 20, GENERATION_OBJECT - 1] {
            ledger.complete(generation);
            assert!(!ledger.is_done(generation), "generation {generation} is not the object's");
        }
        assert_eq!(format!("{ledger:?}"), untouched, "an out-of-range COMPLETE changed the ledger");

        ledger.complete(0);
        ledger.complete(69);
        assert!(ledger.is_done(0) && ledger.is_done(69) && !ledger.is_done(1));
        assert!(!ledger.object_done(), "a generation is not the object");
        ledger.complete(GENERATION_OBJECT);
        assert!(ledger.object_done());
        assert!(
            (1..69).all(|generation| !ledger.is_done(generation)),
            "the object is no generation"
        );

        let mut owned: OfferLedger<EncodedPacket> = OfferLedger::new(0);
        owned.complete(0);
        assert!(!owned.is_done(0));
        owned.complete(GENERATION_OBJECT);
        assert!(owned.object_done());
    }

    impl<P> OfferLedger<P> {
        /// Summaries held, for tests outside this module.
        pub(crate) fn summaries_held(&self) -> usize {
            self.summaries.len()
        }
    }

    /// The summary of a receiver of `k` natives that decoded those below
    /// `decoded`.
    fn summary(k: usize, decoded: usize) -> Summary {
        Summary::from_labels(
            &(0..k).map(|x| if x < decoded { 0 } else { x + 1 }).collect::<Vec<_>>(),
        )
    }

    fn held(ledger: &mut OfferLedger<EncodedPacket>) -> Vec<(u32, Summary)> {
        ledger.summaries_mut().map(|(generation, summary)| (generation, summary.clone())).collect()
    }

    #[test]
    fn a_link_holds_at_most_one_summary_per_open_generation() {
        let mut ledger: OfferLedger<EncodedPacket> = OfferLedger::new(3);
        for generation in [0, 1, 2, 3, 70, GENERATION_OBJECT] {
            for k in 1..=4 {
                ledger.note_summary(generation, summary(k, 0));
            }
        }
        let last = summary(4, 0);
        assert_eq!(
            held(&mut ledger),
            [(0, last.clone()), (1, last.clone()), (2, last.clone())],
            "one per generation of the object, the last, lowest first"
        );
        // A fold stays in the held copy, read again and again, until a
        // newer summary of its generation replaces it.
        for (_, summary) in ledger.summaries_mut() {
            summary.fold(&CodeVector::singleton(4, 0));
        }
        let folded = summary(4, 1);
        assert_eq!(held(&mut ledger), [(0, folded.clone()), (1, folded.clone()), (2, folded)]);
        ledger.note_summary(1, last.clone());
        assert_eq!(held(&mut ledger)[1], (1, last), "a newer summary replaces the folded copy");
        ledger.complete(0);
        ledger.note_summary(0, summary(5, 0));
        assert_eq!(ledger.summaries_held(), 2, "a COMPLETE drops its generation's summary");
        ledger.complete(GENERATION_OBJECT);
        ledger.note_summary(2, summary(6, 0));
        assert_eq!(ledger.summaries_held(), 0, "the object's COMPLETE drops them all");
        assert!(held(&mut ledger).is_empty());
    }

    #[test]
    fn a_verdict_carries_a_summary_up_to_the_cap_and_goes_plain_past_it() {
        // Appended behind frames already queued, as a stream batches them.
        let queued = vec![0xAB; 7];
        let verdict = |summary: &Summary| {
            let mut out = queued.clone();
            let summarised = encode_verdict_into(&mut out, &header(2), 9, true, Some(summary));
            assert_eq!(out[..queued.len()], queued[..], "a queued frame was touched");
            let frame = envelope::decode_view(&out[queued.len()..]).expect("one frame");
            (summarised, frame.into_owned().message)
        };
        let small = summary(16, 5);
        assert_eq!(
            verdict(&small),
            (true, Message::FeedbackSummary { transfer: 9, accept: true, summary: small })
        );
        // Every other native of 4096 decoded: a bitmap of 512 bytes, or
        // a longer index list.
        let labels: Vec<usize> = (0..4096).map(|x| if x % 2 == 0 { 0 } else { x + 1 }).collect();
        let large = Summary::from_labels(&labels);
        assert_eq!(verdict(&large), (false, Message::Feedback { transfer: 9, accept: true }));
        let mut plain = Vec::new();
        assert!(!encode_verdict_into(&mut plain, &header(2), 9, false, None));
        assert_eq!(plain.len(), FEEDBACK_FRAME_BYTES);
    }

    #[test]
    fn an_accept_is_claimed_once_and_only_for_its_generation() {
        let mut ledger = AcceptLedger::new(8);
        assert_eq!(ledger.accept(1, 0, 100), None);
        assert_eq!(ledger.accept(2, 5, 250), None);
        assert_eq!(ledger.claim(3, 0), None, "never accepted");
        assert_eq!(ledger.claim(1, 5), None, "accepted for generation 0");
        assert_eq!(ledger.claim(1, 0), Some(100), "a wrong-generation claim leaves the record");
        assert_eq!(ledger.claim(1, 0), None, "a record is claimed once");
        assert_eq!((ledger.claim(2, 5), ledger.claim(2, 5)), (Some(250), None));
        ledger.accept(4, 1, 300);
        assert_eq!(ledger.accept(4, 1, 900), None, "a repeat replaces the record");
        assert_eq!(ledger.claim(4, 1), Some(900), "the claim returns the latest accept's time");
    }

    #[test]
    fn the_cap_evicts_the_oldest_accept_first_and_reports_each() {
        let cap = 4;
        let mut ledger = AcceptLedger::new(cap);
        for transfer in 1..=cap as u64 {
            assert_eq!(ledger.accept(transfer, 0, transfer), None, "within the cap");
        }
        assert_eq!(ledger.accept(5, 0, 5), Some(1), "cap + 1 accepts evict exactly the oldest");
        assert_eq!(ledger.claim(1, 0), None, "the evicted accept is gone");
        assert_eq!(ledger.accept(6, 0, 6), Some(2));
        assert_eq!(ledger.accept(6, 0, 6), None, "an accept given again is one record");
        assert!(
            (3..=6).all(|transfer| ledger.claim(transfer, 0) == Some(transfer)),
            "the younger ones stay"
        );
        assert_eq!(ledger.accept(7, 0, 7), None, "claims free their room");
    }
}
