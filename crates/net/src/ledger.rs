//! Both halves of the header-first transfer on one link (`DATA-HEADER` →
//! `FEEDBACK` → `DATA-PAYLOAD` on accept, `COMPLETE`s back), kept per link
//! by a gossip node, a serving session and a fetch client alike. Neither
//! holds policy or reads a clock. The sender's [`OfferLedger`] numbers the
//! link's transfers from 1 and holds each offer until its feedback or its
//! TTL (the caller passes `now`); the receiver's [`AcceptLedger`] holds
//! each accept until the one payload of that transfer and generation
//! claims it, within a cap the caller passes.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::time::Duration;

use ltnc_gf2::EncodedPacket;

use crate::envelope::{self, EnvelopeHeader, TraceContext, GENERATION_OBJECT};

/// One offer awaiting its feedback.
#[derive(Debug)]
pub struct Offer<P> {
    /// The packet's generation.
    pub generation: u32,
    /// The offer's trace context, which its payload echoes: the delivered
    /// frame then carries the true origin send time, the offer/feedback
    /// round trip (real dissemination latency) included.
    pub trace: TraceContext,
    /// The packet: owned by a node, shared with the warm ring on a server.
    pub packet: P,
    /// When the offer left, in µs on the caller's clock.
    pub born: u64,
}

/// The offers pending on one sender→receiver link, and the generations
/// the receiver said `COMPLETE` for.
#[derive(Debug)]
pub struct OfferLedger<P> {
    next_transfer: u64,
    /// By transfer id, so in birth order.
    pending: BTreeMap<u64, Offer<P>>,
    /// One flag per generation of the object.
    done: Vec<bool>,
    object_done: bool,
}

impl<P: Borrow<EncodedPacket>> OfferLedger<P> {
    /// An empty ledger for an object of `generations` generations.
    #[must_use]
    pub fn new(generations: u32) -> OfferLedger<P> {
        let done = vec![false; generations as usize];
        OfferLedger { next_transfer: 1, pending: BTreeMap::new(), done, object_done: false }
    }

    /// Appends the `DATA-HEADER` frame offering `packet` of
    /// `header.generation` to `out` and holds the offer under the link's
    /// next transfer id, which it returns.
    pub fn offer(
        &mut self,
        out: &mut Vec<u8>,
        header: &EnvelopeHeader,
        trace: TraceContext,
        packet: P,
        born: u64,
    ) -> u64 {
        let (transfer, p) = (self.next_transfer, packet.borrow());
        envelope::encode_offer_into(out, header, transfer, &trace, p.vector(), p.payload_size());
        self.pending.insert(transfer, Offer { generation: header.generation, trace, packet, born });
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
    pub fn complete(&mut self, generation: u32) {
        if generation == GENERATION_OBJECT {
            self.object_done = true;
        } else if let Some(done) = self.done.get_mut(generation as usize) {
            *done = true;
        }
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

/// The transfers a receiver accepted on one link, until payloads claim them.
#[derive(Debug)]
pub struct AcceptLedger {
    /// By transfer id, so oldest transfer first.
    accepted: BTreeMap<u64, u32>,
    cap: usize,
}

impl AcceptLedger {
    /// An empty ledger holding at most `cap` accepts.
    #[must_use]
    pub fn new(cap: usize) -> AcceptLedger {
        AcceptLedger { accepted: BTreeMap::new(), cap }
    }

    /// Records the accept of `transfer` of `generation` (a repeat replaces
    /// it). Past the cap it evicts the oldest transfer and returns its id.
    pub fn accept(&mut self, transfer: u64, generation: u32) -> Option<u64> {
        self.accepted.insert(transfer, generation);
        if self.accepted.len() <= self.cap {
            return None;
        }
        self.accepted.pop_first().map(|(evicted, _)| evicted)
    }

    /// Consumes the accept of `transfer` if it names `generation` (else keeps it).
    pub fn claim(&mut self, transfer: u64, generation: u32) -> bool {
        let matches = self.accepted.get(&transfer) == Some(&generation);
        matches && self.accepted.remove(&transfer).is_some()
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
        let trace = TraceContext::origin_now(born);
        let id = ledger.offer(&mut frame, &header(generation), trace, packet(index).into(), born);
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
        assert_eq!(taken.trace, TraceContext::origin_now(10));
        assert_eq!(taken.packet.borrow(), &packet(1));
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

    #[test]
    fn an_accept_is_claimed_once_and_only_for_its_generation() {
        let mut ledger = AcceptLedger::new(8);
        assert_eq!(ledger.accept(1, 0), None);
        assert_eq!(ledger.accept(2, 5), None);
        assert!(!ledger.claim(3, 0), "never accepted");
        assert!(!ledger.claim(1, 5), "accepted for generation 0");
        assert!(ledger.claim(1, 0), "a wrong-generation claim leaves the record");
        assert!(!ledger.claim(1, 0), "a record is claimed once");
        assert!(ledger.claim(2, 5) && !ledger.claim(2, 5));
    }

    #[test]
    fn the_cap_evicts_the_oldest_accept_first_and_reports_each() {
        let cap = 4;
        let mut ledger = AcceptLedger::new(cap);
        for transfer in 1..=cap as u64 {
            assert_eq!(ledger.accept(transfer, 0), None, "within the cap");
        }
        assert_eq!(ledger.accept(5, 0), Some(1), "cap + 1 accepts evict exactly the oldest");
        assert!(!ledger.claim(1, 0), "the evicted accept is gone");
        assert_eq!(ledger.accept(6, 0), Some(2));
        assert_eq!(ledger.accept(6, 0), None, "an accept given again is one record");
        assert!((3..=6).all(|transfer| ledger.claim(transfer, 0)), "the younger ones stay");
        assert_eq!(ledger.accept(7, 0), None, "claims free their room");
    }
}
