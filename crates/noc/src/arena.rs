//! Packet storage.
//!
//! Packets live in a slab while their flits are in flight; endpoints
//! receive the [`snoc_common::ids::PacketId`] in each flit and the
//! network hands the owned [`Packet`] back at delivery. Slots are
//! recycled so long simulations run in bounded memory.

use crate::packet::Packet;
use snoc_common::ids::PacketId;
use std::fmt;

/// The arena refused a packet: the id space of a flit's 16-bit packet
/// field is exhausted. Carries the live count so the failure is
/// attributable (a workload injecting without back-pressure, or a
/// leak keeping delivered packets alive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull {
    /// Packets simultaneously in flight when the insert was refused.
    pub live: usize,
}

impl fmt::Display for ArenaFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packet arena full: {} packets simultaneously in flight \
             (the id space of a flit's packet field is u16)",
            self.live
        )
    }
}

impl std::error::Error for ArenaFull {}

/// A recycling slab of in-flight packets.
#[derive(Debug, Default)]
pub struct Arena {
    slots: Vec<Option<Packet>>,
    free: Vec<u16>,
    live: usize,
    /// Monotonic counter behind [`Packet::uid`]: slots (and thus
    /// [`PacketId`]s) are recycled, so lifecycle auditing keys on this
    /// never-reused identity instead.
    next_uid: u64,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a packet, assigning its id.
    ///
    /// # Panics
    ///
    /// Panics with the live count if more than `u16::MAX` packets are
    /// simultaneously in flight (the id space of a flit's packet
    /// field); use [`Self::try_insert`] to handle that case instead.
    pub fn insert(&mut self, packet: Packet) -> PacketId {
        match self.try_insert(packet) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Stores a packet, assigning its id, or returns [`ArenaFull`]
    /// when the id space is exhausted (the packet is dropped).
    pub fn try_insert(&mut self, mut packet: Packet) -> Result<PacketId, ArenaFull> {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                if self.slots.len() >= u16::MAX as usize {
                    return Err(ArenaFull { live: self.live });
                }
                self.slots.push(None);
                (self.slots.len() - 1) as u16
            }
        };
        let id = PacketId::new(idx);
        packet.id = id;
        self.next_uid += 1;
        packet.uid = self.next_uid;
        self.slots[idx as usize] = Some(packet);
        self.live += 1;
        Ok(id)
    }

    /// Borrows a live packet.
    ///
    /// # Panics
    ///
    /// Panics if the packet was already taken.
    pub fn get(&self, id: PacketId) -> &Packet {
        self.slots[id.index()].as_ref().expect("packet is live")
    }

    /// Mutably borrows a live packet.
    ///
    /// # Panics
    ///
    /// Panics if the packet was already taken.
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        self.slots[id.index()].as_mut().expect("packet is live")
    }

    /// Removes a packet, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics if the packet was already taken.
    pub fn take(&mut self, id: PacketId) -> Packet {
        let p = self.slots[id.index()].take().expect("packet is live");
        self.free.push(id.raw());
        self.live -= 1;
        p
    }

    /// Number of live packets.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Iterates over all live packets (audit instrumentation).
    pub fn iter_live(&self) -> impl Iterator<Item = &Packet> {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use snoc_common::geom::{Coord, Layer};

    fn pkt() -> Packet {
        let c = Coord::new(0, 0, Layer::Core);
        Packet::new(PacketKind::BankRead, c, c, 0, 0)
    }

    #[test]
    fn insert_get_take_round_trip() {
        let mut a = Arena::new();
        let id = a.insert(pkt());
        assert_eq!(a.get(id).id, id);
        assert_eq!(a.live(), 1);
        let p = a.take(id);
        assert_eq!(p.id, id);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn slots_are_recycled() {
        let mut a = Arena::new();
        let id1 = a.insert(pkt());
        a.take(id1);
        let id2 = a.insert(pkt());
        assert_eq!(id1, id2, "slot reused");
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut a = Arena::new();
        let id = a.insert(pkt());
        a.get_mut(id).addr = 42;
        assert_eq!(a.get(id).addr, 42);
    }

    #[test]
    #[should_panic(expected = "live")]
    fn double_take_panics() {
        let mut a = Arena::new();
        let id = a.insert(pkt());
        a.take(id);
        a.take(id);
    }

    #[test]
    fn full_arena_returns_a_typed_error_with_the_live_count() {
        let mut a = Arena::new();
        for _ in 0..u16::MAX {
            a.try_insert(pkt()).expect("id space not yet exhausted");
        }
        let err = a.try_insert(pkt()).unwrap_err();
        assert_eq!(
            err,
            ArenaFull {
                live: u16::MAX as usize
            }
        );
        assert!(err.to_string().contains("65535 packets"));
        // Freeing one slot makes insertion possible again.
        a.take(PacketId::new(100));
        let id = a.try_insert(pkt()).expect("recycled slot");
        assert_eq!(id, PacketId::new(100));
        assert_eq!(a.live(), u16::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "packet arena full: 65535 packets")]
    fn insert_panic_names_the_live_count() {
        let mut a = Arena::new();
        for _ in 0..=u16::MAX {
            a.insert(pkt());
        }
    }
}
