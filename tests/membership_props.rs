//! Property tests for the dynamic-membership handshake: the epoch'd
//! shrink/grow protocol must survive duplicated, reordered, and stale
//! announcements (including epoch wraparound) without ever letting the
//! receiver's simulation diverge from the sender's live mask.

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::handshake::{
    mask_to_vec, vec_to_mask, EpochHandshake as MembershipSender,
    EpochResponder as MembershipResponder, HandshakeAction as MembershipAction,
};
use stripe::core::sched::{CausalScheduler, Srr};

const N: usize = 4;

/// Feed one announcement (with `extra_copies` duplicates) through the
/// responder, applying any Apply action to the receiver scheduler.
fn deliver(
    responder: &mut MembershipResponder<Vec<bool>>,
    rx: &mut Srr,
    msgs: &[(usize, Control)],
    extra_copies: usize,
    applied: &mut Vec<(u32, u16)>,
) {
    for _ in 0..=extra_copies {
        for (c, ctl) in msgs {
            let Control::Membership {
                epoch,
                live_mask,
                effective_round,
            } = ctl
            else {
                panic!("not a membership message");
            };
            match responder.on_membership(*c, *epoch, *live_mask, *effective_round, N) {
                MembershipAction::Apply {
                    effective_round,
                    payload: live,
                    ..
                } => {
                    rx.schedule_mask(effective_round, &live);
                    applied.push((*epoch, *live_mask));
                }
                MembershipAction::AckOnly { .. } | MembershipAction::Ignore => {}
            }
        }
    }
}

proptest! {
    /// Adversarial delivery: every epoch's announcement enters a bag with
    /// duplicates, the bag is arbitrarily reordered (so stale epochs can
    /// arrive *after* newer ones), and the whole bag is delivered. The
    /// responder must apply each epoch at most once, never regress to an
    /// older epoch, and end exactly on the sender's current mask.
    #[test]
    fn handshake_converges_under_dup_reorder_stale(
        masks in prop::collection::vec(1u16..16, 1..8),
        dup in prop::collection::vec(0usize..3, 8),
        swaps in prop::collection::vec((0usize..128, 0usize..128), 0..48),
    ) {
        let mut sender = MembershipSender::<Vec<bool>>::new(N);
        let mut bag: Vec<(usize, Control)> = Vec::new();
        for (i, &m) in masks.iter().enumerate() {
            let live = mask_to_vec(m, N);
            let msgs = sender.announce(&live, (i as u64 + 1) * 10).expect("valid mask");
            for _ in 0..=dup[i % dup.len()] {
                bag.extend(msgs.iter().cloned());
            }
        }
        // Arbitrary reorder via index swaps.
        let len = bag.len();
        for &(a, b) in &swaps {
            bag.swap(a % len, b % len);
        }
        let mut responder = MembershipResponder::<Vec<bool>>::new();
        let mut rx = Srr::equal(N, 1500);
        let mut applied: Vec<(u32, u16)> = Vec::new();
        deliver(&mut responder, &mut rx, &bag, 0, &mut applied);

        // Each epoch applied at most once.
        let mut epochs: Vec<u32> = applied.iter().map(|&(e, _)| e).collect();
        let unique = epochs.len();
        epochs.dedup();
        prop_assert_eq!(epochs.len(), unique, "an epoch was applied twice");
        // Applied epochs are strictly increasing: no regression to stale.
        for w in applied.windows(2) {
            prop_assert!(w[1].0 > w[0].0, "epoch regressed: {:?}", applied);
        }
        // Convergence: the responder ends on the sender's current state.
        prop_assert_eq!(responder.epoch(), sender.epoch());
        let (_, final_mask) = applied.last().expect("newest epoch must apply");
        prop_assert_eq!(*final_mask, vec_to_mask(sender.live()).expect("mask fits"));
    }

    /// Epoch wraparound: a sequence of epochs marching through u32::MAX,
    /// delivered with duplicates of each, must keep applying in wrapping
    /// order — the comparison is circular, not magnitude-based.
    #[test]
    fn responder_applies_across_epoch_wrap(
        start_offset in 0u32..6,
        count in 2u32..10,
        masks in prop::collection::vec(1u16..16, 10),
    ) {
        let start = u32::MAX - start_offset;
        let mut responder = MembershipResponder::<Vec<bool>>::new();
        let mut applied = Vec::new();
        for i in 0..count {
            let epoch = start.wrapping_add(i);
            let mask = masks[i as usize % masks.len()];
            // Deliver twice: the duplicate must be AckOnly, not re-Apply.
            for attempt in 0..2 {
                match responder.on_membership(0, epoch, mask, 0, N) {
                    MembershipAction::Apply { .. } => {
                        prop_assert_eq!(attempt, 0, "duplicate re-applied");
                        applied.push(epoch);
                    }
                    MembershipAction::AckOnly { .. } => {
                        prop_assert_eq!(attempt, 1, "first sighting not applied");
                    }
                    MembershipAction::Ignore => prop_assert!(false, "wrap treated as stale"),
                }
            }
        }
        prop_assert_eq!(applied.len(), count as usize);
        prop_assert_eq!(responder.epoch(), start.wrapping_add(count - 1));
    }

    /// The invariant everything else exists for: through a shrink and a
    /// grow (with duplicated announcements), the receiver's simulation
    /// makes byte-for-byte identical channel decisions to the sender's
    /// scheduler — the live masks never diverge.
    #[test]
    fn simulation_stays_in_lockstep_through_shrink_and_grow(
        shrink_mask in 1u16..15, // at least one bit clear of 0b1111
        lens in prop::collection::vec(40usize..1500, 120..240),
        dup in 0usize..3,
        lead in 1u64..4,
    ) {
        let mut tx = Srr::equal(N, 1500);
        let mut rx = Srr::equal(N, 1500);
        let mut sender = MembershipSender::<Vec<bool>>::new(N);
        let mut responder = MembershipResponder::<Vec<bool>>::new();
        let mut applied = Vec::new();

        let phase = lens.len() / 3;
        for (i, &len) in lens.iter().enumerate() {
            if i == phase {
                // Shrink to an arbitrary proper subset.
                let live = mask_to_vec(shrink_mask, N);
                let eff = tx.round() + lead;
                let msgs = sender.announce(&live, eff).expect("valid mask");
                tx.schedule_mask(eff, &live);
                deliver(&mut responder, &mut rx, &msgs, dup, &mut applied);
            }
            if i == 2 * phase {
                // Grow back to the full set.
                let live = vec![true; N];
                let eff = tx.round() + lead;
                let msgs = sender.announce(&live, eff).expect("valid mask");
                tx.schedule_mask(eff, &live);
                deliver(&mut responder, &mut rx, &msgs, dup, &mut applied);
            }
            prop_assert_eq!(tx.current(), rx.current(), "diverged at packet {}", i);
            prop_assert_eq!(tx.round(), rx.round());
            for c in 0..N {
                prop_assert_eq!(
                    CausalScheduler::live(&tx, c),
                    CausalScheduler::live(&rx, c),
                    "live mask diverged at packet {}",
                    i
                );
            }
            tx.advance(len);
            rx.advance(len);
        }
        prop_assert_eq!(applied.len(), 2, "both changes applied exactly once");
    }

    /// The lifecycle rejoin path: a membership *grow* announced while
    /// its own shrink is still in flight (the channel flapped faster
    /// than the wire). Whatever the interleaving and however many
    /// retransmits, the grow applies exactly once per epoch, a
    /// retransmit storm after convergence is pure AckOnly, and the
    /// responder ends on the sender's epoch and full mask.
    #[test]
    fn grow_applies_once_against_in_flight_shrink(
        shrink_mask in 1u16..15, // at least one bit clear of 0b1111
        lens in prop::collection::vec(40usize..1500, 60..160),
        dup in 0usize..3,
        retransmits in 1usize..3,
        grow_first in any::<bool>(),
        lead in 1u64..4,
    ) {
        let mut tx = Srr::equal(N, 1500);
        let mut rx = Srr::equal(N, 1500);
        let mut sender = MembershipSender::<Vec<bool>>::new(N);
        let mut responder = MembershipResponder::<Vec<bool>>::new();
        let mut applied: Vec<(u32, u16)> = Vec::new();

        // A channel dies: shrink announced, applied to the sender's own
        // scheduler, but **not yet delivered**.
        let shrink_live = mask_to_vec(shrink_mask, N);
        let eff_shrink = tx.round() + lead;
        let shrink_msgs = sender.announce(&shrink_live, eff_shrink).expect("valid mask");
        tx.schedule_mask(eff_shrink, &shrink_live);
        let shrink_epoch = sender.epoch();

        // The channel probes back before the shrink lands: grow
        // announced on top, newer epoch, later effective round.
        let grow_live = vec![true; N];
        let eff_grow = eff_shrink + lead;
        let grow_msgs = sender.announce(&grow_live, eff_grow).expect("valid mask");
        tx.schedule_mask(eff_grow, &grow_live);
        let grow_epoch = sender.epoch();
        prop_assert_ne!(grow_epoch, shrink_epoch);

        // Both hit the receiver in either order, each retransmitted.
        let bags = if grow_first {
            [&grow_msgs, &shrink_msgs]
        } else {
            [&shrink_msgs, &grow_msgs]
        };
        for _ in 0..retransmits {
            for bag in bags {
                deliver(&mut responder, &mut rx, bag, dup, &mut applied);
            }
        }

        // The grow applied exactly once, and as the final word — a
        // shrink arriving after it (reordered or retransmitted) is
        // stale and must not un-apply the rejoin.
        prop_assert_eq!(
            applied.iter().filter(|&&(e, _)| e == grow_epoch).count(),
            1,
            "grow must apply exactly once"
        );
        let grow_pos = applied.iter().position(|&(e, _)| e == grow_epoch).unwrap();
        prop_assert_eq!(grow_pos, applied.len() - 1, "stale shrink applied after the grow");
        prop_assert_eq!(responder.epoch(), sender.epoch());
        prop_assert_eq!(applied.last().unwrap().1, vec_to_mask(sender.live()).expect("mask fits"));

        // Retransmit storm after convergence: pure AckOnly, no re-apply.
        let before = applied.len();
        for bag in bags {
            deliver(&mut responder, &mut rx, bag, dup + 1, &mut applied);
        }
        prop_assert_eq!(applied.len(), before, "retransmit re-applied a change");

        // In the common wire order (shrink heard first), both changes sit
        // queued at once and the receiver simulation stays in per-packet
        // lockstep through the whole two-change window.
        if !grow_first {
            for (i, &len) in lens.iter().enumerate() {
                prop_assert_eq!(tx.current(), rx.current(), "diverged at packet {}", i);
                prop_assert_eq!(tx.round(), rx.round());
                for c in 0..N {
                    prop_assert_eq!(
                        CausalScheduler::live(&tx, c),
                        CausalScheduler::live(&rx, c),
                        "live mask diverged at packet {}",
                        i
                    );
                }
                tx.advance(len);
                rx.advance(len);
            }
        }
    }
}
